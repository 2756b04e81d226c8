"""The plain quantitative type system for the bang calculus, and the
derivation engine it shares with the tight system.

Rules: ax, app, abs, bg, dr, es.  Multisets make the system
non-idempotent, so derivation size (number of nodes except bg) bounds
reduction length plus normal-form size.

Derivations store the full judgement at every node.  Each rule of the
four systems is one entry of `RULES`: the `mk_*` helpers, its makers,
build nodes bottom-up and raise IllFormed on local rule violations, and
`check_node` replays them on arbitrary trees (e.g. deserialized ones).

The engine (renaming, substitution, anti-substitution, subject reduction
and expansion) is written once for every derivation class.  It rebuilds
each node through the node's own rule, looked up in `ENGINE`, so a
system's side conditions and counters come from its own makers;
`rule_table` fills the engine's tables from the rules of U and E, the
systems with consuming rules.  The transformer operations
mirror the term-level rewriting exactly, so a transformed derivation's
subject is always the same syntax tree the reduction engine produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable

from .syntax import (
    Abs, App, Bang, Der, FoldMemo, ProvedEqual, Sub, Term, Var, Walk,
    decompose_list, free_vars, fresh_name, print_term, subst_meta, term_eq, unwind,
)
from .reduction import (
    SELECTORS, Position, RuleKind, FuelExhausted, Trace,
    classify_wcf_nf, fire_spine, normalize_dw, subterm_at,
)
from .qtypes import (
    Arrow, Context, Mult, Type, EMPTY_MULT, OMEGA,
    ctx_get, ctx_remove, ctx_union, has_tight_constants, is_sorted, mult, print_type,
    sort_key,
)


class Sized:
    __slots__ = ("_size_u", "_size_n", "_size_v")  # a derivation node's sizes; see `sizer`


@dataclass(slots=True)
class Derivation(Sized):
    """A node: its rule, its judgement and its premises.  Nodes are never
    changed once built, but not frozen, for the reason given at
    `syntax._Node`; inference builds every node of every replayed step.
    Like a frozen one, a node is not hashable."""
    rule: str
    context: Context
    subject: Term
    type: Type
    premises: tuple["Derivation", ...] = ()

    def judgement(self) -> str:
        ctx = ", ".join(f"{x}:{print_type(m)}" for x, m in sorted(self.context.items()))
        return f"{ctx} |- {print_term(self.subject)} : {print_type(self.type)}"


class IllFormed(ValueError):
    pass


class NotTypableNormalForm(ValueError):
    """Raised when a constructive typing is requested for a term that is
    not a weak clash-free normal form."""


@dataclass(frozen=True)
class Untypable:
    normal_form: Term


# ---------------------------------------------------------------------------
# Rules
#
# Each typing rule of the four systems is one `Rule` in `RULES`.  Its
# conclusion function, given the rule's tag and its maker's arguments,
# checks the rule's side conditions on the premises, raising IllFormed
# with the rule's reason (a variadic tail's subjects among them), and
# returns the conclusion's context, subject and type with the premises.
# The maker that inference calls wraps it, and `check_node` calls it
# again on a node's own premises, so a conclusion is computed in one
# place only.
#
# A maker's arguments are the variable's name and the type (rules for a
# variable); otherwise the binder, if the former binds, then the premises
# that type the subject's parts in order, then, for a rule with a variadic
# tail (every bang rule has one), the part the tail types and the tail:
# app (function, argument), abs (binder, body), bg (body term, premises),
# dr (body), es (binder, body, argument), app_n (function, argument term,
# argument premises), and so on.

Counters = tuple[int, int, int]


@dataclass(frozen=True)
class Rule:
    """One typing rule: its tag, its conclusion function, the subject
    former and premise count it types, and the checker's reason for each
    fault that its conclusion function does not raise.  `make` is the
    rule's node constructor, which `rule_table` gives it, and `parts`
    names the subject parts that its fixed premises type."""
    tag: str
    conclude: Callable[..., tuple]
    former: type
    fixed: int                      # premises typing the subject's parts, in order
    shape: str                      # another former, or another premise count
    subjects: str = ""              # a fixed premise types another term
    type: str | Callable[[Any], str] = ""  # a callable picks it by the node
    context: str = ""
    counters: str = ""
    rest: str | None = None         # the part any further premises type (`conclude` checks)
    node: type = Derivation         # the class of its nodes, one for each system
    delta: Counters | None = None   # with counters: added to the premises' sum
    weight: int | None = 1          # the node's share of its derivation's size; None:
                                    # one per element of its (multiset) type
    consuming: bool = False         # the rule the engine rebuilds its former with
    closure: str | None = None      # an application rule: the closure rule dB turns it into

    def __post_init__(self):
        object.__setattr__(self, "parts", PARTS[self.former][:self.fixed])


def rule_table(system: str, *rules: Rule) -> None:
    """Make `rules` the rules of `system`, in `RULES`, and give each its
    maker: a rule with counters adds its own to its premises', and one
    without keeps the node's size in `system` on the node (see `sizer`).
    A system with consuming rules also fills the engine's tables below."""
    table = RULES[system] = {rule.tag: rule for rule in rules}
    for rule in rules:
        object.__setattr__(rule, "make", _maker_of(rule, system))
        if rule.consuming:
            ENGINE[rule.node] = table
            CONSUMING_RULE[rule.node, rule.former] = rule
        if rule.closure:
            APPLICATION_RULE[rule.node, rule.closure] = rule


def _maker_of(rule: Rule, system: str) -> Callable[..., Any]:
    tag, conclude, node, delta, weight = rule.tag, rule.conclude, rule.node, rule.delta, rule.weight
    if delta is not None:
        def make(*args):
            context, subject, ty, ps = conclude(tag, *args)
            return node(tag, context, subject, ty, add_counters(delta, ps), ps)
        return make
    attr = "_size_" + system

    def make(*args):
        # the node's size from its weight and its premises' sizes, which
        # their makers kept, or a walk for one that was read
        context, subject, ty, ps = conclude(tag, *args)
        d = node(tag, context, subject, ty, ps)
        n = len(ty) if weight is None else weight
        for p in ps:
            m = getattr(p, attr, None)
            n += _walk_size(p, system) if m is None else m
        setattr(d, attr, n)
        return d
    return make


def add_counters(delta: Counters, premises) -> Counters:
    b, e, s = delta
    for p in premises:
        pb, pe, ps = p.counters
        b, e, s = b + pb, e + pe, s + ps
    return b, e, s


# system ("u", "e", "n", "v", as `bangcalc typecheck --system`) -> rule tag -> rule
RULES: dict[str, dict[str, Rule]] = {}
# derivation class -> the rules the engine rebuilds its nodes with
ENGINE: dict[type, dict[str, Rule]] = {}
# (derivation class, term former) -> the consuming rule for that former
CONSUMING_RULE: dict[tuple[type, type], Rule] = {}
# (derivation class, closure rule tag) -> the application rule a dB step
# turns into that closure rule, which expansion turns back
APPLICATION_RULE: dict[tuple[type, str], Rule] = {}


def ax(tag: str, x: str, ty: Type) -> tuple:
    return {x: Mult((ty,))}, Var(x), ty, ()


def app(tag: str, d_f, d_a) -> tuple:
    if not isinstance(d_f.type, Arrow):
        raise IllFormed(f"{tag} function premise must have an arrow type")
    if d_a.type != d_f.type.domain:
        raise IllFormed(f"{tag} argument premise must match the arrow domain")
    return (ctx_union(d_f.context, d_a.context), App(d_f.subject, d_a.subject),
            d_f.type.codomain, (d_f, d_a))


def abs_(tag: str, x: str, d_b) -> tuple:
    return (ctx_remove(d_b.context, x), Abs(x, d_b.subject),
            Arrow(ctx_get(d_b.context, x), d_b.type), (d_b,))


def bg(tag: str, body: Term, premises: tuple) -> tuple:
    for p in premises:
        if p.subject is not body and not term_eq(p.subject, body):
            raise IllFormed(f"{tag} premise subjects must be the bang body")
    # stably sorted by type, so their types make a multiset as they stand;
    # keyed only when out of order
    if len(premises) > 1 and not is_sorted([p.type for p in premises]):
        premises = tuple(sorted(premises, key=lambda p: sort_key(p.type)))
    return (ctx_union(*(p.context for p in premises)), Bang(body),
            Mult(tuple(p.type for p in premises)), premises)


def dr(tag: str, d_b) -> tuple:
    if not isinstance(d_b.type, Mult) or len(d_b.type) != 1:
        raise IllFormed(f"{tag} premise must be the singleton of the conclusion type")
    return d_b.context, Der(d_b.subject), d_b.type.elements[0], (d_b,)


def es(tag: str, x: str, d_b, d_a) -> tuple:
    if d_a.type != ctx_get(d_b.context, x):
        raise IllFormed(f"{tag} argument premise must be typed with the binder multiset")
    return close(x, d_b, d_a)


def close(x: str, d_b, d_a) -> tuple:
    """The conclusion of a closure rule: d_b's type, x's entry dropped."""
    return (ctx_union(ctx_remove(d_b.context, x), d_a.context), Sub(d_b.subject, x, d_a.subject),
            d_b.type, (d_b, d_a))


# the parts of a subject that a rule's fixed premises type, in order
PARTS = {Var: (), App: ("fun", "arg"), Abs: ("body",), Bang: (), Der: ("body",),
         Sub: ("body", "arg")}

# The plain rules' reasons by former: shape, fixed premise subjects, type
# and context, each naming the rule at {}.  System U's rules have these; E, N
# and V keep those that their rules share with U's.
_PLAIN = {
    Var: ("{} must type a variable with no premises", "", "",
          "{} context must be exactly the singleton for its variable"),
    App: ("{} must type an application from two premises",
          "{} premise subjects must be the application parts",
          "{} conclusion must be the arrow codomain",
          "{} context must be the union of the premise contexts"),
    Abs: ("{} must type an abstraction from one premise", "{} premise subject must be the body",
          "{} conclusion must move the binder multiset into the arrow",
          "{} context must drop the binder"),
    Bang: ("{} must type a bang", "", "{} conclusion must collect the premise types",
           "{} context must be the union of the premise contexts"),
    Der: ("{} must type a dereliction from one premise", "{} premise subject must be the body",
          "{} premise must be the singleton of the conclusion type",
          "{} must not change the context"),
    Sub: ("{} must type a closure from two premises",
          "{} premise subjects must be the closure parts",
          "{} conclusion must keep the body type",
          "{} context must recombine the premise contexts"),
}


def define(tag: str, conclude: Callable[..., tuple], former: type, **fields: Any) -> Rule:
    """The rule `tag` for `former`: a premise for each part of the subject
    (every premise for the body of a bang) and the plain rules' reasons,
    unless `fields` gives others."""
    shape, subjects, ty, context = (reason.format(tag) for reason in _PLAIN[former])
    plain = dict(fixed=len(PARTS[former]), shape=shape, subjects=subjects, type=ty,
                 context=context, rest="body" if former is Bang else None)
    return Rule(tag, conclude, former, **{**plain, **fields})


rule_table(
    "u",
    define("ax", ax, Var, consuming=True),
    define("app", app, App, consuming=True, closure="es"),
    define("abs", abs_, Abs, consuming=True),
    define("bg", bg, Bang, consuming=True, weight=0),
    define("dr", dr, Der, consuming=True),
    define("es", es, Sub, consuming=True),
)
mk_ax, mk_app, mk_abs, mk_bg, mk_dr, mk_es = (r.make for r in RULES["u"].values())


def _maker(d) -> Callable[..., Any]:
    rule = ENGINE[type(d)].get(d.rule)
    if rule is None:
        raise IllFormed(f"unknown rule {d.rule!r}")
    return rule.make


# ---------------------------------------------------------------------------
# Checking

@dataclass(frozen=True)
class Violation:
    path: tuple[int, ...]
    reason: str


def check_derivation(d, system: str) -> Violation | None:
    """The first node of d, in pre-order, that breaks the rules of `system`
    (see `check_node`), with the path of premise indices that leads to it.
    Tight constants belong only to a system whose nodes carry counters; a
    derivation read from JSON shares its types and context multisets
    between nodes, so each object is looked into once."""
    cls = next(iter(RULES[system].values())).node
    memo: dict[int, tuple[Type, bool]] | None = {} if cls is Derivation else None
    stack: list = [(d, None)]  # a node and its link: its index and its parent's link
    push = stack.append
    while stack:
        node, link = stack.pop()
        reason = check_node(system, cls, node, memo)
        if reason is not None:
            path = []
            while link is not None:
                i, link = link
                path.append(i)
            return Violation(tuple(reversed(path)), reason)
        ps = node.premises
        for i in range(len(ps) - 1, -1, -1):
            push((ps[i], (i, link)))
    return None


def check_node(system: str, cls: type, d, tight: dict[int, tuple[Type, bool]] | None) -> str | None:
    """Why node d breaks the rules of `system`, whose nodes are of class
    `cls`, or None.  The checks run in a fixed order:

    1. the node prelude: the node class, empty context entries and, when
       `tight` is given, tight constants (looked for once per type object);
    2. the rule's subject former and premise count;
    3. the subjects of the premises that type the subject's fixed parts;
    4. the rule's side conditions (a variadic tail's subjects among them),
       by calling its conclusion function on the node's own premises;
    5. the node's type, context and counters against that conclusion."""
    if type(d) is not cls:
        return f"system {system.upper()} nodes must {'not ' if cls is Derivation else ''}carry counters"
    for m in d.context.values():
        if not m.elements:
            return "context stores an empty multiset entry"
    if tight is not None and any(map(has_tight_constants, (d.type, *d.context.values()),
                                     repeat(tight))):
        return "tight constants do not belong to this system"
    rule = RULES[system].get(d.rule) if isinstance(d.rule, str) else None
    if rule is None:
        return f"unknown rule {d.rule!r}"
    s, ps, k, former, rest = d.subject, d.premises, rule.fixed, rule.former, rule.rest
    if type(s) is not former or (len(ps) < k if rest else len(ps) != k):
        return rule.shape
    for p, part in zip(ps, rule.parts):
        part = getattr(s, part)
        if p.subject is not part and not term_eq(p.subject, part):
            return rule.subjects
    if rest:
        ps = (*ps[:k], getattr(s, rest), ps[k:])
    # the maker's arguments (see the top of the rule table)
    if former is Var:
        args: tuple = (s.name, d.type)
    else:
        args = (s.binder, *ps) if former is Abs or former is Sub else ps
    try:
        context, _, ty, premises = rule.conclude(rule.tag, *args)
    except IllFormed as ex:
        return str(ex)
    if ty is not d.type and ty != d.type:
        return rule.type if isinstance(rule.type, str) else rule.type(d)
    if context != d.context:
        return rule.context
    # a premise of another class is reported when the walk reaches it
    if (rule.delta is not None and all(type(p) is cls for p in premises)
            and add_counters(rule.delta, premises) != d.counters):
        return rule.counters
    return None


def check_derivation_u(d: Derivation) -> Violation | None:
    return check_derivation(d, "u")


def sizer(system: str) -> Callable[[Any], int]:
    """The size function of `system`: the sum of a derivation's node
    weights, each given by the node's rule in `system` (1 for a rule it
    does not have).  A node keeps it in its slot for the system: the
    system's makers set it, and a node built otherwise, as one read from
    JSON, is sized by a walk the first time it is asked for."""
    attr = "_size_" + system

    def size(d) -> int:
        n = getattr(d, attr, None)
        return _walk_size(d, system) if n is None else n
    size.__name__ = size.__qualname__ = "size_" + system
    return size


def _walk_size(d, system: str) -> int:
    """The size of d in `system`, computed for each node not yet sized, on
    `syntax.unwind`, so that a deep derivation does not exhaust the
    interpreter's stack."""
    attr, rules = "_size_" + system, RULES[system]

    def walk(node) -> Walk:
        n = getattr(node, attr, None)
        if n is None:
            rule = rules.get(node.rule)
            w = 1 if rule is None else rule.weight
            n = len(node.type) if w is None else w
            for p in node.premises:
                n += yield walk(p)
            setattr(node, attr, n)
        return n
    return unwind(walk(d))


size_u = sizer("u")  # nodes of a U derivation other than bg


# ---------------------------------------------------------------------------
# Constructive typing of weak clash-free normal forms

@dataclass(frozen=True)
class NfTyping:
    """How a system types weak clash-free normal forms: its rule for each
    former, and the type it hands down to a neutral subterm (given here as
    U's; E hands down n to every one), tau being the node's own target."""
    rules: dict[type, Callable[..., Any]]
    top: Type                            # at the top, and in an nb position
    arg: Type                            # in an na position
    head: Callable[[Any, Type], Type]    # to a head, by its argument's derivation and tau
    der: Callable[[Type], Type]          # to a dereliction's body, by tau
    closure: Callable[[Any, str], Type]  # to a closure's argument, by its body's derivation
                                         # and the binder


U_TYPING = NfTyping({Var: mk_ax, App: mk_app, Abs: mk_abs, Bang: mk_bg, Der: mk_dr, Sub: mk_es},
                    OMEGA, EMPTY_MULT, lambda d_a, tau: Arrow(d_a.type, tau),
                    lambda tau: mult([tau]), lambda d_b, x: ctx_get(d_b.context, x))


def type_normal_form_u(t: Term, target: Type | None = None) -> Derivation:
    """A derivation for a wcf normal form.

    Neutral terms hit any requested target type (default: the
    distinguished base variable).  Other normal forms choose their own
    type, so `target` must be None for them.
    """
    return unwind(type_nf(t, "nf", target, U_TYPING, {}))


def type_nf(t: Term, level: str, tau: Type | None, typing: NfTyping, memo: FoldMemo) -> Walk:
    """The walk that types t, in the grammar `level` ("ne", "na", "nb", or
    "nf" for any), by `typing`; a neutral t is typed tau, which at "nf"
    only a neutral t may be given.  Neutral terms are tried first at every
    level, which covers every closure over one.  `memo` keeps each
    subterm's class."""
    if level == "nf":
        cls = classify_wcf_nf(t, memo)
        if not cls.memberships:
            raise NotTypableNormalForm(f"{print_term(t)} is not a weak clash-free normal form")
        if not cls.ne and tau is not None:
            raise NotTypableNormalForm("only neutral terms accept a target type")
        level = "ne" if cls.ne else "na" if cls.na else "nb"
        tau = typing.top if tau is None else tau
    elif level != "ne" and classify_wcf_nf(t, memo).ne:
        level, tau = "ne", typing.arg if level == "na" else typing.top
    rules, former = typing.rules, type(t)
    if level == "ne":
        if former is Var:
            return rules[Var](t.name, tau)
        if former is App:
            d_a = yield type_nf(t.arg, "na", None, typing, memo)
            return rules[App]((yield type_nf(t.fun, "ne", typing.head(d_a, tau), typing, memo)),
                              d_a)
        if former is Der:
            return rules[Der]((yield type_nf(t.body, "ne", typing.der(tau), typing, memo)))
    elif former is Bang and level == "na":
        return rules[Bang](t.body, ())
    elif former is Abs and level == "nb":
        return rules[Abs](t.binder, (yield type_nf(t.body, "nf", None, typing, memo)))
    if former is Sub:
        d_b = yield type_nf(t.body, level, tau, typing, memo)
        d_a = yield type_nf(t.arg, "ne", typing.closure(d_b, t.binder), typing, memo)
        return rules[Sub](t.binder, d_b, d_a)
    raise NotTypableNormalForm(print_term(t))


# ---------------------------------------------------------------------------
# Renaming and substitution inside derivations
#
# These walk exactly like syntax.subst_meta so that every rebuilt node's
# subject equals the term the meta-operation produces.  Each is a walk on
# `syntax.unwind`, and yields a sub-walk only for a part it may change.

def _subst(d, x: str, u: Term, fvu: frozenset[str] | None, leaf: Callable[[Any], Any]) -> Walk:
    """d{x:=u}, where `leaf` gives the derivation that replaces each axiom
    for x and `fvu`, once known, holds the free variables of u."""
    if x not in free_vars(d.subject):
        return d
    make, ps = _maker(d), d.premises
    match d.subject:
        case Var(_):
            return leaf(d)
        case App(_, _) | Der(_) | Bang(_):
            new = []
            for p in ps:  # a premise without x free is kept as it stands
                new.append((yield _subst(p, x, u, fvu, leaf)) if x in free_vars(p.subject) else p)
            if type(d.subject) is Bang:
                return make(subst_meta(d.subject.body, x, u), tuple(new))
            return make(*new)
        case Abs(y, body):
            return make(*(yield _subst_under(ps[0], y, body, x, u, fvu, leaf)))
        case Sub(body, y, arg):
            p_b, p_a = ps
            if x in free_vars(arg):
                p_a = yield _subst(p_a, x, u, fvu, leaf)
            if x != y and x in free_vars(body):
                y, p_b = yield _subst_under(p_b, y, body, x, u, fvu, leaf)
            return make(y, p_b, p_a)
    raise IllFormed(f"cannot substitute into {print_term(d.subject)}")


def _subst_under(d, y: str, body: Term, x: str, u: Term, fvu: frozenset[str] | None,
                 leaf: Callable[[Any], Any]) -> Walk:
    """The binder y (not x) and d, which types its body, with u for x, y
    refreshed first when it would capture a free variable of u."""
    fvu = free_vars(u) if fvu is None else fvu
    if y in fvu:
        y2 = fresh_name(y, fvu | free_vars(body) | {x})
        y, d = y2, (yield rename_free_d(d, y, y2))
    return y, (yield _subst(d, x, u, fvu, leaf))


def rename_free_d(d, old: str, new: str) -> Walk:
    """The walk of d with its free name `old` renamed to `new`, as
    subst_meta renames."""
    return _subst(d, old, Var(new), frozenset((new,)), lambda ax: _maker(ax)(new, ax.type))


def subst_derivation(d_t, x: str, d_us: list):
    """Merge derivations of u into a derivation of t, replacing the
    axioms for x.  The conclusion-type bag of d_us must equal the
    x-multiset of d_t's context; matching is by type, left to right."""
    if mult(d.type for d in d_us) != ctx_get(d_t.context, x):
        raise IllFormed("argument derivations do not realize the multiset of x")
    for d in d_us[1:]:
        if not term_eq(d.subject, d_us[0].subject):
            raise IllFormed("argument derivations type different terms")
    u = d_us[0].subject if d_us else Var(x)  # unused when the pool is empty
    pool = list(d_us)
    out = unwind(_subst(d_t, x, u, None, _take_from(pool)))
    assert not pool, "unconsumed argument derivations"
    return out


def _take_from(pool: list) -> Callable[[Any], Any]:
    def take(ax):
        for i, cand in enumerate(pool):
            if cand.type == ax.type:
                return pool.pop(i)
        raise IllFormed("no argument derivation left for an axiom occurrence")
    return take


def antisubst_derivation(d, t: Term, x: str, u: Term) -> tuple[Any, list]:
    """Invert substitution: from a derivation of t{x:=u}, recover a
    derivation of t (with x recorded in its context) plus one derivation
    of u per typed occurrence of x."""
    if not term_eq(d.subject, subst_meta(t, x, u)):
        raise IllFormed("subject is not the stated substitution instance")
    return unwind(_antisubst(d, t, x, u))


def _antisubst(d, t: Term, x: str, u: Term) -> Walk:
    """The walk of antisubst_derivation; a part of t without x free keeps
    its premise as it stands, without a walk of its own."""
    if x not in free_vars(t):
        return d, []
    if isinstance(t, Var):
        return CONSUMING_RULE[type(d), Var].make(x, d.type), [d]
    make, ps = _maker(d), d.premises
    match t:
        case App(f, a):
            d_f, us1 = (yield _antisubst(ps[0], f, x, u)) if x in free_vars(f) else (ps[0], [])
            d_a, us2 = (yield _antisubst(ps[1], a, x, u)) if x in free_vars(a) else (ps[1], [])
            return make(d_f, d_a), us1 + us2
        case Bang(b):  # x is free in b, so in every premise's subject
            d_ps, us = [], []
            for p in ps:
                d_p, us_p = yield _antisubst(p, b, x, u)
                d_ps.append(d_p)
                us += us_p
            return make(b, tuple(d_ps)), us
        case Der(b):
            d_b, us = yield _antisubst(ps[0], b, x, u)
            return make(d_b), us
        case Abs(y, b):
            d_b, us = yield _antisubst_under(ps[0], b, y, x, u)
            return make(y, d_b), us
        case Sub(b, y, a):
            p_b, p_a = ps
            us = []
            if x in free_vars(a):
                p_a, us = yield _antisubst(p_a, a, x, u)
            if x != y and x in free_vars(b):
                p_b, us_b = yield _antisubst_under(p_b, b, y, x, u)
                us = us_b + us
            return make(y, p_b, p_a), us
    raise IllFormed(f"cannot decompose at {print_term(t)}")


def _antisubst_under(d, b: Term, y: str, x: str, u: Term) -> Walk:
    """_antisubst of the body b of a binder y, which subst_meta refreshes
    when it would capture a free variable of u."""
    fvu = free_vars(u)
    if y not in fvu:
        return (yield _antisubst(d, b, x, u))
    y2 = fresh_name(y, fvu | free_vars(b) | {x})
    d_b, us = yield _antisubst(d, subst_meta(b, y, Var(y2)), x, u)
    d_b = yield rename_free_d(d_b, y2, y)
    return (yield _rebind(d_b, b)), us


def _rebind(d, t: Term) -> Walk:
    """d rebuilt so that its subject is exactly t, an alpha-variant of it.

    Renaming a refreshed binder back does not always restore the original
    term: the refresh may have renamed an inner binder too.  Where a binder
    of d's subject differs from t's, it is renamed to t's."""
    if term_eq(d.subject, t):
        return d
    make, ps, s = _maker(d), d.premises, d.subject
    match t, s:
        case (App(), App()) | (Der(), Der()):
            new = []
            for p, part in zip(ps, PARTS[type(t)]):
                new.append((yield _rebind(p, getattr(t, part))))
            return make(*new)
        case Bang(b), Bang(_):
            new = []
            for p in ps:
                new.append((yield _rebind(p, b)))
            return make(b, tuple(new))
        case Abs(y, b), Abs(z, _):
            p_b = ps[0] if y == z else (yield rename_free_d(ps[0], z, y))
            return make(y, (yield _rebind(p_b, b)))
        case Sub(b, y, a), Sub(_, z, _):
            p_b = ps[0] if y == z else (yield rename_free_d(ps[0], z, y))
            return make(y, (yield _rebind(p_b, b)), (yield _rebind(ps[1], a)))
    raise IllFormed(f"{print_term(s)} is not an alpha-variant of {print_term(t)}")


# ---------------------------------------------------------------------------
# Subject reduction / expansion

def _at(d, pos: Position, fire: Callable[..., Any], *args):
    """d with `fire(node, *args)` in place of its node at pos, the nodes
    above rebuilt."""
    if not pos:
        return fire(d, *args)
    above = []
    for sel in pos:
        former, attr, _ = SELECTORS[sel]
        if not isinstance(d.subject, former):
            raise IllFormed(f"position step {sel} does not match rule {d.rule}")
        idx = PARTS[former].index(attr)
        above.append((d, idx))
        d = d.premises[idx]
    d = fire(d, *args)
    for node, idx in reversed(above):
        ps = list(node.premises)
        ps[idx] = d
        binder = (node.subject.binder,) if isinstance(node.subject, (Abs, Sub)) else ()
        d = _maker(node)(*binder, *ps)
    return d


def reduce_derivation(d, step: tuple[Position, RuleKind]):
    """A derivation of the reduct across the given redex, built rule by
    rule; the callers check how the judgement and the measure move."""
    pos, kind = step
    return _at(d, pos, _fire, kind)


def reduce_derivation_u(d: Derivation, step: tuple[Position, RuleKind]) -> Derivation:
    """Weighted subject reduction: transform a derivation of t into one of
    the reduct across the given redex; size strictly decreases."""
    out = reduce_derivation(d, step)
    if not same_judgement(out, d) or size_u(out) >= size_u(d):
        raise IllFormed("subject reduction did not preserve the judgement")
    return out


def same_judgement(d, e) -> bool:
    """Whether d and e have one context and one type."""
    return d.type == e.type and d.context == e.context


def fire_spine_d(d, avoid: frozenset[str], at_core: Callable[[Any], Any]):
    """reduction.fire_spine on derivations: d types L<c>; the result types
    L<c'> with at_core giving the derivation of c', and the binders of L
    that are in `avoid` refreshed, outermost first."""
    spine = []
    while isinstance(d.subject, Sub):
        y, (p_b, p_a) = d.subject.binder, d.premises
        if y in avoid:
            y2 = fresh_name(y, avoid | free_vars(p_b.subject))
            p_b = unwind(rename_free_d(p_b, y, y2))
            y = y2
        spine.append((_maker(d), y, p_a))
        d = p_b
    d = at_core(d)
    for make, y, p_a in reversed(spine):
        d = make(y, d, p_a)
    return d


def _fire(d, kind: RuleKind):
    cls = type(d)
    if kind is RuleKind.DB:
        closure = getattr(ENGINE[cls].get(d.rule), "closure", None)
        if closure is None:
            raise IllFormed("dB redex must be typed by an application rule")
        close, d_u = ENGINE[cls][closure].make, d.premises[1]

        def at_abs(f_d):
            if f_d.rule != CONSUMING_RULE[cls, Abs].tag:
                raise IllFormed("dB function must be a consuming abstraction under closures")
            return close(f_d.subject.binder, f_d.premises[0], d_u)

        return fire_spine_d(d.premises[0], free_vars(d_u.subject), at_abs)

    if kind is RuleKind.SBANG:
        if d.rule != CONSUMING_RULE[cls, Sub].tag:
            raise IllFormed("s! redex must be typed by the consuming closure rule")
        x, (d_body, d_arg) = d.subject.binder, d.premises

        def at_bang(a_d):
            if a_d.rule != CONSUMING_RULE[cls, Bang].tag:
                raise IllFormed("s! argument must be a consuming bang under closures")
            pool = list(a_d.premises)
            out = unwind(_subst(d_body, x, a_d.subject.body, None, _take_from(pool)))
            assert not pool
            return out

        return fire_spine_d(d_arg, free_vars(d_body.subject) - {x}, at_bang)

    if kind is RuleKind.DBANG:
        if d.rule != CONSUMING_RULE[cls, Der].tag:
            raise IllFormed("d! redex must be typed by the consuming dereliction rule")

        def unbang(b_d):
            if b_d.rule != CONSUMING_RULE[cls, Bang].tag or len(b_d.premises) != 1:
                raise IllFormed("d! body must be a unary consuming bang under closures")
            return b_d.premises[0]

        return fire_spine_d(d.premises[0], frozenset(), unbang)

    raise IllFormed(f"{kind} is not a bang-calculus rule")


def expand_derivation(d, t: Term, step: tuple[Position, RuleKind],
                      proved: ProvedEqual | None = None):
    """A derivation of t from one of its reduct across the given redex,
    built rule by rule; the callers check how the judgement and the
    measure move.  The rebuilt subject is checked against t with
    `term_eq`, which is given `proved`."""
    pos, kind = step
    out = _at(d, pos, _expand, subterm_at(t, pos), kind)
    if not term_eq(out.subject, t, proved):
        raise IllFormed("expansion did not rebuild the stated term")
    return out


def expand_derivation_u(d: Derivation, t: Term, step: tuple[Position, RuleKind],
                        proved: ProvedEqual | None = None) -> Derivation:
    """Weighted subject expansion: from a derivation of the reduct of t at
    the given redex, build a derivation of t itself."""
    out = expand_derivation(d, t, step, proved)
    if not same_judgement(out, d) or size_u(out) <= size_u(d):
        raise IllFormed("subject expansion did not preserve the judgement")
    return out


def _expand(d, t: Term, kind: RuleKind):
    cls = type(d)
    if kind is RuleKind.DB:
        assert isinstance(t, App)
        chain, core = _peel_spine(d, t.fun)
        app = APPLICATION_RULE.get((cls, core.rule))
        if app is None:
            raise IllFormed("dB reduct core must be a closure node")
        cur = CONSUMING_RULE[cls, Abs].make(core.subject.binder, core.premises[0])
        return app.make(_rewrap(cur, chain), core.premises[1])

    if kind is RuleKind.SBANG:
        assert isinstance(t, Sub)
        chain, core = _peel_spine(d, t.arg)
        # replay the firing renames to know the bang body actually substituted
        u_fired, spine_fired = _sbang_parts(t)
        if [y for y, _ in spine_fired] != [node.subject.binder for node, _ in chain]:
            raise IllFormed("reduct spine does not match the fired closure spine")
        d_s, d_us = unwind(_antisubst(core, t.body, t.binder, u_fired))
        # the bang body is the first premise's subject, equal to u_fired:
        # the subject check of `expand_derivation` then finds it among the
        # pairs an earlier step proved equal, where bg would walk it
        body = d_us[0].subject if d_us else u_fired
        cur = CONSUMING_RULE[cls, Bang].make(body, tuple(d_us))
        return CONSUMING_RULE[cls, Sub].make(t.binder, d_s, _rewrap(cur, chain))

    if kind is RuleKind.DBANG:
        assert isinstance(t, Der)
        chain, core = _peel_spine(d, t.body)
        cur = CONSUMING_RULE[cls, Bang].make(core.subject, (core,))
        return CONSUMING_RULE[cls, Der].make(_rewrap(cur, chain))

    raise IllFormed(f"{kind} is not a bang-calculus rule")


def _peel_spine(d, spine: Term) -> tuple[list[tuple[Any, Sub]], Any]:
    """The closure nodes of d, one per closure of the pre-step spine, each
    paired with that closure, and the node under them."""
    chain = []
    while isinstance(spine, Sub):
        if not isinstance(d.subject, Sub):
            raise IllFormed("closure spine shorter than the redex spine")
        chain.append((d, spine))
        d, spine = d.premises[0], spine.body
    return chain, d


def _rewrap(cur, chain: list[tuple[Any, Sub]]):
    """Wrap cur in the peeled closure nodes, innermost first, renaming each
    binder the firing refreshed back to its pre-step name."""
    renamed = False
    for node, closure in reversed(chain):
        y_fired, y = node.subject.binder, closure.binder
        if y_fired != y:
            cur = unwind(rename_free_d(cur, y_fired, y))
            renamed = True
        cur = _maker(node)(y, cur, node.premises[1])
    return unwind(_rebind(cur, chain[0][1])) if renamed else cur


def _sbang_parts(t: Sub) -> tuple[Term, tuple[tuple[str, Term], ...]]:
    """The bang body and closure spine as the s! firing renames them."""
    if isinstance(t.arg, Bang):  # no spine, so nothing to rename
        return t.arg.body, ()
    fired = decompose_list(fire_spine(t.arg, free_vars(t.body) - {t.binder}, lambda bang: bang))
    assert isinstance(fired.core, Bang)
    return fired.core.body, fired.spine


# ---------------------------------------------------------------------------
# Inference by normalize-then-expand

def infer_with(t: Term, fuel: int, type_nf: Callable[[Term], Any],
               replay_trace: Callable[[Any, Trace], Any]):
    """Type t by normalizing, typing the normal form with `type_nf`, and
    replaying the trace backwards through subject expansion.  Untypable
    when the normal form has a clash at a weak position; FuelExhausted
    (returned, not raised) when normalization does not finish.  `type_nf`
    raises NotTypableNormalForm on a normal form with such a clash."""
    try:
        trace = normalize_dw(t, fuel)
    except FuelExhausted as ex:
        return ex
    try:  # `type_nf` classifies the normal form, and each subterm, once
        d = type_nf(trace.final)
    except NotTypableNormalForm:
        return Untypable(trace.final)
    return replay_trace(d, trace)


def replay(d, trace: Trace, expand: Callable[..., Any]):
    """Expand d back along the trace.  Consecutive rebuilt subjects, and
    consecutive trace terms, share most of their subterms, so the subject
    checks share one `proved` and each compares only what a step changed."""
    terms = [trace.start] + [s.result for s in trace.steps]
    proved: ProvedEqual = {}
    for i in range(len(trace.steps) - 1, -1, -1):
        d = expand(d, terms[i], (trace.steps[i].position, trace.steps[i].rule), proved)
    return d


def infer_u(t: Term, fuel: int) -> Derivation | Untypable | FuelExhausted:
    """A plain derivation of t, by normalize-then-expand."""
    return infer_with(t, fuel, type_normal_form_u, replay_expansion_u)


def replay_expansion_u(d: Derivation, trace: Trace) -> Derivation:
    return replay(d, trace, expand_derivation_u)

