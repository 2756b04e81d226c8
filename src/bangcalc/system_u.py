"""The plain quantitative type system for the bang calculus, and the
derivation engine it shares with the tight system.

Rules: ax, app, abs, bg, dr, es.  Multisets make the system
non-idempotent, so derivation size (number of nodes except bg) bounds
reduction length plus normal-form size.

Derivations store the full judgement at every node.  Each rule of the
four systems is one entry of `RULES`: its remake builds a node along the
term it is given, raising IllFormed on local rule violations, its maker
(the `mk_*` helpers) builds that term from its arguments first, and its
check replays the same steps on arbitrary trees (e.g. deserialized ones).

The engine (renaming, substitution, anti-substitution, subject reduction
and expansion) is written once for every derivation class.  It remakes
each node through the node's own rule, looked up in `ENGINE` by
`fitting_rule`, the one check of a node's shape before the engine takes
it apart, so a system's side conditions and counters come from its own
rules; `rule_table` fills the engine's tables from the rules of U and E,
the systems with consuming rules.  The engine chooses no name: it remakes
each node along the term the term engine built, so a transformed
derivation's subject is always the same objects the reduction engine
produces, and replay keeps no memo of equal terms.  Renaming and
substitution are one rebuild walk, and each rule, which acts through a
closure spine, fires and expands on one spine walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .syntax import (
    CHILDREN, Abs, App, Bang, Der, FoldMemo, Sub, Term, Var, Walk,
    free_vars, print_term, spine_core, subst_meta, term_eq, unwind,
)
from .reduction import (
    SELECTORS, W_RULES, Position, RuleKind, FuelExhausted, Trace,
    classify_wcf_nf, fire_spine, normalize_dw, subterm_at,
)
from .qtypes import (
    Arrow, Context, Mult, Type, EMPTY_MULT, OMEGA,
    ctx_get, ctx_remove, ctx_union, has_tight_constants, is_sorted, mult, print_type,
    sort_key,
)


class Sized:
    # a derivation node's sizes (see `sizer`), and the U derivation that an
    # inferred N or V root was read from (see `cbn_cbv.infer_n`)
    __slots__ = ("_size_u", "_size_n", "_size_v", "_image")


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
    not a weak clash-free normal form.  The message is the first argument
    with the terms after it printed at its {}s, when it is read."""

    def __str__(self) -> str:
        return self.args[0].format(*map(print_term, self.args[1:]))


@dataclass(frozen=True)
class Untypable:
    normal_form: Term


# ---------------------------------------------------------------------------
# Rules
#
# Each typing rule of the four systems is one `Rule` in `RULES`.  Its
# conclusion function, given the rule's tag and a node's subject, type and
# premises (a tuple), checks the rule's side conditions on the premises,
# raising IllFormed with the rule's reason, and returns the conclusion's
# context and type with the premises (bg's sorted by type); each premise's
# subject is checked before it is called.  It reads the name, the binder
# and a variadic part from the subject, and the type only where the rule
# is given one (ax, ax_v).  A conclusion is computed there only.

Counters = tuple[int, int, int]


@dataclass(frozen=True)
class Rule:
    """One typing rule: its tag, its conclusion function, the subject
    former and premise count it types, and the checker's reason for each
    fault that its conclusion function does not raise.  `rule_table` gives
    it `remake`, `make`, its maker for the public `mk_*` names, and
    `check`, its node check; `parts` names the subject parts that its
    fixed premises type."""
    tag: str
    conclude: Callable[..., tuple]
    former: type
    fixed: int                      # premises typing the subject's parts, in order
    shape: str                      # another former, or another premise count
    subjects: str = ""              # a fixed premise types another term
    type: str | Callable[[Any], str] = ""  # a callable picks it by the node
    context: str = ""
    counters: str = ""
    rest: str | None = None         # the part any further premises type
    node: type = Derivation         # the class of its nodes, one for each system
    delta: Counters | None = None   # with counters: added to the premises' sum
    weight: int | None = 1          # the node's share of its derivation's size; None:
                                    # one per element of its (multiset) type
    consuming: bool = False         # the rule the engine rebuilds its former with
    closure: str | None = None      # an application rule: the closure rule dB turns it into
    image: str | None = None        # an N or V rule: its U image (see `cbn_cbv`)

    def __post_init__(self):
        object.__setattr__(self, "parts", PARTS[self.former][:self.fixed])

    def fits(self, t: Term, n: int) -> bool:
        """Whether a subject t over n premises has the rule's former and premise count."""
        return type(t) is self.former and (
            n == self.fixed or self.rest is not None and n > self.fixed)

    def premise_parts(self, n: int) -> tuple[str, ...]:
        """The subject part that each of n premises types, n a count the rule fits."""
        return self.parts + (self.rest,) * (n - self.fixed)


def rule_table(system: str, *rules: Rule) -> None:
    """Make `rules` the rules of `system`, in `RULES`, and give each its
    remake, maker and check (see `_closures`).  A system with consuming
    rules also fills the engine's tables below."""
    table = RULES[system] = {rule.tag: rule for rule in rules}
    for rule in rules:
        remake, make, check = _closures(rule, system)
        object.__setattr__(rule, "remake", remake)
        object.__setattr__(rule, "make", make)
        object.__setattr__(rule, "check", check)
        if rule.consuming:
            ENGINE[rule.node] = table
            CONSUMING_RULE[rule.node, rule.former] = rule
        if rule.closure:
            APPLICATION_RULE[rule.node, rule.closure] = rule


def _closures(rule: Rule, system: str) -> tuple[Callable, Callable, Callable]:
    """The rule's remake, maker and check.  `remake(t, ty, premises)` is
    its node over `premises` with t itself as subject, once t has the
    rule's former and premise count, each premise's subject is the part of
    t it types (an object that is not is compared), the fixed premises'
    first, and the conclusion function passed; IllFormed with the rule's
    reason for the first that fails.  The maker builds t from its
    arguments: a variable's name and type; else the binder, if any, the
    premises of the parts in order, then the part that no fixed premise
    types and any premises of it.  The check takes
    remake's steps on a node's own subject, type and premises, then
    compares the conclusion's type, context and counters with the node's."""
    tag, conclude, fits, former, k, parts, rest, node, delta, weight = (
        rule.tag, rule.conclude, rule.fits, rule.former, rule.fixed, rule.parts, rule.rest,
        rule.node, rule.delta, rule.weight)

    tail = rest and _TAIL[former].format(tag)

    def conclusion(t: Term, ty: Type | None, premises: tuple) -> tuple:
        if not fits(t, len(premises)):
            raise IllFormed(rule.shape)
        for p, part in zip(premises, parts):
            part = getattr(t, part)
            if p.subject is not part and not term_eq(p.subject, part):
                raise IllFormed(rule.subjects)
        if len(premises) > k:
            part = getattr(t, rest)
            for p in premises[k:]:
                if p.subject is not part and not term_eq(p.subject, part):
                    raise IllFormed(tail)
        return conclude(tag, t, ty, premises)

    if delta is not None:  # the premises' counters and the rule's own
        def remake(t, ty, premises):
            context, ty, ps = conclusion(t, ty, premises)
            return node(tag, context, t, ty, add_counters(delta, ps), ps)
    else:
        attr = "_size_" + system

        def remake(t, ty, premises):
            # the node's size in `system` (see `sizer`) from its weight and
            # its premises' sizes, which they keep, or a walk for one read
            context, ty, ps = conclusion(t, ty, premises)
            d = node(tag, context, t, ty, ps)
            n = len(ty) if weight is None else weight
            for p in ps:
                m = getattr(p, attr, None)
                n += _walk_size(p, system) if m is None else m
            setattr(d, attr, n)
            return d

    bound, untyped = former is Abs or former is Sub, CHILDREN[former][k:]

    def make(*args):
        if former is Var:
            return remake(Var(args[0]), args[1], ())
        fields = {"binder": args[0]} if bound else {}
        args = args[bound:]
        premises = args[:k]
        fields.update(zip(parts, (p.subject for p in premises)))
        if untyped:
            fields[untyped[0]] = args[k]
            premises += tuple(args[k + 1]) if len(args) > k + 1 else ()
        return remake(former(**fields), None, premises)

    type_reason = rule.type if callable(rule.type) else lambda d: rule.type

    def check(d) -> str | None:
        try:
            context, ty, premises = conclusion(d.subject, d.type, d.premises)
        except IllFormed as ex:
            return str(ex)
        if ty is not d.type and ty != d.type:
            return type_reason(d)
        if context != d.context:
            return rule.context
        if delta is not None:
            for p in premises:
                if type(p) is not node:  # reported when the walk reaches it
                    return None
            if add_counters(delta, premises) != d.counters:
                return rule.counters
        return None
    return remake, make, check


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


def ax(tag: str, t: Var, ty: Type, ps: tuple) -> tuple:
    return {t.name: Mult((ty,))}, ty, ps


def app(tag: str, t: App, ty, ps: tuple) -> tuple:
    d_f, d_a = ps
    if not isinstance(d_f.type, Arrow):
        raise IllFormed(f"{tag} function premise must have an arrow type")
    if d_a.type != d_f.type.domain:
        raise IllFormed(f"{tag} argument premise must match the arrow domain")
    return ctx_union(d_f.context, d_a.context), d_f.type.codomain, ps


def abs_(tag: str, t: Abs, ty, ps: tuple) -> tuple:
    d_b, x = ps[0], t.binder
    return ctx_remove(d_b.context, x), Arrow(ctx_get(d_b.context, x), d_b.type), ps


def bg(tag: str, t: Bang, ty, ps: tuple) -> tuple:
    # stably sorted by type, so their types make a multiset as they stand;
    # keyed only when out of order
    if len(ps) > 1 and not is_sorted([p.type for p in ps]):
        ps = tuple(sorted(ps, key=lambda p: sort_key(p.type)))
    return ctx_union(*(p.context for p in ps)), Mult(tuple(p.type for p in ps)), ps


def dr(tag: str, t: Der, ty, ps: tuple) -> tuple:
    d_b = ps[0]
    if not isinstance(d_b.type, Mult) or len(d_b.type) != 1:
        raise IllFormed(f"{tag} premise must be the singleton of the conclusion type")
    return d_b.context, d_b.type.elements[0], ps


def es(tag: str, t: Sub, ty, ps: tuple) -> tuple:
    if ps[1].type != ctx_get(ps[0].context, t.binder):
        raise IllFormed(f"{tag} argument premise must be typed with the binder multiset")
    return close(t.binder, ps)


def close(x: str, ps: tuple) -> tuple:
    """The conclusion of a closure rule over its body's and its argument's
    premises: the body's type, x's entry dropped."""
    d_b, d_a = ps
    return ctx_union(ctx_remove(d_b.context, x), d_a.context), d_b.type, ps


# the parts of a subject that a rule's fixed premises type, in order
PARTS = {**CHILDREN, Bang: ()}

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
# A variadic rule's reason for a further premise that types another term, by former
_TAIL = {Bang: "{} premise subjects must be the bang body",
         App: "{} argument premises must type the argument",
         Sub: "{} argument premises must type the argument",
         Abs: "{} premises must type the body"}


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


def fitting_rule(d, expected: Rule | type, reason: str, error: type = IllFormed) -> Rule:
    """d's rule in the engine's table for d's class, if it is `expected`, or
    a rule for the term former `expected`, and it fits d (`Rule.fits`); else
    `error(reason)`, with d's tag for any `{}` in the reason.  The engine and
    the read-back take a node's premises apart by position only after it."""
    rule = ENGINE[type(d)].get(d.rule)
    if (rule is None or rule is not expected and rule.former is not expected
            or not rule.fits(d.subject, len(d.premises))):
        raise error(reason.format(d.rule))
    return rule


def unbang(d, reason: str):
    """The one premise of d, a unary consuming bang; IllFormed(reason) if d
    is not one."""
    fitting_rule(d, CONSUMING_RULE[type(d), Bang], reason)
    if len(d.premises) != 1:
        raise IllFormed(reason)
    return d.premises[0]


# ---------------------------------------------------------------------------
# Checking

@dataclass(frozen=True)
class Violation:
    path: tuple[int, ...]
    reason: str


def check_derivation(d, system: str) -> Violation | None:
    """The first node of d, in pre-order, that breaks the rules of `system`,
    with the path of premise indices that leads to it.  The prelude checks
    a node's class, empty context entries and, without counters, tight
    constants, looked for once in each type object; then its rule's check."""
    rules = RULES[system]
    cls = next(iter(rules.values())).node
    memo: dict[int, tuple[Type, bool]] | None = {} if cls is Derivation else None
    wrong_class = f"system {system.upper()} nodes must {'not ' * (memo is not None)}carry counters"
    stack: list = [(d, None)]  # a node and its link: its index and its parent's link
    push = stack.append
    while stack:
        node, link = stack.pop()
        if type(node) is not cls:
            reason = wrong_class
        else:
            for m in node.context.values():
                if not m.elements:
                    reason = "context stores an empty multiset entry"
                    break
            else:
                tight = False
                if memo is not None:  # most types were looked into at another node
                    for t in (node.type, *node.context.values()):
                        hit = memo.get(id(t))
                        if has_tight_constants(t, memo) if hit is None else hit[1]:
                            tight = True
                            break
                if tight:
                    reason = "tight constants do not belong to this system"
                else:
                    rule = rules.get(node.rule) if isinstance(node.rule, str) else None
                    reason = f"unknown rule {node.rule!r}" if rule is None else rule.check(node)
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


def check_derivation_u(d: Derivation) -> Violation | None:
    return check_derivation(d, "u")


def sizer(system: str) -> Callable[[Any], int]:
    """The size function of `system`: the sum of a derivation's node
    weights, each given by the node's rule in `system` (1 for a rule it
    does not have).  A node keeps it in its slot for the system: the
    system's remakes set it, and a node built otherwise, as one read from
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
    """How a system types weak clash-free normal forms: the remake of its
    rule for each former, and the type it hands down to a neutral subterm
    (given here as U's; E hands down n to every one), tau being the node's
    own target, which only the variable's rule reads."""
    rules: dict[type, Callable[..., Any]]
    top: Type                            # at the top, and in an nb position
    arg: Type                            # in an na position
    head: Callable[[Any, Type], Type]    # to a head, by its argument's derivation and tau
    der: Callable[[Type], Type]          # to a dereliction's body, by tau
    closure: Callable[[Any, str], Type]  # to a closure's argument, by its body's derivation
                                         # and the binder


U_TYPING = NfTyping({r.former: r.remake for r in RULES["u"].values()},
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
    level, which covers every closure over one.  Each node is remade along
    t's own subterm.  `memo` keeps each subterm's class."""
    if level == "nf":
        cls = classify_wcf_nf(t, memo)
        if not cls.memberships:
            raise NotTypableNormalForm("{} is not a weak clash-free normal form", t)
        if not cls.ne and tau is not None:
            raise NotTypableNormalForm("only neutral terms accept a target type")
        level = "ne" if cls.ne else "na" if cls.na else "nb"
        tau = typing.top if tau is None else tau
    elif level != "ne" and classify_wcf_nf(t, memo).ne:
        level, tau = "ne", typing.arg if level == "na" else typing.top
    former, ps = type(t), ()
    if former is Sub:
        d_b = yield type_nf(t.body, level, tau, typing, memo)
        ps = d_b, (yield type_nf(t.arg, "ne", typing.closure(d_b, t.binder), typing, memo))
    elif former is App and level == "ne":
        d_a = yield type_nf(t.arg, "na", None, typing, memo)
        ps = (yield type_nf(t.fun, "ne", typing.head(d_a, tau), typing, memo)), d_a
    elif former is Der and level == "ne":
        ps = ((yield type_nf(t.body, "ne", typing.der(tau), typing, memo)),)
    elif former is Abs and level == "nb":
        ps = ((yield type_nf(t.body, "nf", None, typing, memo)),)
    elif not (former is Var and level == "ne" or former is Bang and level == "na"):
        raise NotTypableNormalForm("{}", t)
    return typing.rules[former](t, tau, ps)


# ---------------------------------------------------------------------------
# Renaming and substitution inside derivations
#
# Every name comes from a term the term engine built: a walk follows that
# term and remakes each node it changes along the term's own subterm, so
# every rebuilt node's subject is that term's object, binder names
# included.  One walk renames and substitutes, along a renamed term or
# along `subst_meta`'s result; anti-substitution walks the other way on the
# same premise loop, from an instance back to the term.  Each is a walk on
# `syntax.unwind`, and yields a sub-walk only for a part it may change.

_UNFIT = "rule {!r} does not fit its node"
_NOT_INSTANCE = "subject is not the stated substitution instance"
_OTHER_FORMER = "subject former differs from the term it is rebuilt along"


def rebuild_as(d, t: Term, x: str | None = None, pool: list | None = None) -> Walk:
    """The walk of d rebuilt along t, a term of the shape of d's subject
    whose free names and binders may differ; or, given x and `pool`, along
    t = subst_meta(d.subject, x, u), where each axiom for a free x takes
    the first derivation in `pool` of its type, rebuilt along u, axioms
    taken in the order of the walk (pre-order, a node's premises in
    order).  A premise whose subject is t's own part, with no x free in
    it, is kept: an occurrence of x that is u's own object is still
    substituted.  Every other node is remade by its own rule along t."""
    s = d.subject
    cls = type(s)
    if cls is Var and s.name == x:
        for i, p in enumerate(pool):
            if p.type == d.type:
                return (yield rebuild_as(pool.pop(i), t))
        raise IllFormed("no argument derivation left for an axiom occurrence")
    if s is t:
        return d
    if type(t) is not cls:
        raise IllFormed(_OTHER_FORMER)
    rule = fitting_rule(d, cls, _UNFIT)
    # no x is free below a binder x, though the walk may enter its body
    inner = None if (cls is Abs or cls is Sub) and s.binder == x else x
    new = []
    for p, attr in zip(d.premises, rule.premise_parts(len(d.premises))):
        part, y = getattr(t, attr), inner if attr == "body" else x
        new.append(p if p.subject is part and (y is None or y not in free_vars(part)) else
                   (yield rebuild_as(p, part, y, pool)))
    return rule.remake(t, d.type, tuple(new))


def along(d, t: Term):
    """d rebuilt along t (see `rebuild_as`): d itself if its subject is t."""
    return unwind(rebuild_as(d, t))


def antisubst_derivation(d, t: Term, x: str, u: Term) -> tuple[Any, list]:
    """Invert substitution: from a derivation of t{x:=u}, recover a
    derivation of t (with x recorded in its context) plus one derivation
    of u per typed occurrence of x."""
    if not term_eq(d.subject, subst_meta(t, x, u)):
        raise IllFormed(_NOT_INSTANCE)
    us: list = []
    return (unwind(_antisubst(d, t, x, us)) if x in free_vars(t) else d), us


def _antisubst(d, t: Term, x: str, us: list) -> Walk:
    """The walk of antisubst_derivation for a t with x free, which appends
    the derivation each axiom for x takes the place of to `us`, in the
    order of the walk, and remakes each node along t.  A part of t without
    x free, or under a binder x, keeps its premise as it stands; a body
    whose binder subst_meta refreshed is walked along the refreshed body,
    then rebuilt along t's."""
    cls = type(t)
    if cls is Var:
        us.append(d)
        return CONSUMING_RULE[type(d), Var].remake(t, d.type, ())
    rule, ps = fitting_rule(d, cls, _NOT_INSTANCE), d.premises
    y = t.binder if cls is Abs or cls is Sub else None
    new = []
    for p, attr in zip(ps, rule.premise_parts(len(ps))):
        part = getattr(t, attr)
        if x not in free_vars(part) or attr == "body" and y == x:
            new.append(p)
        elif attr == "body" and y is not None and d.subject.binder != y:
            p = yield _antisubst(p, subst_meta(part, y, Var(d.subject.binder)), x, us)
            new.append((yield rebuild_as(p, part)))
        else:
            new.append((yield _antisubst(p, part, x, us)))
    return rule.remake(t, d.type, tuple(new))


# ---------------------------------------------------------------------------
# Subject reduction / expansion

# selector -> the former of the node it enters, the index of the premise
# that types the part it selects, that part, and the refusal of a node
# that does not fit
_STEPS = {sel: (former, PARTS[former].index(attr), attr,
                f"position step {sel} does not match rule {{}}")
          for sel, (former, attr, _) in SELECTORS.items()}


def _at(d, pos: Position, fire: Callable[[Any], Any], t: Term | None = None):
    """d with fire(node) in place of its node at pos, the nodes above
    remade along t, the term d types; with no t, along the term that
    `reduction.SELECTORS` builds around the new node's subject (the
    reduct, as the term engine builds it)."""
    above = []
    for sel in pos:
        former, idx, attr, reason = _STEPS[sel]
        above.append((d, idx, fitting_rule(d, former, reason), t, sel))
        d = d.premises[idx]
        if t is not None:
            t = getattr(t, attr)
    d = fire(d)
    for node, idx, rule, s, sel in reversed(above):
        ps = list(node.premises)
        ps[idx] = d
        d = rule.remake(SELECTORS[sel][2](node.subject, d.subject) if s is None else s, None,
                        tuple(ps))
    return d


def reduce_derivation(d, step: tuple[Position, RuleKind]):
    """A derivation of the reduct across the given redex, built rule by
    rule; `subject_reduction` checks how the judgement and the measure move."""
    pos, kind = step
    return _at(d, pos, lambda node: _fire(node, kind))


def subject_reduction(d, step: tuple[Position, RuleKind]):
    """The paper's subject reduction across the given redex (see `_theorem`)."""
    return _theorem(d, reduce_derivation(d, step), step[1], -1, "reduction")


def subject_expansion(d, t: Term, step: tuple[Position, RuleKind]):
    """The paper's subject expansion to t, whose reduct d types (see `_theorem`)."""
    return _theorem(d, expand_derivation(d, t, step), step[1], 1, "expansion")


def _theorem(d, out, kind: RuleKind, sign: int, direction: str):
    """out, the engine's transform of d across a step of `kind`, if it has
    d's judgement and d's measure moved by `sign` as the step theorem of d's
    system says: in U the size, strictly; in E the counter of the step's
    kind (b for dB, e for s! and d!), by exactly one, and no other."""
    if isinstance(d, Derivation):
        moved = (size_u(out) - size_u(d)) * sign > 0
    else:
        b, e, s = d.counters
        moved = out.counters == ((b + sign, e, s) if kind.multiplicative else (b, e + sign, s))
    if not moved or out.type != d.type or out.context != d.context:
        raise IllFormed(f"subject {direction} did not keep the judgement and move the measure")
    return out


def fire_spine_d(d, avoid: frozenset[str], at_core: Callable[[Any], Any]):
    """reduction.fire_spine on derivations: d types L<c>; the result types
    L<c'> with at_core giving the derivation of c', and the binders of L
    that are in `avoid` refreshed as fire_spine refreshes them."""
    if avoid:
        d = along(d, fire_spine(d.subject, avoid, lambda c: c))
    return on_spine(d, d.subject, at_core)[0]


def on_spine(d, spine: Term, at_core: Callable[[Any], Any]) -> tuple[Any, Any]:
    """(d', e): e is the node of d under its first closure nodes, one for
    each closure of the maximal closure spine of `spine`, and d' is
    at_core(e) wrapped in those nodes again, each remade by its own rule
    along spine's closure at its level, or along one of its binder and
    argument over the new body if that is another term.  An argument
    premise is rebuilt along the argument, which renames back what a
    firing refreshed when expansion follows the pre-step term."""
    peeled, s = [], spine
    while type(s) is Sub:
        peeled.append((d, s, fitting_rule(d, Sub, "closure spine shorter than the redex spine")))
        d, s = d.premises[0], s.body
    core, d = d, at_core(d)
    for node, s, rule in reversed(peeled):
        if s.body is not d.subject:
            s = Sub(d.subject, s.binder, s.arg)
        d = rule.remake(s, None, (d, along(node.premises[1], s.arg)))
    return d, core


def _fire(d, kind: RuleKind):
    cls = type(d)
    if kind is RuleKind.DB:
        closure = fitting_rule(d, App, "dB redex must be typed by an application rule").closure
        close, d_u, lam = ENGINE[cls][closure].remake, d.premises[1], CONSUMING_RULE[cls, Abs]

        def at_abs(f_d):
            fitting_rule(f_d, lam, "dB function must be a consuming abstraction under closures")
            f = f_d.subject
            return close(Sub(f.body, f.binder, d_u.subject), None, (f_d.premises[0], d_u))

        return fire_spine_d(d.premises[0], free_vars(d_u.subject), at_abs)

    if kind is RuleKind.SBANG:
        fitting_rule(d, CONSUMING_RULE[cls, Sub],
                     "s! redex must be typed by the consuming closure rule")
        x, (d_body, d_arg), bang = d.subject.binder, d.premises, CONSUMING_RULE[cls, Bang]

        def at_bang(a_d):
            fitting_rule(a_d, bang, "s! argument must be a consuming bang under closures")
            pool = list(a_d.premises)
            t = subst_meta(d_body.subject, x, a_d.subject.body)
            out = unwind(rebuild_as(d_body, t, x, pool))
            if pool:
                raise IllFormed("s! argument has a premise that no axiom occurrence takes")
            return out

        return fire_spine_d(d_arg, free_vars(d_body.subject) - {x}, at_bang)

    if kind is RuleKind.DBANG:
        fitting_rule(d, CONSUMING_RULE[cls, Der],
                     "d! redex must be typed by the consuming dereliction rule")
        reason = "d! body must be a unary consuming bang under closures"
        return fire_spine_d(d.premises[0], frozenset(), lambda b_d: unbang(b_d, reason))

    raise IllFormed(f"{kind} is not a bang-calculus rule")


def expand_derivation(d, t: Term, step: tuple[Position, RuleKind]):
    """A derivation of t from one of its reduct across the given redex,
    built rule by rule along t, so its subject is t itself;
    `subject_expansion` checks how the judgement and the measure move."""
    pos, kind = step
    s = subterm_at(t, pos)
    out = _at(d, pos, lambda node: _expand(node, s, kind), t)
    if out.subject is not t and not term_eq(out.subject, t):
        raise IllFormed("expansion did not rebuild the stated term")
    return out


def _expand(d, t: Term, kind: RuleKind):
    fires = W_RULES.get(type(t))
    if fires is None or fires(t) is not kind:
        raise IllFormed(f"{kind} step does not fit the term at its position")
    cls, bang = type(d), CONSUMING_RULE[type(d), Bang].remake
    if kind is RuleKind.DB:
        f = spine_core(t.fun)

        def to_abs(c):
            fitting_rule(c, Sub, "dB reduct core must be a closure node")
            return CONSUMING_RULE[cls, Abs].remake(f, None, (along(c.premises[0], f.body),))

        fun, closure = on_spine(d, t.fun, to_abs)
        return APPLICATION_RULE[cls, closure.rule].remake(t, None, (fun, closure.premises[1]))

    if kind is RuleKind.SBANG:
        # the reduct's closures have the binders of the fired spine
        fired, s = t.arg, d.subject
        if isinstance(fired, Sub):
            fired = fire_spine(fired, free_vars(t.body) - {t.binder}, lambda b: b)
        while isinstance(fired, Sub):
            if not isinstance(s, Sub) or s.binder != fired.binder:
                raise IllFormed("reduct spine does not match the fired closure spine")
            fired, s = fired.body, s.body
        b, d_s = spine_core(t.arg), None

        def rebang(c):
            nonlocal d_s
            d_us: list = []
            d_s = (unwind(_antisubst(c, t.body, t.binder, d_us))
                   if t.binder in free_vars(t.body) else c)
            return bang(b, None, tuple(along(p, b.body) for p in d_us))

        arg, _ = on_spine(d, t.arg, rebang)
        return CONSUMING_RULE[cls, Sub].remake(t, None, (d_s, arg))

    # d!, the one kind the check above leaves
    b = spine_core(t.body)
    arg, _ = on_spine(d, t.body, lambda c: bang(b, None, (along(c, b.body),)))
    return CONSUMING_RULE[cls, Der].remake(t, None, (arg,))


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


def replay(d, trace: Trace):
    """Expand d back along the trace by subject expansion.  Each step
    remakes what it changes along its trace term, which shares the rest
    with the next one, so every step's subject check finds the term itself."""
    terms = [trace.start] + [s.result for s in trace.steps]
    for i in range(len(trace.steps) - 1, -1, -1):
        d = subject_expansion(d, terms[i], (trace.steps[i].position, trace.steps[i].rule))
    return d


def infer_u(t: Term, fuel: int) -> Derivation | Untypable | FuelExhausted:
    """A plain derivation of t, by normalize-then-expand."""
    return infer_with(t, fuel, type_normal_form_u, replay_expansion_u)


replay_expansion_u = replay  # the name `infer_u` replays by, for bench/tracer.py's span
