"""The tight type system with counters.

Judgements carry a triple (b, e, s): multiplicative steps, exponential
steps, and normal-form size.  Rules split into consuming ones (ax, ae_d,
ai_d, bg_d, dr_d, es_d), which pay into b/e, and persistent ones (ae_t,
ai_t, bg_t, dr_t, es_t), which pay into s.

Two persistent rules are slightly wider than the usual presentation,
which cannot type redexes whose dB step creates a substitution that
survives to the normal form (e.g. (\\x.x) y):

  * es_t allows any subject type, not only a tight constant;
  * ae_t has a second shape: function typed M -> sigma with tight M,
    argument typed n, conclusion sigma, still paying 1 into s.

Exact subject reduction maps the second ae_t shape to es_t across the dB
step and back, which is what forces both generalizations.

The consuming rules are U's rules with counters added, so renaming,
substitution and subject reduction/expansion are system_u's engine: this
module registers its rules into the engine's tables and adds the exact
counter post-conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Abs, App, Bang, Der, Sub, Term, Var, print_term, w_size
from .reduction import (
    Position, RuleKind, FuelExhausted, Trace, classify_nf, classify_wcf_nf,
)
from .qtypes import (
    Arrow, Context, Mult, Tight, Type,
    TIGHT_ABS, TIGHT_BANG, TIGHT_NEUTRAL,
    ctx_get, ctx_is_tight, ctx_remove, ctx_union, is_tight_mult, mult, print_type,
)
from .system_u import (
    Untypable, Violation, IllFormed, NotTypableNormalForm,
    antisubst_derivation, check_with, expand_derivation, infer_with,
    reduce_derivation, register, replay, sort_by_type, subst_derivation,
)

Counters = tuple[int, int, int]


@dataclass(frozen=True)
class DerivationE:
    rule: str
    context: Context
    subject: Term
    type: Type
    counters: Counters
    premises: tuple["DerivationE", ...] = ()

    @property
    def b(self) -> int:
        return self.counters[0]

    @property
    def e(self) -> int:
        return self.counters[1]

    @property
    def s(self) -> int:
        return self.counters[2]

    def judgement(self) -> str:
        ctx = ", ".join(f"{x}:{print_type(m)}" for x, m in sorted(self.context.items()))
        b, e, s = self.counters
        return f"{ctx} |-({b},{e},{s}) {print_term(self.subject)} : {print_type(self.type)}"


def _add(*cs: Counters) -> Counters:
    return (sum(c[0] for c in cs), sum(c[1] for c in cs), sum(c[2] for c in cs))


# ---------------------------------------------------------------------------
# Node constructors

def mk_ax_e(x: str, ty: Type) -> DerivationE:
    return DerivationE("ax", {x: mult([ty])}, Var(x), ty, (0, 0, 0))


def mk_ae_d(d_f: DerivationE, d_a: DerivationE) -> DerivationE:
    if not isinstance(d_f.type, Arrow) or d_a.type != d_f.type.domain:
        raise IllFormed("ae_d needs an arrow function and a matching argument")
    return DerivationE("ae_d", ctx_union(d_f.context, d_a.context),
                       App(d_f.subject, d_a.subject), d_f.type.codomain,
                       _add(d_f.counters, d_a.counters), (d_f, d_a))


def mk_ai_d(x: str, d_b: DerivationE) -> DerivationE:
    b, e, s = d_b.counters
    return DerivationE("ai_d", ctx_remove(d_b.context, x), Abs(x, d_b.subject),
                       Arrow(ctx_get(d_b.context, x), d_b.type), (b + 1, e, s), (d_b,))


def mk_bg_d(body: Term, premises: tuple[DerivationE, ...]) -> DerivationE:
    for p in premises:
        if p.subject != body:
            raise IllFormed("bg_d premises must all type the bang body")
    # sorted by type, so their types make a multiset as they stand
    premises = sort_by_type(premises)
    b, e, s = _add(*(p.counters for p in premises)) if premises else (0, 0, 0)
    return DerivationE("bg_d", ctx_union(*(p.context for p in premises)), Bang(body),
                       Mult(tuple(p.type for p in premises)), (b, e + 1, s), premises)


def mk_dr_d(d_b: DerivationE) -> DerivationE:
    if not isinstance(d_b.type, Mult) or len(d_b.type) != 1:
        raise IllFormed("dr_d premise must have a singleton multiset type")
    return DerivationE("dr_d", d_b.context, Der(d_b.subject), d_b.type.elements[0],
                       d_b.counters, (d_b,))


def mk_es_d(x: str, d_b: DerivationE, d_a: DerivationE) -> DerivationE:
    if d_a.type != ctx_get(d_b.context, x):
        raise IllFormed("es_d argument type must equal the multiset of the bound name")
    return DerivationE("es_d", ctx_union(ctx_remove(d_b.context, x), d_a.context),
                       Sub(d_b.subject, x, d_a.subject), d_b.type,
                       _add(d_b.counters, d_a.counters), (d_b, d_a))


def mk_ae_t(d_f: DerivationE, d_a: DerivationE) -> DerivationE:
    if d_f.type == TIGHT_NEUTRAL:
        if d_a.type not in (TIGHT_BANG, TIGHT_NEUTRAL):
            raise IllFormed("ae_t argument must be tight and different from a")
        result: Type = TIGHT_NEUTRAL
    elif isinstance(d_f.type, Arrow) and is_tight_mult(d_f.type.domain):
        if d_a.type != TIGHT_NEUTRAL:
            raise IllFormed("ae_t over an arrow needs an n-typed argument")
        result = d_f.type.codomain
    else:
        raise IllFormed("ae_t function must be typed n or with a tight-domain arrow")
    b, e, s = _add(d_f.counters, d_a.counters)
    return DerivationE("ae_t", ctx_union(d_f.context, d_a.context),
                       App(d_f.subject, d_a.subject), result, (b, e, s + 1), (d_f, d_a))


def mk_ai_t(x: str, d_b: DerivationE) -> DerivationE:
    if not isinstance(d_b.type, Tight):
        raise IllFormed("ai_t body must have a tight constant type")
    if not is_tight_mult(ctx_get(d_b.context, x)):
        raise IllFormed("ai_t requires a tight multiset for the binder")
    b, e, s = d_b.counters
    return DerivationE("ai_t", ctx_remove(d_b.context, x), Abs(x, d_b.subject),
                       TIGHT_ABS, (b, e, s + 1), (d_b,))


def mk_bg_t(body: Term, premises: tuple[DerivationE, ...] = ()) -> DerivationE:
    if premises:
        raise IllFormed("bg_t has no premises")
    return DerivationE("bg_t", {}, Bang(body), TIGHT_BANG, (0, 0, 0))


def mk_dr_t(d_b: DerivationE) -> DerivationE:
    if d_b.type != TIGHT_NEUTRAL:
        raise IllFormed("dr_t premise must be typed n")
    b, e, s = d_b.counters
    return DerivationE("dr_t", d_b.context, Der(d_b.subject), TIGHT_NEUTRAL,
                       (b, e, s + 1), (d_b,))


def mk_es_t(x: str, d_b: DerivationE, d_a: DerivationE) -> DerivationE:
    if d_a.type != TIGHT_NEUTRAL:
        raise IllFormed("es_t argument must be typed n")
    if not is_tight_mult(ctx_get(d_b.context, x)):
        raise IllFormed("es_t requires a tight multiset for the binder")
    b, e, s = _add(d_b.counters, d_a.counters)
    return DerivationE("es_t", ctx_union(ctx_remove(d_b.context, x), d_a.context),
                       Sub(d_b.subject, x, d_a.subject), d_b.type, (b, e, s + 1), (d_b, d_a))


register(DerivationE,
         {Var: ("ax", mk_ax_e), App: ("ae_d", mk_ae_d), Abs: ("ai_d", mk_ai_d),
          Bang: ("bg_d", mk_bg_d), Der: ("dr_d", mk_dr_d), Sub: ("es_d", mk_es_d)},
         {"ae_t": mk_ae_t, "ai_t": mk_ai_t, "bg_t": mk_bg_t, "dr_t": mk_dr_t, "es_t": mk_es_t},
         {"ae_d": "es_d", "ae_t": "es_t"})


# ---------------------------------------------------------------------------
# Checking

def _check_node_e(d: DerivationE) -> str | None:
    if not isinstance(d, DerivationE):
        return "system E nodes must carry counters"
    for m in d.context.values():
        if not m.elements:
            return "context stores an empty multiset entry"
    ps = d.premises
    own = d.counters
    match d.rule:
        case "ax":
            if not isinstance(d.subject, Var) or ps:
                return "ax must type a variable with no premises"
            if d.context != {d.subject.name: mult([d.type])}:
                return "ax context must be exactly the singleton for its variable"
            if own != (0, 0, 0):
                return "ax counters must be zero"
        case "ae_d" | "ae_t":
            if not isinstance(d.subject, App) or len(ps) != 2:
                return "application rules need two premises on an application"
            f, a = ps
            if f.subject != d.subject.fun or a.subject != d.subject.arg:
                return "application premise subjects must be the parts"
            if d.context != ctx_union(f.context, a.context):
                return "application context must be the union of the premise contexts"
            if d.rule == "ae_d":
                if not isinstance(f.type, Arrow):
                    return "ae_d function premise must have an arrow type"
                if a.type != f.type.domain:
                    return "ae_d argument premise must match the arrow domain"
                if d.type != f.type.codomain:
                    return "ae_d conclusion must be the arrow codomain"
                if own != _add(f.counters, a.counters):
                    return "ae_d counters must add the premise counters"
            else:
                if f.type == TIGHT_NEUTRAL:
                    if a.type not in (TIGHT_BANG, TIGHT_NEUTRAL):
                        return "ae_t argument must be a tight constant different from a"
                    if d.type != TIGHT_NEUTRAL:
                        return "ae_t conclusion must be n"
                elif isinstance(f.type, Arrow) and is_tight_mult(f.type.domain):
                    if a.type != TIGHT_NEUTRAL:
                        return "ae_t over an arrow needs an n-typed argument"
                    if d.type != f.type.codomain:
                        return "ae_t conclusion must be the arrow codomain"
                else:
                    return "ae_t function must be typed n or with a tight-domain arrow"
                bb, ee, ss = _add(f.counters, a.counters)
                if own != (bb, ee, ss + 1):
                    return "ae_t must add exactly one to the size counter"
        case "ai_d" | "ai_t":
            if not isinstance(d.subject, Abs) or len(ps) != 1:
                return "abstraction rules need one premise on an abstraction"
            (p,) = ps
            if p.subject != d.subject.body:
                return "abstraction premise subject must be the body"
            x = d.subject.binder
            if d.context != ctx_remove(p.context, x):
                return "abstraction context must drop the binder"
            if d.rule == "ai_d":
                if d.type != Arrow(ctx_get(p.context, x), p.type):
                    return "ai_d conclusion must move the binder multiset into the arrow"
                if own != (p.b + 1, p.e, p.s):
                    return "ai_d must add exactly one to the multiplicative counter"
            else:
                if not isinstance(p.type, Tight):
                    return "ai_t body must have a tight constant type"
                if not is_tight_mult(ctx_get(p.context, x)):
                    return "ai_t requires a tight multiset for the binder"
                if d.type != TIGHT_ABS:
                    return "ai_t conclusion must be a"
                if own != (p.b, p.e, p.s + 1):
                    return "ai_t must add exactly one to the size counter"
        case "bg_d":
            if not isinstance(d.subject, Bang):
                return "bg_d must type a bang"
            for p in ps:
                if p.subject != d.subject.body:
                    return "bg_d premise subjects must be the bang body"
            if d.type != mult(p.type for p in ps):
                return "bg_d conclusion must collect the premise types"
            if d.context != ctx_union(*(p.context for p in ps)):
                return "bg_d context must be the union of the premise contexts"
            bb, ee, ss = _add(*(p.counters for p in ps)) if ps else (0, 0, 0)
            if own != (bb, ee + 1, ss):
                return "bg_d must add exactly one to the exponential counter"
        case "bg_t":
            if not isinstance(d.subject, Bang) or ps:
                return "bg_t must type a bang with no premises"
            if d.context or d.type != TIGHT_BANG or own != (0, 0, 0):
                return "bg_t must conclude b with empty context and zero counters"
        case "dr_d" | "dr_t":
            if not isinstance(d.subject, Der) or len(ps) != 1:
                return "dereliction rules need one premise on a dereliction"
            (p,) = ps
            if p.subject != d.subject.body:
                return "dereliction premise subject must be the body"
            if d.context != p.context:
                return "dereliction must not change the context"
            if d.rule == "dr_d":
                if not isinstance(p.type, Mult) or len(p.type) != 1 or p.type.elements[0] != d.type:
                    return "dr_d premise must be the singleton of the conclusion type"
                if own != p.counters:
                    return "dr_d counters must copy the premise counters"
            else:
                if p.type != TIGHT_NEUTRAL or d.type != TIGHT_NEUTRAL:
                    return "dr_t premise and conclusion must be typed n"
                if own != (p.b, p.e, p.s + 1):
                    return "dr_t must add exactly one to the size counter"
        case "es_d" | "es_t":
            if not isinstance(d.subject, Sub) or len(ps) != 2:
                return "closure rules need two premises on a closure"
            bprem, aprem = ps
            if bprem.subject != d.subject.body or aprem.subject != d.subject.arg:
                return "closure premise subjects must be the parts"
            x = d.subject.binder
            if d.context != ctx_union(ctx_remove(bprem.context, x), aprem.context):
                return "closure context must recombine the premise contexts"
            if d.type != bprem.type:
                return "closure conclusion must keep the body type"
            if d.rule == "es_d":
                if aprem.type != ctx_get(bprem.context, x):
                    return "es_d argument premise must be typed with the binder multiset"
                if own != _add(bprem.counters, aprem.counters):
                    return "es_d counters must add the premise counters"
            else:
                if aprem.type != TIGHT_NEUTRAL:
                    return "es_t argument must be typed n"
                if not is_tight_mult(ctx_get(bprem.context, x)):
                    return "es_t requires a tight multiset for the binder"
                bb, ee, ss = _add(bprem.counters, aprem.counters)
                if own != (bb, ee, ss + 1):
                    return "es_t must add exactly one to the size counter"
        case _:
            return f"unknown rule {d.rule!r}"
    return None


def check_derivation_e(d: DerivationE) -> Violation | None:
    return check_with(_check_node_e, d)


def is_tight(d: DerivationE) -> bool:
    return ctx_is_tight(d.context) and isinstance(d.type, Tight)


def tight_spreading_check(d: DerivationE) -> bool:
    """The spreading implication at the root: a neutral subject or zero
    step counters force a tight conclusion under a tight context."""
    if (classify_nf(d.subject).ne or (d.b == 0 and d.e == 0)) and ctx_is_tight(d.context):
        return isinstance(d.type, Tight)
    return True


# ---------------------------------------------------------------------------
# Constructive tight typing of wcf normal forms

def type_normal_form_tight(t: Term) -> DerivationE:
    """The all-persistent tight derivation of a wcf normal form; its
    counters are exactly (0, 0, w_size)."""
    cls = classify_wcf_nf(t)
    if not cls.memberships:
        raise NotTypableNormalForm(f"{print_term(t)} is not a weak clash-free normal form")
    if cls.ne:
        d = _tight_ne(t)
    elif cls.na:
        d = _tight_arg(t)
    else:
        d = _tight_nb(t)
    assert d.counters == (0, 0, w_size(t))
    return d


def _tight_ne(t: Term) -> DerivationE:
    match t:
        case Var(x):
            return mk_ax_e(x, TIGHT_NEUTRAL)
        case App(f, a):
            return mk_ae_t(_tight_ne(f), _tight_arg(a))
        case Der(b):
            return mk_dr_t(_tight_ne(b))
        case Sub(b, x, a):
            return mk_es_t(x, _tight_ne(b), _tight_ne(a))
    raise NotTypableNormalForm(print_term(t))


def _tight_arg(t: Term) -> DerivationE:
    """Neutral-abs terms: bang-shaped ones get b, neutral ones get n."""
    if classify_wcf_nf(t).ne:
        return _tight_ne(t)
    match t:
        case Bang(b):
            return mk_bg_t(b)
        case Sub(b, x, a):
            return mk_es_t(x, _tight_arg(b), _tight_ne(a))
    raise NotTypableNormalForm(print_term(t))


def _tight_nb(t: Term) -> DerivationE:
    if classify_wcf_nf(t).ne:
        return _tight_ne(t)
    match t:
        case Abs(x, b):
            return mk_ai_t(x, type_normal_form_tight(b))
        case Sub(b, x, a):
            return mk_es_t(x, _tight_nb(b), _tight_ne(a))
    raise NotTypableNormalForm(print_term(t))


# ---------------------------------------------------------------------------
# Exact subject reduction / expansion (dw steps), on the shared engine

def reduce_derivation_e(d: DerivationE, step: tuple[Position, RuleKind]) -> DerivationE:
    """Exact subject reduction: a dB step lowers b by one, an s!/d! step
    lowers e by one; the size counter never moves."""
    out = reduce_derivation(d, step)
    expect = (d.b - 1, d.e, d.s) if step[1].multiplicative else (d.b, d.e - 1, d.s)
    if out.counters != expect or out.type != d.type or out.context != d.context:
        raise IllFormed("subject reduction did not preserve the judgement exactly")
    return out


def expand_derivation_e(d: DerivationE, t: Term, step: tuple[Position, RuleKind]) -> DerivationE:
    """Exact subject expansion: rebuild a derivation for t from one for
    its dw-reduct, raising the matching counter by exactly one."""
    out = expand_derivation(d, t, step)
    expect = (d.b + 1, d.e, d.s) if step[1].multiplicative else (d.b, d.e + 1, d.s)
    if out.counters != expect or out.type != d.type or out.context != d.context:
        raise IllFormed("subject expansion did not preserve the judgement exactly")
    return out


# ---------------------------------------------------------------------------
# Exact inference

def infer_tight(t: Term, fuel: int) -> DerivationE | Untypable | FuelExhausted:
    """A tight derivation with counters exactly (b, e, s): b and e from the
    dw trace, s the normal form's size."""
    return infer_with(t, fuel, type_normal_form_tight, replay_expansion_e)


def replay_expansion_e(d: DerivationE, trace: Trace) -> DerivationE:
    return replay(d, trace, expand_derivation_e)


subst_derivation_e = subst_derivation
antisubst_derivation_e = antisubst_derivation
