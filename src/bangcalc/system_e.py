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
substitution and subject reduction/expansion are system_u's engine, which
rebuilds E's nodes with E's rules; this module adds the exact counter
post-conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Abs, App, Bang, Der, Sub, Term, Var, print_term, unwind, w_size,
)
from .reduction import (
    Position, RuleKind, FuelExhausted, Trace, classify_nf,
)
from .qtypes import (
    Arrow, Context, Tight, Type, TIGHT_ABS, TIGHT_BANG, TIGHT_NEUTRAL,
    ctx_get, ctx_is_tight, ctx_remove, ctx_union, is_tight_mult, print_type,
)
from .system_u import (
    RULES, Counters, NfTyping, Untypable, Violation, IllFormed,
    abs_, app, ax, bg, check_derivation, close, define, dr, es,
    expand_derivation, infer_with, reduce_derivation, replay, rule_table,
    same_judgement, type_nf,
)


@dataclass(slots=True)  # not frozen, for the reason given at system_u.Derivation
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


# ---------------------------------------------------------------------------
# Rules.  The consuming rules are U's conclusions with a counter delta;
# the persistent ones have conclusions of their own.

def ae_t(tag: str, t: App, ty, ps: tuple) -> tuple:
    d_f, d_a = ps
    if d_f.type == TIGHT_NEUTRAL:
        if d_a.type not in (TIGHT_BANG, TIGHT_NEUTRAL):
            raise IllFormed("ae_t argument must be a tight constant different from a")
        result: Type = TIGHT_NEUTRAL
    elif isinstance(d_f.type, Arrow) and is_tight_mult(d_f.type.domain):
        if d_a.type != TIGHT_NEUTRAL:
            raise IllFormed("ae_t over an arrow needs an n-typed argument")
        result = d_f.type.codomain
    else:
        raise IllFormed("ae_t function must be typed n or with a tight-domain arrow")
    return ctx_union(d_f.context, d_a.context), result, ps


def ai_t(tag: str, t: Abs, ty, ps: tuple) -> tuple:
    d_b = ps[0]
    if not isinstance(d_b.type, Tight):
        raise IllFormed("ai_t body must have a tight constant type")
    if not is_tight_mult(ctx_get(d_b.context, t.binder)):
        raise IllFormed("ai_t requires a tight multiset for the binder")
    return ctx_remove(d_b.context, t.binder), TIGHT_ABS, ps


def bg_t(tag: str, t: Bang, ty, ps: tuple) -> tuple:
    return {}, TIGHT_BANG, ps


def dr_t(tag: str, t: Der, ty, ps: tuple) -> tuple:
    if ps[0].type != TIGHT_NEUTRAL:
        raise IllFormed("dr_t premise and conclusion must be typed n")
    return ps[0].context, TIGHT_NEUTRAL, ps


def es_t(tag: str, t: Sub, ty, ps: tuple) -> tuple:
    if ps[1].type != TIGHT_NEUTRAL:
        raise IllFormed("es_t argument must be typed n")
    if not is_tight_mult(ctx_get(ps[0].context, t.binder)):
        raise IllFormed("es_t requires a tight multiset for the binder")
    return close(t.binder, ps)


# The node class and the shape, premise-subject and context reasons that
# the consuming and the persistent rule for one former share.
_APP = dict(node=DerivationE, shape="application rules need two premises on an application",
            subjects="application premise subjects must be the parts",
            context="application context must be the union of the premise contexts")
_ABS = dict(node=DerivationE, shape="abstraction rules need one premise on an abstraction",
            subjects="abstraction premise subject must be the body",
            context="abstraction context must drop the binder")
_DER = dict(node=DerivationE, shape="dereliction rules need one premise on a dereliction",
            subjects="dereliction premise subject must be the body",
            context="dereliction must not change the context")
_SUB = dict(node=DerivationE, shape="closure rules need two premises on a closure",
            subjects="closure premise subjects must be the parts",
            context="closure context must recombine the premise contexts",
            type="closure conclusion must keep the body type")
_BG_T = "bg_t must conclude b with empty context and zero counters"
_SIZE = "{} must add exactly one to the size counter"

rule_table(
    "e",
    define("ax", ax, Var, counters="ax counters must be zero", node=DerivationE,
           delta=(0, 0, 0), consuming=True),
    define("ae_d", app, App, **_APP, counters="ae_d counters must add the premise counters",
           delta=(0, 0, 0), consuming=True, closure="es_d"),
    define("ai_d", abs_, Abs, **_ABS, delta=(1, 0, 0), consuming=True,
           counters="ai_d must add exactly one to the multiplicative counter"),
    define("bg_d", bg, Bang, counters="bg_d must add exactly one to the exponential counter",
           node=DerivationE, delta=(0, 1, 0), consuming=True),
    define("dr_d", dr, Der, **_DER, counters="dr_d counters must copy the premise counters",
           delta=(0, 0, 0), consuming=True),
    define("es_d", es, Sub, **_SUB, counters="es_d counters must add the premise counters",
           delta=(0, 0, 0), consuming=True),
    # the reason for a wrong type depends on which of ae_t's two shapes the node has
    define("ae_t", ae_t, App, **_APP, type=lambda d: "ae_t conclusion must be " + (
               "n" if d.premises[0].type == TIGHT_NEUTRAL else "the arrow codomain"),
           counters=_SIZE.format("ae_t"), delta=(0, 0, 1), closure="es_t"),
    define("ai_t", ai_t, Abs, **_ABS, type="ai_t conclusion must be a",
           counters=_SIZE.format("ai_t"), delta=(0, 0, 1)),
    define("bg_t", bg_t, Bang, shape="bg_t must type a bang with no premises", type=_BG_T,
           context=_BG_T, counters=_BG_T, node=DerivationE, delta=(0, 0, 0), rest=None),
    define("dr_t", dr_t, Der, **_DER, type="dr_t premise and conclusion must be typed n",
           counters=_SIZE.format("dr_t"), delta=(0, 0, 1)),
    define("es_t", es_t, Sub, **_SUB, counters=_SIZE.format("es_t"), delta=(0, 0, 1)),
)
(mk_ax_e, mk_ae_d, mk_ai_d, mk_bg_d, mk_dr_d, mk_es_d,
 mk_ae_t, mk_ai_t, mk_bg_t, mk_dr_t, mk_es_t) = (r.make for r in RULES["e"].values())


def check_derivation_e(d: DerivationE) -> Violation | None:
    return check_derivation(d, "e")


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

_N = TIGHT_NEUTRAL
# the axiom and the persistent rules, by former
E_TYPING = NfTyping({r.former: r.remake for r in RULES["e"].values()
                     if not r.consuming or r.former is Var},
                    _N, _N, lambda d_a, tau: _N, lambda tau: _N, lambda d_b, x: _N)


def type_normal_form_tight(t: Term) -> DerivationE:
    """The all-persistent tight derivation of a wcf normal form; its
    counters are exactly (0, 0, w_size), as they are at each level below.
    Each subterm is classified once."""
    d = unwind(type_nf(t, "nf", None, E_TYPING, {}))
    assert d.counters == (0, 0, w_size(t))
    return d


# ---------------------------------------------------------------------------
# Exact subject reduction / expansion (dw steps), on the shared engine

def reduce_derivation_e(d: DerivationE, step: tuple[Position, RuleKind]) -> DerivationE:
    """Exact subject reduction: a dB step lowers b by one, an s!/d! step
    lowers e by one; the size counter never moves."""
    out = reduce_derivation(d, step)
    b, e, s = d.counters
    expect = (b - 1, e, s) if step[1].multiplicative else (b, e - 1, s)
    if out.counters != expect or not same_judgement(out, d):
        raise IllFormed("subject reduction did not preserve the judgement exactly")
    return out


def expand_derivation_e(d: DerivationE, t: Term, step: tuple[Position, RuleKind]) -> DerivationE:
    """Exact subject expansion: rebuild a derivation for t from one for
    its dw-reduct, raising the matching counter by exactly one."""
    out = expand_derivation(d, t, step)
    b, e, s = d.counters
    expect = (b + 1, e, s) if step[1].multiplicative else (b, e + 1, s)
    if out.counters != expect or not same_judgement(out, d):
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

