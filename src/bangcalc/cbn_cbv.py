"""Head call-by-name and open call-by-value over lambda terms with
explicit substitutions, their embeddings into the bang calculus, and the
matching quantitative type systems.

Lambda terms are bang-calculus terms without Bang/Der (see
syntax.is_lambda_term).  CBN never reduces inside application arguments;
CBV never reduces under abstractions.  The embeddings translate both
strategies into weak bang reduction; the value translation un-bangs
application heads on the fly so normal forms are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .syntax import (
    Abs, App, Bang, Der, FoldMemo, Sub, Term, Var, Walk, fold, free_vars, is_bang_shaped,
    is_lambda_term, print_term, spine_core, subst_meta, term_eq, unwind,
)
from .reduction import (
    FIRE, W_ORDER, W_RULES, Position, RuleKind, Sel, FuelExhausted, Trace, fire_spine,
    normalize, search, step, strategy,
)
from .qtypes import Arrow, Mult, ctx_get, ctx_remove, ctx_union, mult
from .system_u import (
    CONSUMING_RULE, RULES, Derivation, IllFormed, Untypable, Violation, abs_, ax,
    check_derivation, define, es, fire_spine_d, fitting_rule, infer_u,
    on_spine, rule_table, sizer, unbang,
)


class NotLambdaTerm(ValueError):
    pass


def _require_lambda(t: Term) -> None:
    if not is_lambda_term(t):
        raise NotLambdaTerm(print_term(t))


# ---------------------------------------------------------------------------
# Strategies

def _is_value_shaped(t: Term) -> bool:
    """Whether t is L<v> for a value v; on lambda terms, whether its value
    image is bang-shaped."""
    return isinstance(spine_core(t), (Var, Abs))


def fire_sv(t: Term) -> Term:
    """t = s[x \\ L<v>] -> L<s{x:=v}> for a value v."""
    assert isinstance(t, Sub) and _is_value_shaped(t.arg)
    s, x = t.body, t.binder
    return fire_spine(t.arg, free_vars(s) - {x}, lambda v: subst_meta(s, x, v))


def _not_lambda(t: Term):
    raise NotLambdaTerm(print_term(t))


FIRE[RuleKind.S] = lambda t: subst_meta(t.body, t.binder, t.arg)
FIRE[RuleKind.SV] = fire_sv
# Both strategies fire dB as dw does; a bang or a dereliction that the
# search enters is not a lambda term.
_LAMBDA_RULES = {**W_RULES, Bang: _not_lambda, Der: _not_lambda}
# head CBN: distance beta, or unconditional substitution; contexts never
# enter application arguments
_N_ORDER = {Var: (), Abs: (Sel.ABS_BODY,), App: (Sel.FUN,), Sub: ()}
_N = strategy(_N_ORDER, {**_LAMBDA_RULES, Sub: lambda t: RuleKind.S})
# open CBV: distance beta, or substitution of a value up to a closure
# spine; contexts never enter abstraction bodies
_V_ORDER = {**W_ORDER, Abs: ()}
_V = strategy(_V_ORDER, {
    **_LAMBDA_RULES, Sub: lambda t: RuleKind.SV if _is_value_shaped(t.arg) else None})


def step_n(t: Term) -> tuple[Position, RuleKind, Term] | None:
    """One head-CBN step, or None."""
    return step(t, _N)


def step_v(t: Term) -> tuple[Position, RuleKind, Term] | None:
    """One open-CBV step, or None."""
    return step(t, _V)


def normalize_n(t: Term, fuel: int) -> Trace:
    _require_lambda(t)
    return normalize(t, fuel, step_n)


def normalize_v(t: Term, fuel: int) -> Trace:
    _require_lambda(t)
    return normalize(t, fuel, step_v)


# ---------------------------------------------------------------------------
# Normal-form grammars

@dataclass(frozen=True)
class LambdaNfClass:
    cbn: frozenset[str]  # subset of {"ne_n", "no_n"}
    cbv: frozenset[str]  # subset of {"vr_v", "ne_v", "no_v"}

    @property
    def n_normal(self) -> bool:
        return "no_n" in self.cbn

    @property
    def v_normal(self) -> bool:
        return "no_v" in self.cbv


def _cbv_app_bits(t: App, f: tuple, a: tuple) -> tuple[bool, bool, bool]:
    ne = (f[0] or f[1]) and a[2]
    return False, ne, ne


# The bits of the two grammars, as fold tables: (ne_n, no_n) and
# (vr_v, ne_v, no_v).  A bang or a dereliction is not a lambda term.
_NOT_LAMBDA = {Bang: ((), _not_lambda), Der: ((), _not_lambda)}
_CBN_BITS = {
    **_NOT_LAMBDA,
    Var: ((), lambda t: (True, True)),
    App: (("fun",), lambda t, f: (f[0], f[0])),
    Abs: (("body",), lambda t, b: (False, b[1])),
    Sub: ((), lambda t: (False, False)),
}
_CBV_BITS = {
    **_NOT_LAMBDA,
    Var: ((), lambda t: (True, False, True)),
    Abs: ((), lambda t: (False, False, True)),
    App: (("fun", "arg"), _cbv_app_bits),
    Sub: (("body", "arg"), lambda t, b, a: (b[0] and a[1], b[1] and a[1], b[2] and a[1])),
}


def classify_lambda_nf(t: Term) -> LambdaNfClass:
    _require_lambda(t)
    ne_n, no_n = fold(t, _CBN_BITS)
    vr, ne_v, no_v = fold(t, _CBV_BITS)
    cbn = {name for name, bit in (("ne_n", ne_n), ("no_n", no_n)) if bit}
    cbv = {name for name, bit in (("vr_v", vr), ("ne_v", ne_v), ("no_v", no_v)) if bit}
    return LambdaNfClass(frozenset(cbn), frozenset(cbv))


# ---------------------------------------------------------------------------
# Embeddings, as fold tables.  A derivation translation embeds many
# subterms of one term, each once for every fold given the same memo.

_CBN = {
    **_NOT_LAMBDA,
    Var: ((), lambda t: t),
    Abs: (("body",), lambda t, b: Abs(t.binder, b)),
    App: (("fun", "arg"), lambda t, f, a: App(f, Bang(a))),
    Sub: (("body", "arg"), lambda t, b, a: Sub(b, t.binder, Bang(a))),
}


def embed_cbn(t: Term) -> Term:
    return fold(t, _CBN)


def _cbv_app(t: App, f: Term, a: Term) -> Term:
    """The image of an application: a bang-shaped head is un-banged, as d!
    would fire it; any other head is derelicted."""
    if is_bang_shaped(f):
        return App(fire_spine(f, frozenset(), lambda bang: bang.body), a)
    return App(Der(f), a)


_CBV = {
    **_NOT_LAMBDA,
    Var: ((), Bang),
    Abs: (("body",), lambda t, b: Bang(Abs(t.binder, b))),
    App: (("fun", "arg"), _cbv_app),
    Sub: (("body", "arg"), lambda t, b, a: Sub(b, t.binder, a)),
}


def embed_cbv(t: Term) -> Term:
    return fold(t, _CBV)


# ---------------------------------------------------------------------------
# Term size measures

# Each counts the nodes that a search enters and hits (naming each hit by
# its former): n_size the abstractions, applications and closures in head
# CBN contexts and closure bodies; v_size the applications and closures in
# CBV contexts.
_COUNT = {Bang: _not_lambda, Der: _not_lambda, App: type, Sub: type}
_N_SIZE = strategy({**_N_ORDER, Sub: (Sel.SUB_BODY,)}, {**_COUNT, Abs: type})
_V_SIZE = strategy(_V_ORDER, _COUNT)


def n_size(t: Term) -> int:
    return len(search(t, _N_SIZE))


def v_size(t: Term) -> int:
    return len(search(t, _V_SIZE))


# ---------------------------------------------------------------------------
# Systems N and V (reusing the plain Derivation nodes with their own tags)

def app_n(tag: str, t: App, ty, ps: tuple) -> tuple:
    """The argument premises type the argument, which may be typed zero times."""
    d_f, d_args = ps[0], ps[1:]
    if not isinstance(d_f.type, Arrow):
        raise IllFormed("app_n function premise must have an arrow type")
    if d_f.type.domain != mult(d.type for d in d_args):
        raise IllFormed("app_n argument premises must realize the arrow domain")
    return ctx_union(d_f.context, *(d.context for d in d_args)), d_f.type.codomain, ps


def es_n(tag: str, t: Sub, ty, ps: tuple) -> tuple:
    d_b, d_args = ps[0], ps[1:]
    if ctx_get(d_b.context, t.binder) != mult(d.type for d in d_args):
        raise IllFormed("es_n argument premises must realize the multiset of the bound name")
    return (ctx_union(ctx_remove(d_b.context, t.binder), *(d.context for d in d_args)),
            d_b.type, ps)


def ax_v(tag: str, t: Var, m: Mult, ps: tuple) -> tuple:
    if not isinstance(m, Mult):
        raise IllFormed("ax_v must conclude a multiset type")
    return {t.name: m} if m.elements else {}, m, ps


def abs_v(tag: str, t: Abs, ty, ps: tuple) -> tuple:
    x = t.binder
    return (ctx_union(*(ctx_remove(p.context, x) for p in ps)),
            mult(Arrow(ctx_get(p.context, x), p.type) for p in ps), ps)


def app_v(tag: str, t: App, ty, ps: tuple) -> tuple:
    d_f, d_a = ps
    ft = d_f.type
    if not isinstance(ft, Mult) or len(ft) != 1 or not isinstance(ft.elements[0], Arrow):
        raise IllFormed("app_v function premise must be a singleton arrow multiset")
    arrow = ft.elements[0]
    if d_a.type != arrow.domain:
        raise IllFormed("app_v argument premise must match the arrow domain")
    return ctx_union(d_f.context, d_a.context), arrow.codomain, ps


# A rule's image is the pattern of its U image, whose root is U's consuming
# rule for the same former: "same", over the premises' images; "bang_rest",
# the argument premises' images under one bang of the embedded argument;
# "bang_each", under one bang, one node per premise, or per element of a
# variable's multiset type; "head", an application whose head image is
# derelicted, or un-banged along its closure spine when the head is
# value-shaped.  ax_n, abs_n and es_v are U's ax, abs and es under their
# own tags.
rule_table(
    "n",
    define("ax_n", ax, Var, image="same"),
    define("abs_n", abs_, Abs, image="same"),
    define("app_n", app_n, App, fixed=1, shape="app_n must type an application",
           subjects="app_n head premise must type the function", rest="arg", image="bang_rest"),
    define("es_n", es_n, Sub, fixed=1, shape="es_n must type a closure",
           subjects="es_n head premise must type the body", rest="arg", image="bang_rest"),
)
rule_table(
    "v",
    define("ax_v", ax_v, Var, weight=None, image="bang_each",
           context="ax_v context must assign the concluded multiset to its variable"),
    define("abs_v", abs_v, Abs, fixed=0, shape="abs_v must type an abstraction",
           type="abs_v conclusion must collect the premise arrows",
           context="abs_v context must drop the binder from every premise",
           rest="body", weight=None, image="bang_each"),
    define("app_v", app_v, App, image="head"),
    define("es_v", es, Sub, image="same"),
)
mk_ax_n, mk_abs_n, mk_app_n, mk_es_n = (r.make for r in RULES["n"].values())
mk_ax_v, mk_abs_v, mk_app_v, mk_es_v = (r.make for r in RULES["v"].values())


def check_derivation_n(d: Derivation) -> Violation | None:
    return check_derivation(d, "n")


def check_derivation_v(d: Derivation) -> Violation | None:
    return check_derivation(d, "v")


size_n = sizer("n")  # nodes of an N derivation
# nodes of a V derivation, an ax_v or abs_v node counting the elements of
# its multiset type (an abs_v node has one per premise)
size_v = sizer("v")


# ---------------------------------------------------------------------------
# Derivation translations: `_to_u` builds each rule's image along the
# memoized embedding, raising IllFormed on a node that its rule does not
# fit, and `_from_u` matches it along the lambda term, raising
# ImageMismatch on a U node that does not fit the image; the rules'
# remakes raise IllFormed on the rest.
#
# An N or V derivation that inference reads back from its U derivation
# keeps that derivation on its root, and the translation to U returns it.
# Any other, as one read back by a translation, read from JSON, built by
# the makers or copied, is walked: the walk embeds each subject on its
# own, so that the remakes compare the premise subjects with images that
# were not built from them.

class ImageMismatch(ValueError):
    pass


_EMBED = {"n": embed_cbn, "v": embed_cbv}  # the functions themselves, for a tracer to swap
_EMBED_FOLD = {"n": _CBN, "v": _CBV}
_RULE_OF = {system: {r.former: r for r in RULES[system].values()} for system in "nv"}
_BG, _DR = (CONSUMING_RULE[Derivation, former].remake for former in (Bang, Der))


def _to_u(d: Derivation, system: str, images: FoldMemo) -> Walk:
    """The walk of the U image of d, a derivation of `system`; `images`
    keeps the embedded subterms."""
    rule = RULES[system].get(d.rule)
    if rule is None:
        raise IllFormed(f"not a system {system.upper()} rule: {d.rule!r}")
    s, kind, k = d.subject, rule.image, rule.fixed
    if not rule.fits(s, len(d.premises)):
        raise IllFormed(rule.shape)
    e, u = fold(s, _EMBED_FOLD[system], images), CONSUMING_RULE[Derivation, rule.former].remake
    ps = []
    for p in d.premises:
        ps.append((yield _to_u(p, system, images)))
    if kind == "bang_rest":
        ps[k:] = [_BG(getattr(e, rule.rest), None, tuple(ps[k:]))]
    elif kind == "head":
        ps[0] = (on_spine(ps[0], e.fun, _unbang)[0] if _is_value_shaped(s.fun)
                 else _DR(e.fun, None, (ps[0],)))
    elif kind == "bang_each":  # a variable's rule refuses a type that is not a multiset
        each = ([(ty, ()) for ty in rule.conclude(rule.tag, s, d.type, ())[1].elements]
                if rule.former is Var else [(None, (p,)) for p in ps])
        return _BG(e, None, tuple(u(e.body, ty, q) for ty, q in each))
    return u(e, d.type, tuple(ps))


def _unbang(d: Derivation) -> Derivation:
    """From the image of a value typed [sigma], the one of its body typed sigma."""
    return unbang(d, "app_v function premise must be a singleton arrow multiset")


# former -> U's consuming rule for it, and the read-back's refusal of another node
_EXPECTED = {former: (u, f"expected rule {u.tag}: {u.shape}")
             for (cls, former), u in CONSUMING_RULE.items() if cls is Derivation}


def _expect(d: Derivation, former: type) -> tuple:
    """d's premises, if U's consuming rule for `former` is d's rule and fits it."""
    return fitting_rule(d, *_EXPECTED[former], ImageMismatch) and d.premises


def _from_u(d: Derivation, t: Term, system: str) -> Walk:
    """The walk of the derivation of `system` for the lambda term t whose
    image is the U derivation d."""
    rule = _RULE_OF[system][type(t)]
    kind, former = rule.image, rule.former
    ps = _expect(d, Bang if kind == "bang_each" else former)
    if kind == "bang_rest":
        ps = (*ps[:-1], *_expect(ps[-1], Bang))
    elif kind == "bang_each":
        ps = [q for p in ps for q in _expect(p, former)]
        if former is Var and mult(p.type for p in d.premises) != d.type:  # ax_v reads d.type
            raise ImageMismatch("bg type must be the multiset of its ax premises' types")
    elif kind == "head" and _is_value_shaped(t.fun):
        node = ps[0]  # the closures of the spine, before fire_spine_d takes it apart
        while type(node.subject) is Sub:
            node = _expect(node, Sub)[0]
        ps = (fire_spine_d(ps[0], frozenset(), lambda c: _BG(Bang(c.subject), None, (c,))), ps[1])
    elif kind == "head":
        ps = (_expect(ps[0], Der)[0], ps[1])
    new = []
    for p, part in zip(ps, rule.premise_parts(len(ps))):
        new.append((yield _from_u(p, getattr(t, part), system)))
    return rule.remake(t, d.type, tuple(new))


def _translations(system: str) -> tuple[Callable, Callable, Callable]:
    """The translation of a derivation of `system` to U, the one back, and
    inference through the embedding, whose image infer_u derives exactly:
    its derivation is read back without a check, and kept on the root."""
    def to_u(d: Derivation) -> Derivation:
        image = getattr(d, "_image", None)
        return unwind(_to_u(d, system, {})) if image is None else image

    def from_u(d: Derivation, t: Term) -> Derivation:
        if not term_eq(d.subject, _EMBED[system](t)):
            raise ImageMismatch("derivation subject is not the embedding of the term")
        return unwind(_from_u(d, t, system))

    def infer(t: Term, fuel: int) -> Derivation | Untypable | FuelExhausted:
        res = infer_u(_EMBED[system](t), fuel)
        if not isinstance(res, Derivation):
            return res
        d = unwind(_from_u(res, t, system))
        d._image = res
        return d

    # Each takes its public name, so tracebacks and reprs tell N from V.
    for f, name in ((to_u, f"translate_{system}_to_u"), (from_u, f"translate_u_to_{system}"),
                    (infer, f"infer_{system}")):
        f.__name__ = f.__qualname__ = name
    return to_u, from_u, infer


translate_n_to_u, translate_u_to_n, infer_n = _translations("n")
translate_v_to_u, translate_u_to_v, infer_v = _translations("v")
