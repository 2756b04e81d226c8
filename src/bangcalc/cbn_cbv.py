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
    RULES, Derivation, IllFormed, Untypable, Violation, abs_, ax, check_derivation,
    check_derivation_u, define, es, fire_spine_d, infer_u, mk_abs, mk_app, mk_ax, mk_bg, mk_dr,
    mk_es, rule_table, sizer,
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

def app_n(tag: str, d_f: Derivation, arg: Term, d_args: tuple[Derivation, ...]) -> tuple:
    """The argument term is explicit because it may be typed zero times."""
    _all_type(tag, arg, d_args)
    if not isinstance(d_f.type, Arrow):
        raise IllFormed("app_n function premise must have an arrow type")
    if d_f.type.domain != mult(d.type for d in d_args):
        raise IllFormed("app_n argument premises must realize the arrow domain")
    return (ctx_union(d_f.context, *(d.context for d in d_args)), App(d_f.subject, arg),
            d_f.type.codomain, (d_f, *d_args))


def es_n(tag: str, x: str, d_b: Derivation, arg: Term, d_args: tuple[Derivation, ...]) -> tuple:
    _all_type(tag, arg, d_args)
    if ctx_get(d_b.context, x) != mult(d.type for d in d_args):
        raise IllFormed("es_n argument premises must realize the multiset of the bound name")
    return (ctx_union(ctx_remove(d_b.context, x), *(d.context for d in d_args)),
            Sub(d_b.subject, x, arg), d_b.type, (d_b, *d_args))


def _all_type(tag: str, arg: Term, d_args: tuple[Derivation, ...]) -> None:
    for d in d_args:
        if d.subject is not arg and not term_eq(d.subject, arg):
            raise IllFormed(f"{tag} argument premises must type the argument")


def ax_v(tag: str, x: str, m: Mult) -> tuple:
    if not isinstance(m, Mult):
        raise IllFormed("ax_v must conclude a multiset type")
    return {x: m} if m.elements else {}, Var(x), m, ()


def abs_v(tag: str, x: str, body: Term, premises: tuple[Derivation, ...]) -> tuple:
    arrows = []
    for p in premises:
        if p.subject is not body and not term_eq(p.subject, body):
            raise IllFormed("abs_v premises must type the body")
        arrows.append(Arrow(ctx_get(p.context, x), p.type))
    return (ctx_union(*(ctx_remove(p.context, x) for p in premises)), Abs(x, body),
            mult(arrows), tuple(premises))


def app_v(tag: str, d_f: Derivation, d_a: Derivation) -> tuple:
    ft = d_f.type
    if not isinstance(ft, Mult) or len(ft) != 1 or not isinstance(ft.elements[0], Arrow):
        raise IllFormed("app_v function premise must be a singleton arrow multiset")
    arrow = ft.elements[0]
    if d_a.type != arrow.domain:
        raise IllFormed("app_v argument premise must match the arrow domain")
    return (ctx_union(d_f.context, d_a.context), App(d_f.subject, d_a.subject),
            arrow.codomain, (d_f, d_a))


# ax_n, abs_n and es_v are U's ax, abs and es under their own tags
rule_table(
    "n",
    define("ax_n", ax, Var),
    define("abs_n", abs_, Abs),
    define("app_n", app_n, App, fixed=1, shape="app_n must type an application",
           subjects="app_n head premise must type the function", rest="arg"),
    define("es_n", es_n, Sub, fixed=1, shape="es_n must type a closure",
           subjects="es_n head premise must type the body", rest="arg"),
)
rule_table(
    "v",
    define("ax_v", ax_v, Var, weight=None,
           context="ax_v context must assign the concluded multiset to its variable"),
    define("abs_v", abs_v, Abs, fixed=0, shape="abs_v must type an abstraction",
           type="abs_v conclusion must collect the premise arrows",
           context="abs_v context must drop the binder from every premise",
           rest="body", weight=None),
    define("app_v", app_v, App),
    define("es_v", es, Sub),
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
# Derivation translations

# An N or V derivation read back from a U derivation keeps that derivation
# on its root (`_read_back`), and the translation to U returns it.  The
# back-translations keep only one that passes the U checker, since the
# walk reads just its rules, leaf types and binders.  A derivation without
# one, as one read from JSON, built by the makers or copied, is walked:
# the walk embeds the subterms that its bg nodes need on its own, so that
# `mk_bg` compares the premise subjects with images that were not built
# from them.

def translate_n_to_u(d: Derivation) -> Derivation:
    image = getattr(d, "_image", None)
    return unwind(_n_to_u(d, {})) if image is None else image


def _n_to_u(d: Derivation, images: FoldMemo) -> Walk:
    match d.rule:
        case "ax_n":
            assert isinstance(d.subject, Var)
            return mk_ax(d.subject.name, d.type)
        case "abs_n":
            assert isinstance(d.subject, Abs)
            return mk_abs(d.subject.binder, (yield _n_to_u(d.premises[0], images)))
        case "app_n" | "es_n":
            assert isinstance(d.subject, (App, Sub))
            head = yield _n_to_u(d.premises[0], images)
            args = []
            for p in d.premises[1:]:
                args.append((yield _n_to_u(p, images)))
            arg = mk_bg(fold(d.subject.arg, _CBN, images), tuple(args))
            return mk_app(head, arg) if d.rule == "app_n" else mk_es(d.subject.binder, head, arg)
    raise IllFormed(f"not a call-by-name rule: {d.rule!r}")


class ImageMismatch(ValueError):
    pass


def _read_back(walk: Walk, image: Derivation | None) -> Derivation:
    """The N or V derivation that `walk` reads back from the U derivation
    `image`, keeping `image` (None: none) on its root, a node the walk
    made."""
    d = unwind(walk)
    d._image = image
    return d


def translate_u_to_n(d: Derivation, t: Term) -> Derivation:
    if not term_eq(d.subject, embed_cbn(t)):
        raise ImageMismatch("derivation subject is not the embedding of the term")
    return _read_back(_u_to_n(d, t), d if check_derivation_u(d) is None else None)


def _u_to_n(d: Derivation, t: Term) -> Walk:
    match t:
        case Var(x):
            if d.rule != "ax":
                raise ImageMismatch("expected an axiom")
            return mk_ax_n(x, d.type)
        case Abs(x, b):
            if d.rule != "abs":
                raise ImageMismatch("expected an abstraction node")
            return mk_abs_n(x, (yield _u_to_n(d.premises[0], b)))
        case App(h, a) | Sub(h, _, a):
            app = isinstance(t, App)
            if d.rule != ("app" if app else "es") or d.premises[1].rule != "bg":
                raise ImageMismatch(f"expected {'an application' if app else 'a closure'}"
                                    " over a banged argument")
            head = yield _u_to_n(d.premises[0], h)
            args = []
            for p in d.premises[1].premises:
                args.append((yield _u_to_n(p, a)))
            return (mk_app_n(head, a, tuple(args)) if app
                    else mk_es_n(t.binder, head, a, tuple(args)))
    raise NotLambdaTerm(print_term(t))


def _unbang(d: Derivation) -> Derivation:
    """From a derivation of !r : [sigma], the derivation of r : sigma."""
    if d.rule != "bg" or len(d.premises) != 1:
        raise ImageMismatch("expected a unary bang node at the head")
    return d.premises[0]


def _rebang(d: Derivation) -> Derivation:
    return mk_bg(d.subject, (d,))


def translate_v_to_u(d: Derivation) -> Derivation:
    image = getattr(d, "_image", None)
    return unwind(_v_to_u(d, {})) if image is None else image


def _v_to_u(d: Derivation, images: FoldMemo) -> Walk:
    match d.rule:
        case "ax_v":
            assert isinstance(d.subject, Var) and isinstance(d.type, Mult)
            x = d.subject.name
            return mk_bg(Var(x), tuple(mk_ax(x, ty) for ty in d.type.elements))
        case "abs_v":
            assert isinstance(d.subject, Abs)
            x = d.subject.binder
            body_image = fold(d.subject.body, _CBV, images)
            bodies = []
            for p in d.premises:
                bodies.append(mk_abs(x, (yield _v_to_u(p, images))))
            return mk_bg(Abs(x, body_image), tuple(bodies))
        case "app_v":
            assert isinstance(d.subject, App)
            d_f = yield _v_to_u(d.premises[0], images)
            d_a = yield _v_to_u(d.premises[1], images)
            if _is_value_shaped(d.subject.fun):
                return mk_app(fire_spine_d(d_f, frozenset(), _unbang), d_a)
            return mk_app(mk_dr(d_f), d_a)
        case "es_v":
            assert isinstance(d.subject, Sub)
            return mk_es(d.subject.binder, (yield _v_to_u(d.premises[0], images)),
                         (yield _v_to_u(d.premises[1], images)))
    raise IllFormed(f"not a call-by-value rule: {d.rule!r}")


def translate_u_to_v(d: Derivation, t: Term) -> Derivation:
    if not term_eq(d.subject, embed_cbv(t)):
        raise ImageMismatch("derivation subject is not the embedding of the term")
    return _read_back(_u_to_v(d, t), d if check_derivation_u(d) is None else None)


def _u_to_v(d: Derivation, t: Term) -> Walk:
    match t:
        case Var(x):
            if d.rule != "bg":
                raise ImageMismatch("expected a bang node over a variable")
            assert isinstance(d.type, Mult)
            for p in d.premises:
                if p.rule != "ax":
                    raise ImageMismatch("expected axiom premises under the bang")
            return mk_ax_v(x, d.type)
        case Abs(x, b):
            if d.rule != "bg":
                raise ImageMismatch("expected a bang node over an abstraction")
            if any(p.rule != "abs" for p in d.premises):
                raise ImageMismatch("expected abstraction premises under the bang")
            inner = []
            for p in d.premises:
                inner.append((yield _u_to_v(p.premises[0], b)))
            return mk_abs_v(x, b, tuple(inner))
        case App(f, a):
            if d.rule != "app":
                raise ImageMismatch("expected an application node")
            if _is_value_shaped(f):
                d_f = yield _u_to_v(fire_spine_d(d.premises[0], frozenset(), _rebang), f)
            else:
                if d.premises[0].rule != "dr":
                    raise ImageMismatch("expected a dereliction at the head")
                d_f = yield _u_to_v(d.premises[0].premises[0], f)
            return mk_app_v(d_f, (yield _u_to_v(d.premises[1], a)))
        case Sub(b, x, a):
            if d.rule != "es":
                raise ImageMismatch("expected a closure node")
            return mk_es_v(x, (yield _u_to_v(d.premises[0], b)), (yield _u_to_v(d.premises[1], a)))
    raise NotLambdaTerm(print_term(t))


# ---------------------------------------------------------------------------
# Inference through the embeddings

# The embedding rejects a non-lambda term, and infer_u derives exactly its
# image, so the derivation is translated back without a check, and kept.

def infer_n(t: Term, fuel: int) -> Derivation | Untypable | FuelExhausted:
    res = infer_u(embed_cbn(t), fuel)
    return _read_back(_u_to_n(res, t), res) if isinstance(res, Derivation) else res


def infer_v(t: Term, fuel: int) -> Derivation | Untypable | FuelExhausted:
    res = infer_u(embed_cbv(t), fuel)
    return _read_back(_u_to_v(res, t), res) if isinstance(res, Derivation) else res
