"""Subject reduction and expansion where a binder must be refreshed.

When a substitution would capture a free variable of what it substitutes,
`subst_meta` renames the binder, and the derivation transformers must
rename it the same way.  Each case below needs such a refresh; after each
dw step the derivation's subject is exactly the reduct `step_at` gives,
binder names included, and it passes its system's checker.  The
derivation engine chooses no name itself: `system_u.rebuild_as` rebuilds
a derivation along a term the term engine built."""

import random

import pytest

from bangcalc import reduction, syntax
from bangcalc.cbn_cbv import (
    infer_n, infer_v, translate_n_to_u, translate_u_to_n, translate_u_to_v, translate_v_to_u,
)
from bangcalc.reduction import FuelExhausted, normalize_dw, step_at
from bangcalc.serialize import derivation_text
from bangcalc.syntax import (
    Abs, App, Bang, Der, Sub, Var, canon_key, parse_term, print_term, subst_meta, term_eq, unwind,
)
from bangcalc.system_e import (
    check_derivation_e, infer_tight, reduce_derivation_e, type_normal_form_tight,
)
from bangcalc.system_u import (
    Derivation, Untypable, check_derivation_u, infer_u, mk_ax, rebuild_as,
    reduce_derivation_u, type_normal_form_u,
)

from conftest import count_calls, subst_derivation, without_image
from test_write_path import ref_translate_n_to_u, ref_translate_v_to_u

# term -> its reducts along the dw trace
CASES = {
    # s! substitutes y under the binder y (`system_u.rebuild_as`, along
    # the `subst_meta` result)
    r"(\y. x)[x \ !y]": [r"\y0. y"],
    # dB through a closure whose binder is free in the argument (`fire_spine_d`)
    r"((\x. z)[y \ !w]) y": [r"z[x \ y][y0 \ !w]", r"z[x \ y]"],
    # the refresh of y renames the inner binder y0 as well, below an
    # application or a dereliction, and below a bang: the expansion that
    # inference replays rebuilds the body back along the pre-step term
    # (`system_u._antisubst`)
    r"(\y. (\y0. y) x)[x \ !y]": [r"\y0. (\y1. y0) y", r"\y0. y0[y1 \ y]"],
    r"(\y. der ((\y0. y) x))[x \ !y]": [r"\y0. der((\y1. y0) y)", r"\y0. der(y0[y1 \ y])"],
    r"(\y. der (!(\y0. y x)))[x \ !y]": [r"\y0. der(!(\y1. y0 y))", r"\y0. \y1. y0 y"],
    # a firing through two closures refreshes the outer binder y1 to y0,
    # the pre-step name of the inner one, which it refreshes to y2: no
    # binder can be renamed back on its own, so expansion remakes each
    # closure along the pre-step spine, its argument and the core rebuilt
    # along that spine's (`system_u.on_spine`)
    r"(\x. y1)[y0 \ y1][y1 \ x] y1": [r"y0[x \ y1][y2 \ y0][y0 \ x]"],
    r"(\y1. !der(y0))[y \ (\y0. y)[y0 \ y][y \ y0] !y[x \ y1]]": [
        r"(\y1. !der(y0))[y \ y0[y1 \ !y[x \ y1]][y2 \ y0][y0 \ y0]]",
        r"(\y1. !der(y0))[y \ y0[x \ y1][y2 \ y0][y0 \ y0]]"],
}

SYSTEMS = {
    "u": (infer_u, reduce_derivation_u, check_derivation_u),
    "e": (infer_tight, reduce_derivation_e, check_derivation_e),
}


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("text", CASES)
def test_each_step_types_the_reduct_exactly(text, system):
    infer, reduce_derivation, check = SYSTEMS[system]
    t = parse_term(text)
    d = infer(t, 100)
    assert d.subject == t and check(d) is None
    reducts = []
    for step in normalize_dw(t, 100).steps:
        t = step_at(t, step.position, step.rule)
        d = reduce_derivation(d, (step.position, step.rule))
        assert d.subject == t and check(d) is None
        reducts.append(print_term(t))
    assert reducts == CASES[text]


# terms built with one Var object for the occurrence of x and for the body
# of the bang: after s!, the occurrence is the argument's own object, and
# its axiom must still give way to the argument's derivation
# (`system_u.rebuild_as`)
X = Var("x")
SHARED = {"der": Sub(Der(X), "x", Bang(X)), "abs": Sub(Abs("y", X), "x", Bang(X))}


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("name", SHARED)
def test_an_occurrence_that_is_the_argument_object_is_substituted(name, system):
    infer, reduce_derivation, check = SYSTEMS[system]
    t = SHARED[name]
    d = infer(t, 100)
    (taken,) = d.premises[1].premises  # the bang's premise, typing x
    (step,) = normalize_dw(t, 100).steps
    d = reduce_derivation(d, (step.position, step.rule))
    assert d.subject == step.result and check(d) is None and d.premises[0] is taken


# ---------------------------------------------------------------------------
# Capture-heavy generated terms: every binder and free name from one small
# pool, so that substitutions and firings keep refreshing binders into
# names that are already in use

POOL = ("y", "y0", "y1", "x")


def capture_term(rng, size):
    if size <= 1:
        return Var(rng.choice(POOL))
    kind = rng.choices(("app", "abs", "bang", "der", "sub"), weights=(25, 30, 10, 10, 25))[0]
    if kind in ("abs", "bang", "der"):
        body = capture_term(rng, size - 1)
        return Abs(rng.choice(POOL), body) if kind == "abs" else Bang(body) if kind == "bang" \
            else Der(body)
    left = rng.randint(1, max(1, size - 2))
    s, u = capture_term(rng, left), capture_term(rng, max(1, size - 1 - left))
    if rng.random() < 0.7:  # a banged argument makes an s! redex
        u = closures(rng, Bang(u))
    if kind == "sub":
        return Sub(s, rng.choice(POOL), u)
    return App(closures(rng, Abs(rng.choice(POOL), s)) if rng.random() < 0.5 else s, u)


def closures(rng, t):
    """t under up to two closures, whose binders a firing through them may
    have to refresh."""
    for _ in range(rng.choice((0, 0, 1, 2))):
        t = Sub(t, rng.choice(POOL), Var(rng.choice(POOL)))
    return t


def count_renames(monkeypatch) -> list:
    """The term engine's refreshes while the test runs, one entry each."""
    renames, fresh_name = [], syntax.fresh_name

    def counted(base, avoid):
        name = fresh_name(base, avoid)
        if name != base:
            renames.append(name)
        return name
    for mod in (syntax, reduction):
        monkeypatch.setattr(mod, "fresh_name", counted)
    return renames


@pytest.mark.parametrize("system", SYSTEMS)
def test_capture_heavy_terms_type_each_reduct_exactly(system, monkeypatch):
    infer, reduce_derivation, check = SYSTEMS[system]
    rng = random.Random(25)
    renames = count_renames(monkeypatch)
    typed = 0
    for _ in range(1000):
        t = capture_term(rng, rng.randint(2, 12))
        d = infer(t, 200)
        if isinstance(d, (Untypable, FuelExhausted)):
            continue
        typed += 1
        assert d.subject == t and check(d) is None, print_term(t)
        try:
            steps = normalize_dw(t, 200).steps
        except FuelExhausted:
            continue
        for step in steps:
            t = step_at(t, step.position, step.rule)
            d = reduce_derivation(d, (step.position, step.rule))
            assert d.subject == t and check(d) is None, print_term(t)
    # the corpus reaches the refreshes it is meant for
    assert typed > 500 and len(renames) > 500


def lambda_term(t):
    """t with its bangs and derelictions erased: a lambda term with t's
    binders and names."""
    match t:
        case Var():
            return t
        case Bang(b) | Der(b):
            return lambda_term(b)
        case Abs(x, b):
            return Abs(x, lambda_term(b))
        case App(f, a):
            return App(lambda_term(f), lambda_term(a))
        case Sub(b, x, a):
            return Sub(lambda_term(b), x, lambda_term(a))


@pytest.mark.parametrize("infer, to_u, ref, back", [
    (infer_n, translate_n_to_u, ref_translate_n_to_u, translate_u_to_n),
    (infer_v, translate_v_to_u, ref_translate_v_to_u, translate_u_to_v),
], ids=["n", "v"])
def test_capture_heavy_lambda_terms_keep_the_image_their_walk_builds(infer, to_u, ref, back,
                                                                     monkeypatch):
    # an inferred N or V derivation keeps the U derivation it was read
    # from; a copy without it is walked, to the same derivation, which the
    # reference translation builds too and which translates back to it
    rng = random.Random(26)
    renames = count_renames(monkeypatch)
    typed = 0
    for _ in range(1000):
        t = lambda_term(capture_term(rng, rng.randint(2, 12)))
        d = infer(t, 200)
        if isinstance(d, (Untypable, FuelExhausted)):
            continue
        typed += 1
        image, walked = to_u(d), to_u(without_image(d))
        assert walked == image == ref(d) and back(walked, t) == d, print_term(t)
        assert derivation_text(walked) == derivation_text(image), print_term(t)
    # the corpus reaches the refreshes it is meant for
    assert typed > 500 and len(renames) > 200


# ---------------------------------------------------------------------------
# The work of the rebuild walk

def _x_chain(n, leaf):
    """x (x (... (x leaf))), n applications."""
    t = Var(leaf)
    for _ in range(n):
        t = App(Var("x"), t)
    return t


def _rename_work(monkeypatch, n):
    """The nodes made and the term nodes handed to `term_eq` while the
    bottom variable of the n-chain's derivation is renamed."""
    d = type_normal_form_u(_x_chain(n, "y"))
    t = subst_meta(d.subject, "y", Var("z"))
    made, init = [], Derivation.__init__

    def counted_init(self, *args):
        made.append(None)
        init(self, *args)
    compared = count_calls(monkeypatch, syntax, "term_eq", keep=True)
    monkeypatch.setattr(Derivation, "__init__", counted_init)
    out = unwind(rebuild_as(d, t))
    monkeypatch.undo()
    assert term_eq(out.subject, t) and check_derivation_u(out) is None
    return len(made), sum(len(canon_key(s)) for s in compared)


def test_renaming_down_a_chain_costs_work_linear_in_its_depth(monkeypatch):
    made, compared = _rename_work(monkeypatch, 1000)
    made2, compared2 = _rename_work(monkeypatch, 2000)
    # the axiom and the applications above it are remade, nothing else
    assert (made, made2) == (1001, 2001)
    # no subject is compared level by level on the way up
    assert compared2 <= 2.2 * compared + 10


@pytest.mark.parametrize("type_nf, check", [(type_normal_form_u, check_derivation_u),
                                            (type_normal_form_tight, check_derivation_e)])
def test_a_bang_without_premises_follows_a_renamed_binder(type_nf, check):
    d = type_nf(parse_term(r"\y. x !y"))
    bang = d.premises[0].premises[1]
    assert bang.subject == Bang(Var("y")) and bang.premises == ()
    # no premise says that the bang's body changed, so the body is compared
    t = parse_term(r"\z. x !z")
    out = unwind(rebuild_as(d, t))
    assert out.subject == t and check(out) is None


def test_substitution_refreshes_a_binder_above_a_bang_without_premises():
    d = type_normal_form_u(parse_term(r"\y. x !y"))
    d_us = [mk_ax("y", ty) for ty in d.context["x"].elements]
    out = subst_derivation(d, "x", d_us)
    assert out.subject == parse_term(r"\y0. y !y0") and check_derivation_u(out) is None
