"""The weak-context search against the recursive reference searches in
conftest.py: the same steps, redex lists, clash reports, sizes,
exceptions and positions, on random terms and on every term of their
traces; and the search at depths where the recursive versions overflow.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from bangcalc.cbn_cbv import n_size, normalize_n, normalize_v, step_n, step_v, v_size
from bangcalc.gen import generate_corpus
from bangcalc import reduction
from bangcalc.reduction import (
    ClashKind, FuelExhausted, InvalidPosition, RuleKind, Sel, detect_clash, normalize_dw,
    redexes, step_at, step_dw, subterm_at,
)
from bangcalc.qtypes import EMPTY_MULT, BaseVar, mult
from bangcalc.syntax import Abs, App, Bang, Der, Sub, Var, term_eq
from bangcalc.system_u import mk_abs, mk_app, mk_ax, mk_es, subject_reduction

from conftest import (
    bang_terms, lambda_terms, ref_detect_clash, ref_n_size, ref_redexes, ref_replace_at,
    ref_step_dw, ref_step_n, ref_step_v, ref_subterm_at, ref_v_size,
)

DEPTH = 5000


def replace_at(t, pos, new):
    """t with `new` at pos, rebuilt along the path that `step_at` rebuilds."""
    return reduction._rebuild(reduction._descend(t, pos)[0], new)


def outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as ex:
        return type(ex), str(ex)


def agrees(t):
    assert outcome(step_dw, t) == outcome(ref_step_dw, t)
    assert outcome(step_n, t) == outcome(ref_step_n, t)
    assert outcome(step_v, t) == outcome(ref_step_v, t)
    assert redexes(t) == ref_redexes(t)
    assert detect_clash(t) == ref_detect_clash(t)
    assert outcome(n_size, t) == outcome(ref_n_size, t)
    assert outcome(v_size, t) == outcome(ref_v_size, t)


@given(bang_terms(8))
def test_bang_terms_agree(t):
    agrees(t)


@given(lambda_terms(8))
def test_lambda_terms_agree(t):
    agrees(t)


def trace_terms(t, normalize):
    try:
        trace = normalize(t, 40)
    except FuelExhausted as ex:
        trace = ex.trace
    return [t] + [s.result for s in trace.steps]


@pytest.mark.parametrize("seed", [1, 2])
def test_corpus_traces_agree(seed):
    for t in generate_corpus(seed, 14, 60):
        for u in trace_terms(t, normalize_dw):
            agrees(u)
    for t in generate_corpus(seed, 14, 60, lam=True):
        for normalize in (normalize_dw, normalize_n, normalize_v):
            for u in trace_terms(t, normalize):
                agrees(u)


positions = st.lists(st.sampled_from(list(Sel)), max_size=5).map(tuple)


@given(bang_terms(8), positions)
def test_positions_agree(t, pos):
    assert outcome(subterm_at, t, pos) == outcome(ref_subterm_at, t, pos)
    new = Var("fresh")
    assert outcome(replace_at, t, pos, new) == outcome(ref_replace_at, t, pos, new)


@pytest.mark.parametrize("kind", [RuleKind.S, RuleKind.SV])
def test_step_at_fires_only_bang_calculus_rules(kind):
    t = App(Abs("x", Var("x")), Var("y"))
    with pytest.raises(InvalidPosition, match="is not a bang-calculus rule"):
        step_at(t, (), kind)


# ---------------------------------------------------------------------------
# Depth: terms built without the parser, searched at the default
# recursion limit

def ders(core, n=DEPTH):
    for _ in range(n):
        core = Der(core)
    return core


def test_step_dw_deep():
    pos, kind, _ = step_dw(ders(Bang(Var("x"))))
    assert kind is RuleKind.DBANG and pos == (Sel.DER_BODY,) * (DEPTH - 1)


def test_redexes_deep():
    [(pos, kind)] = redexes(ders(Bang(Var("x"))))
    assert kind is RuleKind.DBANG and pos == (Sel.DER_BODY,) * (DEPTH - 1)


def test_detect_clash_deep():
    assert detect_clash(ders(Bang(Var("x")))).clash_free
    pos, kind = detect_clash(ders(Abs("y", Var("y")))).witness
    assert kind is ClashKind.DER_OF_ABS and pos == (Sel.DER_BODY,) * (DEPTH - 1)


def test_step_n_deep():
    t = App(Abs("y", Var("y")), Var("z"))
    for i in range(DEPTH):
        t = Abs(f"x{i}", t)
    pos, kind, _ = step_n(t)
    assert kind is RuleKind.DB and pos == (Sel.ABS_BODY,) * DEPTH


def test_step_v_deep():
    t = App(Abs("y", Var("y")), Var("z"))
    for _ in range(DEPTH):
        t = App(Var("x"), t)
    pos, kind, _ = step_v(t)
    assert kind is RuleKind.DB and pos == (Sel.ARG,) * DEPTH


def test_replace_at_deep():
    pos = (Sel.DER_BODY,) * DEPTH
    out = replace_at(ders(Var("x")), pos, Var("y"))
    assert subterm_at(out, pos) == Var("y")


@pytest.mark.parametrize("k", [50, 3000])
def test_a_redex_under_a_long_closure_spine_fires(k):
    # (\x. x)[y_0 \ z]...[y_k-1 \ z] w, and its derivation: firing loops
    # over the spine, in the term and in the derivation
    f, d = Abs("x", Var("x")), mk_abs("x", mk_ax("x", BaseVar(0)))
    for i in range(k):
        f = Sub(f, f"y{i}", Var("z"))
        d = mk_es(f"y{i}", d, mk_ax("z", EMPTY_MULT))
    d = mk_app(d, mk_ax("w", mult([BaseVar(0)])))
    pos, kind, reduct = step_dw(App(f, Var("w")))
    assert (pos, kind) == ((), RuleKind.DB)
    spine, core = [], reduct
    while isinstance(core, Sub):
        spine.append((core.binder, core.arg))
        core = core.body
    assert core == Var("x") and spine[::k] == [(f"y{k - 1}", Var("z")), ("x", Var("w"))]
    assert term_eq(subject_reduction(d, (pos, kind)).subject, reduct)
