import sys

import pytest
from hypothesis import given

from bangcalc.syntax import (
    Bang, Der, Sub, Var, alpha_eq, canon_key, parse_term, print_term, w_size,
)
from bangcalc.reduction import (
    ClashKind, FuelExhausted, InvalidPosition, RuleKind, Sel,
    classify_nf, classify_wcf_nf, detect_clash, enumerate_maximal_traces,
    normalize_dw, reachable_graph, redexes, step_at, step_dw,
    trace_profile,
)

from conftest import bang_terms

T0 = r"der(!(\x.\y.x)) !(\z.z) !((\x.x x) (\x.x x))"
CBN_OMEGA = r"(\x. x !x) !(\x. x !x)"


def t(s):
    return parse_term(s)


class TestRedexes:
    def test_example_term_has_one_redex(self):
        rs = redexes(t(T0))
        assert rs == [((Sel.FUN, Sel.FUN), RuleKind.DBANG)]

    def test_normal_form_has_none(self):
        assert redexes(t(r"\z. z")) == []

    def test_distance_substitution_redex_at_root(self):
        rs = redexes(t(r"x[x \ (!(\z.z))[y \ !w]]"))
        assert rs[0] == ((), RuleKind.SBANG)


class TestStepAt:
    def test_dereliction_of_bang(self):
        assert step_at(t(r"der(!(\x.\y.x))"), (), RuleKind.DBANG) == t(r"\x.\y.x")

    def test_beta_at_a_distance_creates_closure(self):
        out = step_at(t(r"(\x.\y.x) !(\z.z)"), (), RuleKind.DB)
        assert out == t(r"(\y.x)[x \ !(\z.z)]")

    def test_substitution_of_bang(self):
        assert step_at(t(r"x[x \ !(\z.z)]"), (), RuleKind.SBANG) == t(r"\z.z")

    def test_invalid_position_rejected(self):
        with pytest.raises(InvalidPosition):
            step_at(t("x"), (), RuleKind.DB)
        with pytest.raises(InvalidPosition):
            step_at(t(r"(\x.x) y"), (), RuleKind.SBANG)


class TestStepDw:
    def test_first_step_of_example(self):
        pos, kind, out = step_dw(t(T0))
        assert kind is RuleKind.DBANG
        assert out == t(r"(\x.\y.x) !(\z.z) !((\x.x x) (\x.x x))")

    def test_distance_beta_wraps_created_closure_innermost(self):
        # L<\y.x> u steps to L<x[y \ u]>: the new closure sits inside L
        pos, kind, out = step_dw(t(r"(\y.x)[x \ !(\z.z)] !w"))
        assert kind is RuleKind.DB and pos == ()
        assert out == Sub(t(r"x[y \ !w]"), "x", t(r"!(\z.z)"))

    def test_normal_form_returns_none(self):
        assert step_dw(t(r"\z. z")) is None


class TestNormalizeDw:
    def test_golden_trace(self):
        tr = normalize_dw(t(T0), 100)
        assert [s.rule.value for s in tr.steps] == ["d!", "dB", "dB", "s!", "s!"]
        assert (tr.b, tr.e) == (2, 3)
        assert alpha_eq(tr.final, t(r"\z.z")) and w_size(tr.final) == 1

    def test_normal_term_has_empty_trace(self):
        tr = normalize_dw(t(r"\z.z"), 5)
        assert tr.steps == () and (tr.b, tr.e) == (0, 0)

    def test_name_image_of_omega_diverges(self):
        with pytest.raises(FuelExhausted) as ex:
            normalize_dw(t(CBN_OMEGA), 50)
        assert len(ex.value.trace.steps) == 50

    def test_raw_omega_gets_stuck_as_a_clash(self):
        # without bangs nothing can be substituted: one dB step, then a
        # normal form carrying a clash (an abstraction as closure argument)
        tr = normalize_dw(t(r"(\x.x x) (\x.x x)"), 50)
        assert len(tr.steps) == 1
        assert classify_nf(tr.final).normal and not detect_clash(tr.final).clash_free


class TestMaximalTraces:
    def test_all_example_traces_have_length_five(self):
        traces, exhausted = enumerate_maximal_traces(t(T0), 50)
        assert not exhausted and traces
        assert {len(x.steps) for x in traces} == {5}
        assert all(alpha_eq(x.final, t(r"\z.z")) for x in traces)

    def test_variable_has_one_empty_trace(self):
        traces, exhausted = enumerate_maximal_traces(t("x"), 10)
        assert not exhausted and len(traces) == 1 and traces[0].steps == ()

    def test_confluent_endpoints_and_equal_length(self):
        traces, exhausted = enumerate_maximal_traces(t(r"(\x.x) !y !z"), 50)
        assert not exhausted
        finals = {canon_key(x.final) for x in traces}
        lengths = {(len(x.steps), x.b, x.e) for x in traces}
        assert len(finals) == 1 and len(lengths) == 1


class TestClassify:
    def test_variable_is_in_every_class(self):
        assert classify_nf(t("x")).memberships == {"ne", "na", "nb", "no"}

    def test_bang_is_neutral_abs_only(self):
        cls = classify_nf(t(r"!((\x.x x) (\x.x x))"))
        assert cls.memberships == {"na", "no"}

    def test_abstraction_is_neutral_bang_only(self):
        assert classify_nf(t(r"\x.x")).memberships == {"nb", "no"}

    def test_redex_is_not_normal(self):
        cls = classify_nf(t(r"(\x.x) !y"))
        assert not cls.normal and cls.memberships == frozenset()


class TestClash:
    def test_bang_in_function_position(self):
        rep = detect_clash(t("!x y"))
        assert rep.witness == ((), ClashKind.APP_OF_BANG)

    def test_dereliction_of_abstraction_with_spine(self):
        rep = detect_clash(t(r"der((\x.z)[y \ der(y) y])"))
        assert rep.witness == ((), ClashKind.DER_OF_ABS)
        assert classify_nf(t(r"der((\x.z)[y \ der(y) y])")).normal

    def test_clash_under_bang_is_ignored(self):
        assert detect_clash(t(r"!(der(\x.x))")).clash_free


class TestWcfClassify:
    def test_neutral_application(self):
        assert classify_wcf_nf(t("x !y")).ne

    def test_normal_but_not_clash_free(self):
        assert classify_wcf_nf(t(r"der((\x.z)[y \ der(y) y])")).memberships == frozenset()

    def test_abstraction(self):
        cls = classify_wcf_nf(t(r"\x. x !x"))
        assert cls.memberships == {"nb", "no"}


# ---------------------------------------------------------------------------
# Properties

@given(bang_terms())
def test_normal_form_agreement(term):
    empty = not redexes(term)
    assert empty == classify_nf(term).normal == (step_dw(term) is None)


@given(bang_terms())
def test_wcf_grammar_agrees_with_clash_scan(term):
    wcf_normal = bool(classify_wcf_nf(term).memberships)
    assert wcf_normal == (classify_nf(term).normal and detect_clash(term).clash_free)


@given(bang_terms())
def test_dw_step_is_a_weak_step(term):
    r = step_dw(term)
    if r is not None:
        pos, kind, out = r
        assert (pos, kind) in redexes(term)
        assert step_at(term, pos, kind) == out


@given(bang_terms(max_leaves=5))
def test_weak_diamond(term):
    rs = redexes(term)
    reducts = [(kind, step_at(term, pos, kind)) for pos, kind in rs]
    for i in range(len(reducts)):
        for j in range(i + 1, len(reducts)):
            k1, t1 = reducts[i]
            k2, t2 = reducts[j]
            if t1 == t2:
                continue
            close1 = {canon_key(step_at(t1, p, k)) for p, k in redexes(t1) if k == k2}
            close2 = {canon_key(step_at(t2, p, k)) for p, k in redexes(t2) if k == k1}
            assert close1 & close2, (print_term(term), k1, k2)


@given(bang_terms(max_leaves=5))
def test_same_reduct_implies_same_rule_kind(term):
    seen: dict = {}
    for pos, kind in redexes(term):
        out = step_at(term, pos, kind)
        if out in seen:
            assert seen[out] == kind
        seen[out] = kind


def test_two_redexes_can_share_a_reduct():
    # (y[x\!z])[x\!z]: firing either closure yields y[x\!z]; the rule kind
    # is the same (s!) even though the redexes differ.
    term = t(r"y[x \ !z][x \ !z]")
    outs = [(step_at(term, pos, kind), kind) for pos, kind in redexes(term)]
    assert len(outs) == 2
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1] == RuleKind.SBANG


def test_trace_profile_of_example():
    graph = reachable_graph(t(T0), max_states=100)
    assert trace_profile(graph) == (5, 2, 3)


def _der_bang_tower(n):
    """der(!der(!...der(!x)...)) with n derelictions, built without the
    parser: its one trace fires the outermost d! n times."""
    term = Var("x")
    for _ in range(n):
        term = Der(Bang(term))
    return term


@pytest.mark.parametrize("n, limit", [(999, {}), (1_200, {"max_states": 2_000})],
                         ids=["999-default-states", "1200-2000-states"])
def test_exploration_follows_traces_longer_than_the_recursion_limit(n, limit):
    assert sys.getrecursionlimit() <= 1_000  # the interpreter's default
    term = _der_bang_tower(n)
    graph = reachable_graph(term, **limit)
    assert len(graph.terms) == n + 1
    assert trace_profile(graph) == (n, 0, n)
    traces, exhausted = enumerate_maximal_traces(term, 10_000)
    assert not exhausted and len(traces) == 1
    (trace,) = traces
    assert trace.completed and len(trace.steps) == n and trace.final == Var("x")
    assert {s.rule for s in trace.steps} == {RuleKind.DBANG}


def test_alternate_free_reduction_path_of_the_example():
    # the free relation also allows firing the inner closure first:
    # x[y\!Om][x\!I]  ->s!(inner)  x[x\!I]  ->s!  I
    mid = t(r"x[y \ !((\x.x x) (\x.x x))][x \ !(\z.z)]")
    inner = step_at(mid, (Sel.SUB_BODY,), RuleKind.SBANG)
    assert inner == t(r"x[x \ !(\z.z)]")
    assert step_at(inner, (), RuleKind.SBANG) == t(r"\z.z")
    # the deterministic strategy fires the outer closure instead
    pos, kind, out = step_dw(mid)
    assert (pos, kind) == ((), RuleKind.SBANG)
    assert out == t(r"(\z.z)[y \ !((\x.x x) (\x.x x))]")
