import contextlib
import random
import re
import sys

import pytest
from hypothesis import given

from bangcalc import system_u
from bangcalc.syntax import App, Var, parse_term, subst_meta, term_eq, w_size
from bangcalc.reduction import FuelExhausted, classify_wcf_nf, normalize_dw
from bangcalc.qtypes import Arrow, BaseVar, EMPTY_MULT, mult, print_type
from bangcalc.system_u import (
    Derivation, IllFormed, NotTypableNormalForm, Untypable,
    antisubst_derivation, check_derivation_u, infer_u, mk_abs, mk_app, mk_ax, mk_bg,
    mk_dr, mk_es, size_u, subject_expansion, subject_reduction, type_normal_form_u,
)
from bangcalc.gen import generate_corpus, rand_bang_term
from bangcalc.acceptance import check_weighted_reduction
from bangcalc.cbn_cbv import (
    check_derivation_n, check_derivation_v, embed_cbn, infer_n, infer_v, translate_n_to_u,
    translate_v_to_u,
)
from bangcalc.serialize import derivation_from_json, derivation_to_json
from bangcalc.system_e import check_derivation_e, infer_tight, type_normal_form_tight

from conftest import (
    REFRESHED_INNER_BINDERS, bang_terms, church_term, derivation_nodes, ref_type_normal_form_tight,
    ref_type_normal_form_u, same_derivation, subst_derivation,
)

T0 = r"der(!(\x.\y.x)) !(\z.z) !((\x.x x) (\x.x x))"
TAU = BaseVar(0)


def t(s):
    return parse_term(s)


def example_derivation():
    """The size-8 derivation for the running example, at target o0."""
    ax_k = mk_ax("x", Arrow(mult([TAU]), TAU))
    lam_k = mk_abs("x", mk_abs("y", ax_k))
    dr_k = mk_dr(mk_bg(lam_k.subject, (lam_k,)))
    lam_i = mk_abs("z", mk_ax("z", TAU))
    app1 = mk_app(dr_k, mk_bg(lam_i.subject, (lam_i,)))
    return mk_app(app1, mk_bg(t(r"(\x.x x) (\x.x x)"), ()))


class TestChecker:
    def test_example_derivation_checks_with_size_8(self):
        d = example_derivation()
        assert d.subject == t(T0)
        assert check_derivation_u(d) is None
        assert size_u(d) == 8

    def test_axiom_context_must_be_a_singleton(self):
        sigma = TAU
        bad = Derivation("ax", {"x": mult([sigma, sigma])}, t("x"), sigma)
        v = check_derivation_u(bad)
        assert v is not None and "singleton" in v.reason

    def test_nullary_bang_types_untyped_body(self):
        d = mk_bg(t(r"(\x.x x) (\x.x x)"), ())
        assert check_derivation_u(d) is None
        assert d.type == EMPTY_MULT and d.context == {}
        assert size_u(d) == 0

    def test_mismatched_application_is_rejected(self):
        fn = mk_abs("x", mk_ax("x", TAU))          # : [o0] -> o0
        arg = mk_bg(t("y"), (mk_ax("y", BaseVar(1)),))  # : [o1]
        with pytest.raises(IllFormed):
            mk_app(fn, arg)
        raw = Derivation("app", {"y": mult([BaseVar(1)])},
                         t(r"(\x.x) !y"), TAU, (fn, arg))
        v = check_derivation_u(raw)
        assert v is not None and "domain" in v.reason

    def test_dereliction_needs_a_singleton_multiset(self):
        two = mk_bg(t("y"), (mk_ax("y", TAU), mk_ax("y", BaseVar(1))))
        with pytest.raises(IllFormed):
            mk_dr(two)

    def test_closure_argument_must_realize_the_binder_multiset(self):
        body = mk_ax("x", TAU)                      # x:[o0] |- x : o0
        arg = mk_bg(t("z"), (mk_ax("z", BaseVar(1)),))   # : [o1]
        with pytest.raises(IllFormed):
            mk_es("x", body, arg)


class TestTypeNormalForm:
    def test_neutral_hits_the_requested_target(self):
        d = type_normal_form_u(t("x"), TAU)
        assert d.rule == "ax" and d.type == TAU and d.context == {"x": mult([TAU])}

    def test_bang_gets_the_empty_multiset(self):
        d = type_normal_form_u(t(r"!((\x.x x) (\x.x x))"))
        assert d.type == EMPTY_MULT and d.context == {}

    def test_identity_gets_a_fresh_base_arrow(self):
        d = type_normal_form_u(t(r"\z.z"))
        assert d.type == Arrow(mult([TAU]), TAU)
        assert check_derivation_u(d) is None

    def test_rejects_non_normal_terms(self):
        with pytest.raises(NotTypableNormalForm):
            type_normal_form_u(t(r"(\x.x) !y"))
        with pytest.raises(NotTypableNormalForm):
            type_normal_form_u(t(r"der((\x.z)[y \ der(y) y])"))


def test_an_untypable_normal_form_is_printed_only_when_its_message_is_read(monkeypatch):
    # infer_with discards the message; the clash is found without printing
    printed = []
    monkeypatch.setattr(system_u, "print_term", lambda t, memo=None: printed.append(t) or "")
    assert isinstance(infer_u(t(r"(\x. !x) y z"), 100), Untypable)
    assert printed == []
    monkeypatch.undo()
    # the message is the one that was printed when the error was raised
    for text, target, message in ((r"!x y", None, "!x y is not a weak clash-free normal form"),
                                  (r"\x. x", TAU, "only neutral terms accept a target type")):
        with pytest.raises(NotTypableNormalForm) as ex:
            type_normal_form_u(t(text), target)
        assert str(ex.value) == message


def _assert_typers_agree(t):
    """Both normal-form typers build their reference's derivation of t,
    node for node, or raise its error; E's counters are (0, 0, w_size) at
    every node, so at every nf level."""
    for typer, ref in ((type_normal_form_u, ref_type_normal_form_u),
                       (type_normal_form_tight, ref_type_normal_form_tight),
                       (lambda t: type_normal_form_u(t, TAU),
                        lambda t: ref_type_normal_form_u(t, TAU))):
        try:
            want = ref(t)
        except NotTypableNormalForm as ex:
            with pytest.raises(NotTypableNormalForm, match=re.escape(str(ex))):
                typer(t)
            continue
        got = typer(t)
        assert same_derivation(got, want)
    if classify_wcf_nf(t).memberships:
        for node in derivation_nodes(type_normal_form_tight(t)):
            assert node.counters == (0, 0, w_size(node.subject))


@given(bang_terms())
def test_the_typer_builds_the_reference_derivations(term):
    _assert_typers_agree(term)


def test_the_typer_builds_the_reference_derivations_of_corpus_normal_forms():
    typed = 0
    for term in generate_corpus(3, 10, 200):
        trace = normalize_dw(term, 300)
        _assert_typers_agree(trace.final)
        typed += bool(classify_wcf_nf(trace.final).memberships)
    assert typed > 100


class TestSubstitution:
    def _setup(self):
        # t = x !x with x used at [o1] -> o2 and at o1; u = der(y) is
        # neutral, so it can be typed at both element types
        o1, o2 = BaseVar(1), BaseVar(2)
        d_t = mk_app(mk_ax("x", Arrow(mult([o1]), o2)),
                     mk_bg(t("x"), (mk_ax("x", o1),)))
        u = t("der(y)")
        d_us = [type_normal_form_u(u, Arrow(mult([o1]), o2)),
                type_normal_form_u(u, o1)]
        return d_t, u, d_us

    def test_variable_case_returns_the_argument_derivation(self):
        d_t = mk_ax("x", TAU)
        d_u = type_normal_form_u(t("der(y)"), TAU)
        out = subst_derivation(d_t, "x", [d_u])
        assert out == d_u
        assert size_u(out) == size_u(d_t) + size_u(d_u) - 1

    def test_empty_multiset_leaves_the_derivation_unchanged(self):
        d_t = mk_ax("y", TAU)
        assert subst_derivation(d_t, "x", []) == d_t

    def test_size_identity(self):
        d_t, u, d_us = self._setup()
        out = subst_derivation(d_t, "x", d_us)
        assert check_derivation_u(out) is None
        assert out.subject == t("der(y) !(der(y))")
        assert size_u(out) == size_u(d_t) + sum(size_u(d) for d in d_us) - len(d_us)

    def test_anti_substitution_inverts(self):
        d_t, u, d_us = self._setup()
        merged = subst_derivation(d_t, "x", d_us)
        d_back, us_back = antisubst_derivation(merged, d_t.subject, "x", u)
        assert check_derivation_u(d_back) is None
        assert (d_back.context, d_back.subject, d_back.type) == \
            (d_t.context, d_t.subject, d_t.type)
        assert sorted(print_type(d.type) for d in us_back) == \
            sorted(print_type(d.type) for d in d_us)
        assert size_u(merged) == size_u(d_back) + sum(size_u(d) for d in us_back) - len(us_back)

    def test_an_occurrence_bound_by_a_binder_of_the_name_is_kept(self):
        # !((\x. x) x) over two premises, each built on its own subject:
        # only the free x of each takes an argument derivation
        o1, o2 = BaseVar(1), BaseVar(2)
        ps = [mk_app(mk_abs("x", mk_ax("x", o)), mk_ax("x", mult([o]))) for o in (o1, o2)]
        d_t = mk_bg(ps[0].subject, tuple(ps))
        out = subst_derivation(d_t, "x", [mk_ax("y", mult([o])) for o in (o1, o2)])
        assert out.subject == t(r"!((\x. x) y)") and check_derivation_u(out) is None
        assert out.context == {"y": mult([mult([o1]), mult([o2])])}

    def test_mismatched_multiset_is_rejected(self):
        d_t = mk_ax("x", TAU)
        with pytest.raises(IllFormed):
            subst_derivation(d_t, "x", [])


class TestReduceExpand:
    def test_root_beta_collapse_drops_exactly_one_node(self):
        term = t(r"(\x.x) !y")
        d = infer_u(term, 10)
        tr = normalize_dw(term, 10)
        step = (tr.steps[0].position, tr.steps[0].rule)
        d2 = subject_reduction(d, step)
        assert check_derivation_u(d2) is None
        assert size_u(d) == size_u(d2) + 1

    def test_erasing_substitution_keeps_the_context(self):
        term = t(r"y[x \ !z]")
        d = infer_u(term, 10)
        tr = normalize_dw(term, 10)
        d2 = subject_reduction(d, (tr.steps[0].position, tr.steps[0].rule))
        assert d2.context == d.context and d2.type == d.type

    def test_expansion_strictly_increases_size(self):
        term = t(T0)
        tr = normalize_dw(term, 100)
        d = type_normal_form_u(tr.final)
        terms = [term] + [s.result for s in tr.steps]
        sizes = [size_u(d)]
        for i in range(len(tr.steps) - 1, -1, -1):
            d = subject_expansion(d, terms[i], (tr.steps[i].position, tr.steps[i].rule))
            assert check_derivation_u(d) is None
            sizes.append(size_u(d))
        assert d.subject == term
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_erasing_expansion_reintroduces_a_nullary_bang(self):
        # y[x \ !z] -s!-> y erases the argument; expanding the step wraps
        # the untyped !z back in a premise-less bang node
        term = t(r"y[x \ !z]")
        tr = normalize_dw(term, 10)
        d = type_normal_form_u(tr.final, TAU)
        d2 = subject_expansion(d, term, (tr.steps[0].position, tr.steps[0].rule))
        assert d2.rule == "es"
        bang = d2.premises[1]
        assert bang.rule == "bg" and bang.premises == () and bang.subject == t("!z")
        assert d2.context == d.context

    def test_dbang_expansion_adds_the_counted_dereliction_node(self):
        term = t(r"der(!x)")
        tr = normalize_dw(term, 10)
        d = type_normal_form_u(tr.final, TAU)
        d2 = subject_expansion(d, term, (tr.steps[0].position, tr.steps[0].rule))
        # a dereliction node is counted, the bang node underneath is not
        assert size_u(d2) == size_u(d) + 1
        assert check_derivation_u(d2) is None


class TestInfer:
    def test_example_size_bound(self):
        d = infer_u(t(T0), 100)
        assert isinstance(d, Derivation)
        assert size_u(d) >= 2 + 3 + 1

    def test_clash_normal_form_is_untypable(self):
        res = infer_u(t(r"der((\y.\x.z) (der(y) y))"), 100)
        assert isinstance(res, Untypable)

    def test_variable(self):
        d = infer_u(t("x"), 10)
        assert isinstance(d, Derivation) and d.rule == "ax" and size_u(d) == 1

    def test_divergence_reports_fuel(self):
        res = infer_u(t(r"(\x. x !x) !(\x. x !x)"), 50)
        assert isinstance(res, FuelExhausted)


@pytest.mark.parametrize("text", REFRESHED_INNER_BINDERS)
def test_expansion_restores_binders_refreshed_inside_a_renamed_body(text):
    d = infer_u(t(text), 100)
    assert isinstance(d, Derivation)
    assert d.subject == t(text)
    assert check_derivation_u(d) is None


def test_corpus_invariants():
    rng = random.Random(11)
    typable = 0
    for _ in range(150):
        term = rand_bang_term(rng, rng.randint(2, 8))
        res = infer_u(term, 300)
        if not isinstance(res, Derivation):
            continue
        typable += 1
        assert res.subject == term
        # the checker, quantitative soundness and weighted subject reduction
        # (selftest criterion 6's check), and the size floor
        assert check_weighted_reduction(term, normalize_dw(term, 300), res) is None
        assert size_u(res) >= w_size(term)
    assert typable > 30


@given(bang_terms(max_leaves=5))
def test_typable_implies_weak_clash_free(term):
    from bangcalc.reduction import detect_clash
    res = infer_u(term, 60)
    if isinstance(res, Derivation):
        assert detect_clash(term).clash_free


@contextlib.contextmanager
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_deep_church_derivations_at_the_default_recursion_limit():
    """church(1280) builds derivations some 2,500 nodes deep: inferring,
    checking, writing, reading and translating one must not take a frame
    per node."""
    t = church_term(1280)
    for embed, infer, check, to_u in (
            (embed_cbn, infer_u, check_derivation_u, None),
            (embed_cbn, infer_tight, check_derivation_e, None),
            (lambda t: t, infer_n, check_derivation_n, translate_n_to_u),
            (lambda t: t, infer_v, check_derivation_v, translate_v_to_u)):
        with default_recursion_limit():
            d = infer(embed(t), 100_000)
            assert check(d) is None
            assert check(derivation_from_json(derivation_to_json(d))) is None
            if to_u is not None:
                assert check_derivation_u(to_u(d)) is None
        if infer is infer_u:
            assert size_u(d) == sum(node.rule != "bg" for node in derivation_nodes(d))


# x (x (... (x y))): its derivations are DEEP_SPINE nodes deep, and their
# types stay shallow.  The context entry of x at depth k holds k types, so
# the derivation's size grows with the square of its depth: 2,000 levels
# keep it near 100 MB.
DEEP_SPINE = 2_000
DEEP_TERM = 10_000


def _spine(n, leaf="y"):
    t = Var(leaf)
    for _ in range(n):
        t = App(Var("x"), t)
    return t


def test_a_deep_spine_at_the_default_recursion_limit():
    spine = _spine(DEEP_SPINE)
    with default_recursion_limit():
        d, e = type_normal_form_u(spine), type_normal_form_tight(spine)
        assert check_derivation_u(d) is None and check_derivation_e(e) is None
        assert size_u(d) == 2 * DEEP_SPINE + 1 and e.counters == (0, 0, DEEP_SPINE)
        for deep in (d, e):
            assert same_derivation(derivation_from_json(derivation_to_json(deep)), deep)
        # the innermost axiom, y : [], is replaced by z : [], and back
        d_z = type_normal_form_u(Var("z"), EMPTY_MULT)
        out = subst_derivation(d, "y", [d_z])
        assert check_derivation_u(out) is None and term_eq(out.subject, _spine(DEEP_SPINE, "z"))
        d_back, us = antisubst_derivation(out, spine, "y", Var("z"))
        assert same_derivation(d_back, d) and len(us) == 1 and same_derivation(us[0], d_z)


def test_subst_meta_on_a_deep_term_at_the_default_recursion_limit():
    with default_recursion_limit():
        assert term_eq(subst_meta(_spine(DEEP_TERM), "y", Var("z")), _spine(DEEP_TERM, "z"))
