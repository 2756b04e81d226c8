import random

import pytest

from bangcalc.syntax import parse_term, w_size
from bangcalc.reduction import normalize_dw
from bangcalc.qtypes import (
    Arrow, BaseVar, Mult, Tight, TIGHT_ABS, TIGHT_BANG, TIGHT_NEUTRAL, mult,
)
from bangcalc.system_e import (
    DerivationE, check_derivation_e, expand_derivation_e, infer_tight,
    is_tight, mk_ae_d, mk_ae_t, mk_ai_d, mk_ai_t, mk_ax_e, mk_bg_d, mk_bg_t,
    mk_dr_d, mk_es_t, reduce_derivation_e, type_normal_form_tight,
)
from bangcalc.system_u import IllFormed, Untypable, antisubst_derivation
from bangcalc.gen import rand_bang_term
from bangcalc.acceptance import check_tight_meta

from conftest import REFRESHED_INNER_BINDERS, subst_derivation

T0 = r"der(!(\x.\y.x)) !(\z.z) !((\x.x x) (\x.x x))"


def t(s):
    return parse_term(s)


def example_tight_derivation():
    """The displayed tight derivation for the running example: (2,3,1)."""
    lam_k = mk_ai_d("x", mk_ai_d("y", mk_ax_e("x", TIGHT_ABS)))
    dr_k = mk_dr_d(mk_bg_d(lam_k.subject, (lam_k,)))
    lam_i = mk_ai_t("z", mk_ax_e("z", TIGHT_NEUTRAL))
    app1 = mk_ae_d(dr_k, mk_bg_d(lam_i.subject, (lam_i,)))
    return mk_ae_d(app1, mk_bg_d(t(r"(\x.x x) (\x.x x)"), ()))


class TestChecker:
    def test_example_derivation_checks_with_counters(self):
        d = example_tight_derivation()
        assert d.subject == t(T0)
        assert check_derivation_e(d) is None
        assert d.counters == (2, 3, 1) and is_tight(d)

    def test_persistent_bang_node(self):
        d = mk_bg_t(t(r"(\x.x x) (\x.x x)"))
        assert check_derivation_e(d) is None
        assert d.type == TIGHT_BANG and d.counters == (0, 0, 0) and d.context == {}

    def test_counter_arithmetic_is_enforced(self):
        inner = mk_ax_e("x", TIGHT_NEUTRAL)
        good = mk_ai_d("x", inner)
        bad = DerivationE("ai_d", good.context, good.subject, good.type,
                          (0, 0, 0), good.premises)
        v = check_derivation_e(bad)
        assert v is not None and "multiplicative counter" in v.reason

    def test_persistent_bang_must_have_empty_context(self):
        good = mk_bg_t(t("x"))
        bad = DerivationE("bg_t", {"x": mult([TIGHT_NEUTRAL])}, good.subject,
                          good.type, good.counters)
        v = check_derivation_e(bad)
        assert v is not None and "empty context" in v.reason


class TestTight:
    def test_example_is_tight(self):
        assert is_tight(example_tight_derivation())

    def test_base_variable_type_is_not_tight(self):
        assert not is_tight(mk_ax_e("x", BaseVar(0)))

    def test_multiset_conclusion_is_not_tight(self):
        d = mk_bg_d(t(r"(\x.x x) (\x.x x)"), ())
        assert d.counters == (0, 1, 0) and not is_tight(d)


class TestTypeNormalFormTight:
    def test_identity(self):
        d = type_normal_form_tight(t(r"\z.z"))
        assert d.type == TIGHT_ABS and d.counters == (0, 0, 1)
        assert check_derivation_e(d) is None

    def test_neutral_application_with_bang_argument(self):
        d = type_normal_form_tight(t("x !y"))
        assert d.type == TIGHT_NEUTRAL and d.counters == (0, 0, 1)
        assert d.context == {"x": mult([TIGHT_NEUTRAL])}
        assert check_derivation_e(d) is None

    def test_variable(self):
        d = type_normal_form_tight(t("x"))
        assert d.counters == (0, 0, 0) and d.type == TIGHT_NEUTRAL

    def test_counters_equal_size_on_random_normal_forms(self):
        rng = random.Random(5)
        done = 0
        while done < 80:
            term = rand_bang_term(rng, rng.randint(2, 8))
            from bangcalc.reduction import classify_wcf_nf
            if not classify_wcf_nf(term).memberships:
                continue
            d = type_normal_form_tight(term)
            assert d.counters == (0, 0, w_size(term))
            assert check_derivation_e(d) is None and is_tight(d)
            done += 1


class TestSubstitution:
    def test_variable_case_keeps_argument_counters(self):
        d_t = mk_ax_e("x", TIGHT_NEUTRAL)
        d_u = type_normal_form_tight(t("der(y)"))
        out = subst_derivation(d_t, "x", [d_u])
        assert out == d_u

    def test_empty_case_keeps_counters(self):
        d_t = mk_ax_e("y", TIGHT_NEUTRAL)
        assert subst_derivation(d_t, "x", []) == d_t

    def test_counters_add_and_antisubstitution_splits(self):
        d_t = mk_es_t("q", mk_ax_e("x", TIGHT_NEUTRAL), mk_ax_e("q", TIGHT_NEUTRAL))
        # subject x[q \ q]: substitute der(y) for the free x
        d_u = type_normal_form_tight(t("der(y)"))
        merged = subst_derivation(d_t, "x", [d_u])
        assert check_derivation_e(merged) is None
        assert merged.counters == (d_t.b + d_u.b, d_t.e + d_u.e, d_t.s + d_u.s)
        back, us = antisubst_derivation(merged, d_t.subject, "x", t("der(y)"))
        assert (back.context, back.subject, back.type, back.counters) == \
            (d_t.context, d_t.subject, d_t.type, d_t.counters)
        assert [u.counters for u in us] == [d_u.counters]


class TestExactReduceExpand:
    def test_dereliction_step_lowers_e(self):
        d = example_tight_derivation()
        tr = normalize_dw(t(T0), 100)
        d1 = reduce_derivation_e(d, (tr.steps[0].position, tr.steps[0].rule))
        assert d1.counters == (2, 2, 1)
        assert check_derivation_e(d1) is None

    def test_beta_step_lowers_b(self):
        term = t(r"(\x.x) !y")
        tr = normalize_dw(term, 10)
        d = infer_tight(term, 10)
        d1 = reduce_derivation_e(d, (tr.steps[0].position, tr.steps[0].rule))
        assert (d1.b, d1.e, d1.s) == (d.b - 1, d.e, d.s)

    def test_trace_ends_at_size_only_counters(self):
        term = t(T0)
        tr = normalize_dw(term, 100)
        d = infer_tight(term, 100)
        for st in tr.steps:
            d = reduce_derivation_e(d, (st.position, st.rule))
        assert d.counters == (0, 0, 1)

    def test_full_replay_reaches_the_example_counters(self):
        term = t(T0)
        tr = normalize_dw(term, 100)
        d = type_normal_form_tight(tr.final)
        terms = [term] + [s.result for s in tr.steps]
        for i in range(len(tr.steps) - 1, -1, -1):
            d = expand_derivation_e(d, terms[i], (tr.steps[i].position, tr.steps[i].rule))
        assert d.counters == (2, 3, 1) and d.subject == term

    def test_zero_step_replay_is_identity(self):
        d = type_normal_form_tight(t(r"\z.z"))
        from bangcalc.system_e import replay_expansion_e
        tr = normalize_dw(t(r"\z.z"), 5)
        assert replay_expansion_e(d, tr) == d


class TestInferTight:
    def test_example(self):
        d = infer_tight(t(T0), 100)
        assert d.counters == (2, 3, 1) and is_tight(d)

    def test_already_normal_identity(self):
        d = infer_tight(t(r"\z.z"), 10)
        assert d.counters == (0, 0, 1)

    def test_counters_match_measurement(self):
        term = t(r"(\x.\y.x) !(\z.z)")
        tr = normalize_dw(term, 50)
        d = infer_tight(term, 50)
        assert d.counters == (tr.b, tr.e, w_size(tr.final))

    def test_clash_normal_form_is_untypable(self):
        assert isinstance(infer_tight(t(r"der((\y.\x.z) (der(y) y))"), 50), Untypable)


class TestPersistentBetaRedexes:
    """dB steps whose created closure survives to the normal form force
    the wider persistent rules; the narrow rule set cannot type these
    terms tightly at all."""

    def test_identity_on_a_neutral_argument(self):
        d = infer_tight(t(r"(\x.x) y"), 10)
        assert d.counters == (1, 0, 1) and is_tight(d)
        assert check_derivation_e(d) is None
        # the root must be the arrow-shaped persistent application
        assert d.rule == "ae_t" and isinstance(d.premises[0].type, Arrow)

    def test_spine_interposed_between_abstraction_and_argument(self):
        term = t(r"((\x.x)[z \ w]) y")
        tr = normalize_dw(term, 10)
        d = infer_tight(term, 10)
        assert d.counters == (tr.b, tr.e, w_size(tr.final)) == (1, 0, 2)

    def test_iterated_persistent_redexes(self):
        term = t(r"((\z.\x.x) y1) y2")
        tr = normalize_dw(term, 10)
        d = infer_tight(term, 10)
        assert d.counters == (tr.b, tr.e, w_size(tr.final)) == (2, 0, 2)

    def test_narrow_rules_cannot_type_these_redexes(self):
        # Executable sketch of why the wider rules are needed, for
        # subject (\x.x) y.  Every derivation of \x.x ends in ai_d
        # (concluding an arrow) or ai_t (concluding a); neither gives n,
        # so a persistent application with an n-typed function is out.
        # The consuming application then needs y typed with the arrow
        # domain [sigma], and the only rule for a variable is the axiom,
        # whose context entry [[sigma]] is never a tight multiset.  The
        # choice of sigma below is arbitrary; untightness is uniform.
        from bangcalc.qtypes import is_tight_mult
        for sigma in (TIGHT_NEUTRAL, TIGHT_ABS, TIGHT_BANG, BaseVar(0),
                      mult([TIGHT_NEUTRAL])):
            fn_consuming = mk_ai_d("x", mk_ax_e("x", sigma))
            assert isinstance(fn_consuming.type, Arrow)
            if isinstance(sigma, Tight):
                assert mk_ai_t("x", mk_ax_e("x", sigma)).type == TIGHT_ABS
            argument = mk_ax_e("y", mult([sigma]))
            assert not is_tight_mult(argument.context["y"])


def _sweep_nodes(d):
    yield d
    for p in d.premises:
        yield from _sweep_nodes(p)


class TestMetaProperties:
    # selftest criterion 11's check: zero counters characterise normal
    # subjects, and every node spreads tightness
    def test_zero_counters_characterise_normal_subjects(self):
        rng = random.Random(7)
        for _ in range(120):
            term = rand_bang_term(rng, rng.randint(2, 7))
            d = infer_tight(term, 200)
            if isinstance(d, DerivationE):
                assert is_tight(d) and d.subject == term
                assert check_tight_meta(d) is None

    def test_spreading_holds_at_every_node(self):
        rng = random.Random(8)
        for _ in range(120):
            d = infer_tight(rand_bang_term(rng, rng.randint(2, 7)), 200)
            if isinstance(d, DerivationE):
                assert check_tight_meta(d) is None

    def test_shape_remark(self):
        rng = random.Random(9)
        for _ in range(120):
            term = rand_bang_term(rng, rng.randint(2, 7))
            d = infer_tight(term, 200)
            if not isinstance(d, DerivationE):
                continue
            for node in _sweep_nodes(d):
                from bangcalc.syntax import is_abs_shaped, is_bang_shaped
                if is_abs_shaped(node.subject):
                    assert node.type == TIGHT_ABS or isinstance(node.type, Arrow)
                if is_bang_shaped(node.subject):
                    assert node.type == TIGHT_BANG or isinstance(node.type, Mult)

    def test_typable_subjects_are_weak_clash_free(self):
        from bangcalc.reduction import detect_clash
        rng = random.Random(10)
        for _ in range(120):
            term = rand_bang_term(rng, rng.randint(2, 7))
            d = infer_tight(term, 200)
            if not isinstance(d, DerivationE):
                continue
            for node in _sweep_nodes(d):
                assert detect_clash(node.subject).clash_free


def test_narrow_persistent_application_shape_still_accepted():
    # head-variable applications use the classical ae_t shape
    d = mk_ae_t(mk_ax_e("x", TIGHT_NEUTRAL), mk_bg_t(t("w")))
    assert check_derivation_e(d) is None
    assert d.type == TIGHT_NEUTRAL and d.counters == (0, 0, 1)
    with pytest.raises(IllFormed):
        mk_ae_t(mk_ax_e("x", TIGHT_NEUTRAL), mk_ai_t("q", mk_ax_e("q", TIGHT_NEUTRAL)))


@pytest.mark.parametrize("text", REFRESHED_INNER_BINDERS)
def test_exact_expansion_restores_binders_refreshed_inside_a_renamed_body(text):
    term = parse_term(text)
    d = infer_tight(term, 100)
    tr = normalize_dw(term, 100)
    assert isinstance(d, DerivationE) and d.subject == term
    assert check_derivation_e(d) is None
    assert d.counters == (tr.b, tr.e, w_size(tr.final))

