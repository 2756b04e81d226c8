import random

import pytest
from hypothesis import given

from bangcalc.syntax import (
    Abs, App, Bang, Der, Sub, Var, alpha_eq, parse_term, print_term, subst_meta,
)
from bangcalc.reduction import FuelExhausted, RuleKind, redexes, step_at
from bangcalc.qtypes import BaseVar, mult
from bangcalc.cbn_cbv import (
    NotLambdaTerm, check_derivation_n, check_derivation_v, classify_lambda_nf,
    embed_cbn, embed_cbv, infer_n, infer_v, mk_abs_v, mk_ax_n, mk_ax_v,
    n_size, normalize_n, normalize_v, size_n, size_v, step_n, step_v, v_size,
)
from bangcalc.system_u import Derivation
from bangcalc.gen import rand_lambda_term
from bangcalc.acceptance import check_bound, check_round_trip

from conftest import lambda_terms, lambda_values


def t(s):
    return parse_term(s)


def unbang_value(v):
    """The u with cbv(v) = !u, for a value v."""
    image = embed_cbv(v)
    assert isinstance(image, Bang)
    return image.body


OMEGA = r"(\x.x x) (\x.x x)"


class TestStrategies:
    def test_cbn_beta_then_substitution(self):
        tr = normalize_n(t(r"(\x.x) y"), 10)
        assert [s.rule for s in tr.steps] == [RuleKind.DB, RuleKind.S]
        assert tr.final == Var("y")

    def test_cbv_substitutes_values(self):
        tr = normalize_v(t(r"x[x \ y]"), 10)
        assert [s.rule for s in tr.steps] == [RuleKind.SV]
        assert tr.final == Var("y")

    def test_cbv_does_not_substitute_non_values(self):
        assert step_v(t(r"x[x \ y z]")) is None

    def test_cbn_substitutes_anything(self):
        pos, kind, out = step_n(t(r"x[x \ y z]"))
        assert kind is RuleKind.S and out == t("y z")

    def test_cbv_stops_under_lambda_cbn_does_not(self):
        term = t(r"\x. (\y.y) z")
        assert step_v(term) is None
        assert step_n(term) is not None

    def test_distance_beta(self):
        pos, kind, out = step_v(t(r"(\x.x)[z \ w] y"))
        assert kind is RuleKind.DB and out == t(r"x[x \ y][z \ w]")

    def test_rejects_bang_terms(self):
        with pytest.raises(NotLambdaTerm):
            normalize_n(t("!x"), 5)


class TestClassify:
    def test_application_of_variable(self):
        cls = classify_lambda_nf(t("x y"))
        assert "ne_n" in cls.cbn and "ne_v" in cls.cbv

    def test_value_with_frozen_body(self):
        cls = classify_lambda_nf(t(r"\x." + OMEGA))
        assert cls.v_normal and not cls.n_normal

    def test_substituted_variable(self):
        cls = classify_lambda_nf(t(r"x[x \ y z]"))
        assert "vr_v" in cls.cbv

    def test_agreement_with_steppers(self):
        rng = random.Random(2)
        for _ in range(200):
            term = rand_lambda_term(rng, rng.randint(1, 7))
            cls = classify_lambda_nf(term)
            assert cls.n_normal == (step_n(term) is None)
            assert cls.v_normal == (step_v(term) is None)


class TestEmbeddings:
    def test_cbn_application(self):
        assert embed_cbn(t("x y")) == t("x !y")

    def test_cbn_closure(self):
        assert embed_cbn(t(r"x[x \ y]")) == t(r"x[x \ !y]")

    def test_cbv_application_unbangs_the_head(self):
        assert embed_cbv(t("x y")) == t("x !y")

    def test_cbv_abstraction(self):
        assert embed_cbv(t(r"\x.x")) == t(r"!(\x. !x)")

    def test_cbv_inserts_dereliction_on_non_value_heads(self):
        assert embed_cbv(t("(x y) z")) == t("der(x !y) !z")

    def test_unbang_value(self):
        assert unbang_value(Var("x")) == Var("x")
        assert unbang_value(t(r"\x.x")) == t(r"\x. !x")


def _no_double_bang(term):
    match term:
        case Bang(Bang(_)):
            return False
        case Bang(b) | Der(b) | Abs(_, b):
            return _no_double_bang(b)
        case App(f, a):
            return _no_double_bang(f) and _no_double_bang(a)
        case Sub(b, _, a):
            return _no_double_bang(b) and _no_double_bang(a)
        case Var(_):
            return True


@given(lambda_terms())
def test_no_double_bang_in_value_images(term):
    assert _no_double_bang(embed_cbv(term))


@given(lambda_terms(4), lambda_terms(4))
def test_cbn_substitution_commutes(term, u):
    lhs = embed_cbn(subst_meta(term, "x", u))
    rhs = subst_meta(embed_cbn(term), "x", embed_cbn(u))
    assert alpha_eq(lhs, rhs)


@given(lambda_terms(4), lambda_values())
def test_cbv_substitution_commutes(term, v):
    lhs = embed_cbv(subst_meta(term, "x", v))
    rhs = subst_meta(embed_cbv(term), "x", unbang_value(v))
    assert alpha_eq(lhs, rhs)


@given(lambda_terms())
def test_normal_forms_are_preserved(term):
    cls = classify_lambda_nf(term)
    if cls.n_normal:
        assert not redexes(embed_cbn(term))
    if cls.v_normal:
        assert not redexes(embed_cbv(term))


@given(lambda_terms(5))
def test_simulation(term):
    hops = 0
    cur = term
    while hops < 12 and (r := step_n(cur)) is not None:
        nxt = r[2]
        img, tgt = embed_cbn(cur), embed_cbn(nxt)
        assert any(alpha_eq(step_at(img, p, k), tgt) for p, k in redexes(img))
        cur, hops = nxt, hops + 1
    hops = 0
    cur = term
    while hops < 12 and (r := step_v(cur)) is not None:
        nxt = r[2]
        img, tgt = embed_cbv(cur), embed_cbv(nxt)
        if not any(alpha_eq(step_at(img, p, k), tgt) for p, k in redexes(img)):
            found = False
            for p, k in redexes(img):
                mid = step_at(img, p, k)
                if any(k2 is RuleKind.DBANG and alpha_eq(step_at(mid, p2, k2), tgt)
                       for p2, k2 in redexes(mid)):
                    found = True
                    break
            assert found, print_term(cur)
        cur, hops = nxt, hops + 1


class TestSizes:
    def test_n_size_ignores_arguments(self):
        assert n_size(t("x y")) == 1

    def test_v_size_ignores_abstraction_bodies(self):
        assert v_size(t(r"\x." + OMEGA)) == 0

    def test_v_size_counts_both_application_sides(self):
        assert v_size(t("x y")) == 1


class TestCheckers:
    def test_name_axiom(self):
        d = mk_ax_n("x", BaseVar(0))
        assert check_derivation_n(d) is None and size_n(d) == 1

    def test_value_axiom_counts_the_multiset(self):
        m = mult([BaseVar(1), BaseVar(2)])
        d = mk_ax_v("x", m)
        assert check_derivation_v(d) is None and size_v(d) == 2

    def test_empty_value_abstraction(self):
        d = mk_abs_v("x", t(OMEGA), ())
        assert check_derivation_v(d) is None
        assert d.type == mult([]) and size_v(d) == 0


class TestInferAndTranslate:
    def test_cbn_inference_meets_the_bound(self):
        term = t(r"(\x.x) y")
        d = infer_n(term, 50)
        tr = normalize_n(term, 50)
        assert isinstance(d, Derivation)
        assert size_n(d) >= tr.b + tr.e + n_size(tr.final) == 2

    def test_frozen_divergence_is_v_typable(self):
        d = infer_v(t(r"\x." + OMEGA), 50)
        assert isinstance(d, Derivation) and check_derivation_v(d) is None

    def test_omega_exhausts_fuel_in_both_strategies(self):
        assert isinstance(infer_n(t(OMEGA), 50), FuelExhausted)
        assert isinstance(infer_v(t(OMEGA), 50), FuelExhausted)

    # selftest criteria 9 and 10's checks
    def test_round_trips_preserve_judgements(self):
        rng = random.Random(13)
        done = {"N": 0, "V": 0}
        for _ in range(120):
            term = rand_lambda_term(rng, rng.randint(2, 7))
            for name, infer in (("N", infer_n), ("V", infer_v)):
                d = infer(term, 200)
                if isinstance(d, Derivation):
                    assert check_round_trip(term, d, name) is None
                    done[name] += 1
        assert done["N"] > 30 and done["V"] > 30

    def test_quantitative_bounds_hold_on_a_corpus(self):
        rng = random.Random(14)
        for _ in range(120):
            term = rand_lambda_term(rng, rng.randint(2, 7))
            for name, infer in (("N", infer_n), ("V", infer_v)):
                d = infer(term, 200)
                if isinstance(d, Derivation):
                    assert check_bound(term, d, name) is None

    def test_expansion_keeps_binders_renamed_back_under_antisubstitution(self):
        # Expansion refreshes a binder of the pre-step body during
        # anti-substitution and renames it back; the body must get its own
        # inner binder names back too.
        term = t(r"(\y. x)[x \ \z. (y y)[w \ f]]"
                 r"[y \ (w (w (\z. w)))[y \ w][w \ \x. z[w \ x][z \ x]]]")
        d = infer_v(term, 2000)
        assert isinstance(d, Derivation)
        assert d.subject == term
        assert check_derivation_v(d) is None

    def test_inference_survives_refreshes_that_collide_with_bound_names(self):
        # Over x, y and the names fresh_name refreshes them to, a binder
        # refreshed by a firing often meets one already in the term.
        names = ("x", "y", "x0", "y0", "y1")

        def term(rng, size):
            if size <= 1:
                return Var(rng.choice(names))
            kind, left = rng.randrange(3), rng.randint(1, size - 1)
            if kind == 0:
                return App(term(rng, left), term(rng, size - left))
            if kind == 1:
                return Abs(rng.choice(names), term(rng, size - 1))
            return Sub(term(rng, left), rng.choice(names), term(rng, size - left))

        rng = random.Random(1)
        for _ in range(600):
            lam = term(rng, rng.randint(3, 16))
            for infer, check in ((infer_n, check_derivation_n), (infer_v, check_derivation_v)):
                d = infer(lam, 60)
                if isinstance(d, Derivation):
                    assert d.subject == lam and check(d) is None
