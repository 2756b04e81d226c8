import pytest
from hypothesis import given

from bangcalc.syntax import (
    Abs, App, Bang, Der, Sub, Var, ParseError,
    alpha_eq, free_vars, parse_term, print_term, spine_core,
    subst_meta, w_size,
)

from conftest import bang_terms


def t(s):
    return parse_term(s)


class TestParse:
    def test_prefix_operators_bind_tighter_than_application(self):
        assert t("der(!k) !i !o") == App(
            App(Der(Bang(Var("k"))), Bang(Var("i"))), Bang(Var("o")))

    def test_lambda_body_extends_right(self):
        assert t(r"\x. x x") == Abs("x", App(Var("x"), Var("x")))

    def test_closure_binds_tighter_than_application(self):
        assert t(r"x[y \ !z] w") == App(Sub(Var("x"), "y", Bang(Var("z"))), Var("w"))

    def test_unicode_and_ascii_forms(self):
        assert t("λx. x") == t(r"\x. x")
        assert t("x[y := z]") == t(r"x[y \ z]")

    def test_der_with_and_without_parens(self):
        assert t("der x") == t("der(x)") == Der(Var("x"))
        assert t("der !x") == Der(Bang(Var("x")))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError):
            t("x [")
        with pytest.raises(ParseError):
            t(")")

    def test_strict_mode_rejects_free_names(self):
        with pytest.raises(ParseError):
            parse_term("x y", strict=True)
        parse_term(r"\x. x", strict=True)


class TestPrint:
    def test_abstraction(self):
        assert print_term(Abs("z", Var("z"))) == r"\z. z"

    def test_bang_parenthesizes_applications(self):
        assert print_term(Bang(App(Var("x"), Var("y")))) == "!(x y)"

    def test_closure(self):
        assert print_term(Sub(Var("x"), "x", Bang(Var("y")))) == r"x[x \ !y]"


class TestFreeVars:
    def test_closure_binder_scopes_over_body_only(self):
        assert free_vars(Sub(Var("x"), "x", Var("y"))) == {"y"}

    def test_abstraction(self):
        assert free_vars(Abs("x", Var("x"))) == set()

    def test_bang_is_transparent(self):
        assert free_vars(App(Var("x"), Bang(Var("x")))) == {"x"}


class TestSubst:
    def test_replaces_all_free_occurrences(self):
        i = Abs("z", Var("z"))
        out = subst_meta(App(Var("x"), Bang(Var("x"))), "x", i)
        assert out == App(i, Bang(i))

    def test_capture_avoidance_renames_binder(self):
        out = subst_meta(Abs("y", Var("x")), "x", Var("y"))
        assert isinstance(out, Abs) and out.binder != "y" and out.body == Var("y")

    def test_not_free_is_identity(self):
        u = t(r"\z. z z")
        assert subst_meta(Var("y"), "x", u) == Var("y")


class TestAlpha:
    def test_abstractions(self):
        assert alpha_eq(t(r"\z. z"), t(r"\w. w"))

    def test_closures(self):
        assert alpha_eq(t(r"x[x \ !y]"), t(r"z[z \ !y]"))

    def test_distinguishes_binding_structure(self):
        assert not alpha_eq(t(r"\x. \y. x"), t(r"\x. \y. y"))


class TestWSize:
    def test_identity(self):
        assert w_size(t(r"\z. z")) == 1

    def test_bang_is_zero(self):
        assert w_size(t(r"!((\x. x x) (\x. x x))")) == 0

    def test_der_application(self):
        # by the defining recursion: 1 + (1 + 0) + 0
        assert w_size(t("der(x) y")) == 2


class TestDecompose:
    # a term is L<core>: a closure spine L around a core that is no closure
    def test_bang_core(self):
        assert spine_core(t("!x")) == t("!x")

    def test_other_core(self):
        assert spine_core(t(r"(x[y \ u])[z \ v]")) == Var("x")


def _freshen_all_binders(term, salt=0):
    """An alpha-variant with every binder renamed, for invariance tests."""
    match term:
        case Var(_):
            return term
        case App(f, a):
            return App(_freshen_all_binders(f, salt), _freshen_all_binders(a, salt + 1))
        case Bang(b):
            return Bang(_freshen_all_binders(b, salt))
        case Der(b):
            return Der(_freshen_all_binders(b, salt))
        case Abs(x, b):
            nx = f"r{salt}_{x}"
            return Abs(nx, _freshen_all_binders(subst_meta(b, x, Var(nx)), salt + 1))
        case Sub(b, x, a):
            nx = f"r{salt}_{x}"
            return Sub(_freshen_all_binders(subst_meta(b, x, Var(nx)), salt + 1),
                       nx, _freshen_all_binders(a, salt + 2))


@given(bang_terms())
def test_round_trip(term):
    assert alpha_eq(parse_term(print_term(term)), term)


@given(bang_terms())
def test_subst_of_non_free_name_is_identity(term):
    assert subst_meta(term, "fresh_name_q", Var("u")) == term


@given(bang_terms())
def test_w_size_alpha_invariant(term):
    variant = _freshen_all_binders(term)
    assert alpha_eq(term, variant)
    assert w_size(term) == w_size(variant)

