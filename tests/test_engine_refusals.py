"""The derivation engine's refusals, one test each.

Subject reduction and expansion take a derivation and a step from their
caller; a derivation built without makers, or a step that does not fit,
must end in `IllFormed` with the reason below, not in another exception.
Each case is reached through `reduce_derivation`, `expand_derivation` or
`antisubst_derivation` with a hand-built derivation or step."""

from dataclasses import replace

import pytest

from bangcalc.qtypes import Arrow, BaseVar, EMPTY_MULT, mult
from bangcalc.reduction import RuleKind, Sel
from bangcalc.syntax import Bang, Der, Sub, Var, parse_term
from bangcalc.system_u import (
    Derivation, IllFormed, antisubst_derivation, expand_derivation, infer_u, mk_app, mk_ax, mk_bg,
    mk_dr, mk_es, reduce_derivation,
)

O = BaseVar(0)
ROOT = ()


def refused(reason: str, run, *args):
    with pytest.raises(IllFormed) as ex:
        run(*args)
    assert str(ex.value) == reason


# ---------------------------------------------------------------------------
# Subject reduction

def test_db_redex_must_be_typed_by_an_application_rule():
    refused("dB redex must be typed by an application rule",
            reduce_derivation, mk_ax("x", O), (ROOT, RuleKind.DB))


def test_db_function_must_be_a_consuming_abstraction():
    d = mk_app(mk_ax("f", Arrow(EMPTY_MULT, O)), mk_bg(Var("y"), ()))
    refused("dB function must be a consuming abstraction under closures",
            reduce_derivation, d, (ROOT, RuleKind.DB))


def test_sbang_redex_must_be_typed_by_the_closure_rule():
    refused("s! redex must be typed by the consuming closure rule",
            reduce_derivation, mk_ax("x", O), (ROOT, RuleKind.SBANG))


def test_sbang_argument_must_be_a_consuming_bang():
    # x[x \ y], y typed [o] by an axiom: a closure, but not over a bang
    d = mk_es("x", mk_ax("x", O), mk_ax("y", mult([O])))
    refused("s! argument must be a consuming bang under closures",
            reduce_derivation, d, (ROOT, RuleKind.SBANG))


@pytest.mark.parametrize("premises", [(), (mk_ax("y", Arrow(EMPTY_MULT, O)),)],
                         ids=["none", "of-another-type"])
def test_an_axiom_occurrence_needs_an_argument_derivation(premises):
    # x[x \ !y] whose bang gives x's one axiom no derivation of its type
    bang = Derivation("bg", {}, Bang(Var("y")), mult([p.type for p in premises]), premises)
    d = Derivation("es", {}, Sub(Var("x"), "x", Bang(Var("y"))), O, (mk_ax("x", O), bang))
    refused("no argument derivation left for an axiom occurrence",
            reduce_derivation, d, (ROOT, RuleKind.SBANG))


@pytest.mark.parametrize("body", [Var("x"), Var("z")], ids=["one-occurrence", "none"])
def test_every_bang_premise_must_be_taken_by_an_axiom_occurrence(body):
    # x[x \ !y] and z[x \ !y] whose bang has a premise more than x's axioms take
    bang = mk_bg(Var("y"), (mk_ax("y", O), mk_ax("y", O)))
    d = Derivation("es", {}, Sub(body, "x", Bang(Var("y"))), O, (mk_ax(body.name, O), bang))
    refused("s! argument has a premise that no axiom occurrence takes",
            reduce_derivation, d, (ROOT, RuleKind.SBANG))


def test_a_rebuilt_premise_must_have_the_former_of_its_part():
    # (y !x)[x \ !z] with its app node's premises swapped: the substitution
    # walk rebuilds the y axiom along !z, the part the bang premise types
    d = infer_u(parse_term(r"(y !x)[x \ !z]"), 100)
    body = d.premises[0]
    swapped = replace(d, premises=(replace(body, premises=body.premises[::-1]), d.premises[1]))
    refused("subject former differs from the term it is rebuilt along",
            reduce_derivation, swapped, (ROOT, RuleKind.SBANG))


def test_dbang_redex_must_be_typed_by_the_dereliction_rule():
    refused("d! redex must be typed by the consuming dereliction rule",
            reduce_derivation, mk_ax("x", O), (ROOT, RuleKind.DBANG))


def test_dbang_body_must_be_a_unary_bang():
    # der(y), y typed [o] by an axiom; der(!y) with two bang premises
    two = mk_bg(Var("y"), (mk_ax("y", O), mk_ax("y", O)))
    binary = Derivation("dr", two.context, Der(Bang(Var("y"))), O, (two,))
    for d in (mk_dr(mk_ax("y", mult([O]))), binary):
        refused("d! body must be a unary consuming bang under closures",
                reduce_derivation, d, (ROOT, RuleKind.DBANG))


def test_a_position_step_must_match_the_node():
    refused("position step fun does not match rule ax",
            reduce_derivation, mk_ax("x", O), ((Sel.FUN,), RuleKind.DB))


@pytest.mark.parametrize("pos, reason", [
    (ROOT, "dB redex must be typed by an application rule"),
    ((Sel.FUN,), "position step fun does not match rule app"),
], ids=["at-the-redex", "above-it"])
def test_a_node_without_its_premises_is_not_taken_apart(pos, reason):
    # an app node of (\x. x) !y built with no premises
    d = Derivation("app", {}, parse_term(r"(\x. x) !y"), O, ())
    refused(reason, reduce_derivation, d, (pos, RuleKind.DB))


def test_a_reduction_step_must_be_a_bang_calculus_rule():
    # s is a rule of the CBN/CBV engine, not of the bang calculus
    refused("s is not a bang-calculus rule",
            reduce_derivation, mk_ax("x", O), (ROOT, RuleKind.S))


# ---------------------------------------------------------------------------
# Subject expansion

@pytest.mark.parametrize("text, kind", [(r"(\x. x)[y \ z] w", RuleKind.DB),
                                        (r"der((!x)[y \ z])", RuleKind.DBANG)])
def test_the_closure_spine_must_be_as_long_as_the_redex_spine(text, kind):
    refused("closure spine shorter than the redex spine",
            expand_derivation, mk_ax("x", O), parse_term(text), (ROOT, kind))


def test_the_db_reduct_core_must_be_a_closure_node():
    refused("dB reduct core must be a closure node",
            expand_derivation, mk_ax("y", O), parse_term(r"(\x. x) y"), (ROOT, RuleKind.DB))


def test_the_reduct_spine_must_be_the_fired_spine():
    # x[x \ (!y)[y \ !z]] fires to y[y \ !z]; y[w \ !z] has another binder
    d = mk_es("w", mk_ax("y", O), mk_bg(Var("z"), ()))
    refused("reduct spine does not match the fired closure spine",
            expand_derivation, d, parse_term(r"x[x \ (!y)[y \ !z]]"), (ROOT, RuleKind.SBANG))


@pytest.mark.parametrize("text", [r"(x x)[x \ !y]", r"(\z. x)[x \ !y]"],
                         ids=["application", "abstraction"])
def test_the_sbang_reduct_core_must_be_the_substitution_instance(text):
    # z is not an instance of x x, nor of \z. x, under x := y
    refused("subject is not the stated substitution instance",
            expand_derivation, mk_ax("z", O), parse_term(text), (ROOT, RuleKind.SBANG))


@pytest.mark.parametrize("kind", [RuleKind.SBANG, RuleKind.DBANG, RuleKind.S])
def test_an_expansion_step_must_fit_the_term_at_its_position(kind):
    # a dB redex, expanded as another kind of step
    t = parse_term(r"(\x. x) !y")
    refused(f"{kind} step does not fit the term at its position",
            expand_derivation, infer_u(t, 100), t, (ROOT, kind))


def test_anti_substitution_needs_the_stated_instance():
    # y types neither x{x:=z} = z nor x y{x:=z} = z y
    for t in (Var("x"), parse_term("x y")):
        refused("subject is not the stated substitution instance",
                antisubst_derivation, mk_ax("y", O), t, "x", Var("z"))
