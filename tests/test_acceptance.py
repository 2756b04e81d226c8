"""The acceptance gate: every criterion at its stated (exact) tolerance.

Each test prints its own PASS/FAIL line; `bangcalc selftest` runs the
same functions from the command line.
"""

import pytest

from bangcalc import acceptance, cli
from bangcalc.cbn_cbv import embed_cbn, embed_cbv, infer_n, infer_v, step_v
from bangcalc.reduction import RuleKind, normalize_dw, reachable_graph, redexes, step_at
from bangcalc.syntax import Bang, Der, alpha_eq, parse_term, print_term
from bangcalc.qtypes import TIGHT_NEUTRAL, mult
from bangcalc.system_e import DerivationE, infer_tight, type_normal_form_tight
from bangcalc.system_u import infer_u

SEED = 0


@pytest.mark.parametrize("name,fn", acceptance.CRITERIA, ids=[n for n, _ in acceptance.CRITERIA])
def test_criterion(name, fn):
    ok, detail = fn(SEED)
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, detail


# Criterion 8 accepts a CBV step whose image takes a dB step, then a d!
# step.  Seed 0's corpus never needs that branch; seed 1's needs it twice.
def test_criterion_8_at_seed_1_passes():
    ok, detail = acceptance.criterion_8_embedding(1)
    assert ok, detail


def test_a_cbv_step_whose_image_takes_db_then_d_bang():
    t = parse_term(r"(\x. x) x x")
    _, kind, reduct = step_v(t)
    assert kind is RuleKind.DB and alpha_eq(reduct, parse_term(r"x[x \ x] x"))
    image, target = embed_cbv(t), embed_cbv(reduct)
    assert alpha_eq(image, parse_term(r"der((\x. !x) !x) !x"))
    assert alpha_eq(target, parse_term(r"x[x \ !x] !x"))
    assert not acceptance._one_w_step_to(image, target)
    (pos, first), = redexes(image)
    mid = step_at(image, pos, first)
    assert first is RuleKind.DB
    assert [alpha_eq(step_at(mid, p, k), target) for p, k in redexes(mid)
            if k is RuleKind.DBANG] == [True]


# ---------------------------------------------------------------------------
# The gate can fail: each per-term check on a doctored input, and selftest
# with a failing criterion

T0 = parse_term(acceptance.T0_TEXT)


def test_the_exactness_check_fails_on_a_trace_of_another_term():
    d = infer_tight(T0, 100)
    # another normal form, then another trace with T0's counters (2, 3, 1)
    trace = normalize_dw(parse_term(r"\z.z"), 10)
    assert acceptance.check_exact_tight(T0, trace, d) == \
        f"{print_term(T0)}: counters (2, 3, 1), measured (0, 0, 1)"
    trace = normalize_dw(parse_term(r"(\x. x) !(der(!((\y. w) w))[w \ !u])"), 10)
    assert acceptance.check_exact_tight(T0, trace, d) == \
        f"{print_term(T0)}: subject reduction broke the tight derivation"


def test_the_diamond_check_fails_on_a_doctored_graph():
    graph = reachable_graph(T0, 200)
    (nf_key,) = [key for key, succs in graph.edges.items() if not succs]
    graph.edges[graph.start_key].append(((), RuleKind.DB, nf_key))
    assert acceptance.check_diamond(graph) == f"trace lengths disagree from {print_term(T0)}"
    graph = reachable_graph(parse_term(r"(\x. x) ((\y. y) z)"), 200)
    graph.terms[graph.edges[graph.start_key][0][2]] = parse_term("w")
    assert acceptance.check_diamond(graph) == r"diamond fails from (\x. x) ((\y. y) z) via dB/dB"


def test_the_weighted_reduction_check_fails_on_a_trace_of_another_term():
    x = parse_term("x")
    assert acceptance.check_weighted_reduction(x, normalize_dw(T0, 100), infer_u(x, 10)) == \
        "size bound fails on x"
    trace = normalize_dw(parse_term(r"(\x.x) !(\z.z)"), 10)
    assert acceptance.check_weighted_reduction(T0, trace, infer_u(T0, 100)) == \
        f"reduction broke the derivation on {print_term(T0)}"


def test_the_weighted_reduction_check_fails_on_a_reduct_that_is_not_smaller(monkeypatch):
    # the criterion's own size check, the independent oracle of the post-condition
    # that `subject_reduction` checks, seen with the theorem's step replaced by no step
    monkeypatch.setattr(acceptance, "subject_reduction", lambda d, step: d)
    assert acceptance.check_weighted_reduction(T0, normalize_dw(T0, 100), infer_u(T0, 100)) == \
        f"size did not decrease on {print_term(T0)}"


def test_the_spreading_walk_takes_a_deep_derivation():
    # 3,000 nested derelictions over x: deeper than the interpreter's stack
    t = parse_term("x")
    for _ in range(3000):
        t = Der(t)
    assert acceptance.check_tight_meta(type_normal_form_tight(t)) is None


def test_the_simulation_check_fails_on_a_tampered_embedding(monkeypatch):
    monkeypatch.setattr(acceptance, "embed_cbn", lambda t: Der(Bang(embed_cbn(t))))
    assert acceptance.check_simulation(parse_term("x")) == "cbn image of n-normal x is not w-normal"


def test_the_round_trip_check_fails_on_a_tampered_image():
    d = infer_n(parse_term(r"\x. x"), 10)
    d._image = infer_n(parse_term(r"\y. y"), 10)._image
    assert acceptance.check_round_trip(parse_term(r"\x. x"), d, "N") == \
        r"N kept image is not the translation of \x. x"


def test_the_bound_check_fails_on_the_derivation_of_another_term():
    d = infer_v(parse_term("y"), 10)
    assert acceptance.check_bound(parse_term(r"(\x. x) y"), d, "V") == \
        r"CBV bound fails on (\x. x) y"


def test_the_tight_meta_check_fails_on_a_changed_counter():
    d = DerivationE("ax", {"x": mult([TIGHT_NEUTRAL])}, parse_term("x"), TIGHT_NEUTRAL, (0, 0, 2))
    assert acceptance.check_tight_meta(d) == "tight size fails on x"


def test_selftest_exits_1_and_prints_the_failing_criterion(monkeypatch, capsys):
    criteria = list(acceptance.CRITERIA)
    name = criteria[3][0]
    criteria[3] = (name, lambda seed: (False, "doctored"))
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    assert cli.main(["selftest"]) == 1
    assert f"FAIL  {name}: doctored\n" in capsys.readouterr().out
