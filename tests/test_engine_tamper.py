"""The derivation engine on tampered derivations: every case ends in
`IllFormed` or returns.

The U and E derivations along the dw trace of each corpus term are taken
apart by subject reduction at every step, and the next one by subject
expansion back across it, each with one node changed: its tag swapped for
every other tag of its system, or its last premise dropped or repeated;
or its premises reversed, or one premise replaced by its own first
premise.  A returned derivation may still hold a tampered node that the
step kept as it was; the callers' judgement and measure checks are not
run here."""

from collections import Counter

from bangcalc.gen import generate_corpus
from bangcalc.reduction import normalize_dw
from bangcalc.system_e import infer_tight
from bangcalc.system_u import RULES, IllFormed, expand_derivation, infer_u, reduce_derivation

from conftest import reordered, tampered

FUEL = 200


def _outcome(run, *args) -> str:
    try:
        run(*args)
    except IllFormed:
        return "IllFormed"
    except Exception as ex:  # counted, so that the assertion names every class
        return type(ex).__name__
    return "returned"


def _sweep(copies) -> Counter:
    """The outcome of each step on each of `copies(d, tags)`, for every
    derivation d of the sweep and the tags of its system."""
    outcomes = Counter()
    for t in generate_corpus(5, 9, 60):
        trace = normalize_dw(t, FUEL)
        terms = [trace.start] + [s.result for s in trace.steps]
        for infer, system in ((infer_u, "u"), (infer_tight, "e")):
            d = infer(t, FUEL)
            if not hasattr(d, "premises"):  # untypable
                continue
            tags = list(RULES[system])
            for i, s in enumerate(trace.steps):
                step = (s.position, s.rule)
                reduct = reduce_derivation(d, step)
                for bad in copies(d, tags):
                    outcomes[_outcome(reduce_derivation, bad, step)] += 1
                for bad in copies(reduct, tags):
                    outcomes[_outcome(expand_derivation, bad, terms[i], step)] += 1
                d = reduct
    return outcomes


def test_a_tampered_derivation_is_refused_or_stepped():
    # Before the engine read premises only through `fitting_rule`, 1,355 of
    # these cases ended in TypeError (959), IndexError (188),
    # AttributeError (120) or ValueError (88).
    outcomes = _sweep(lambda d, tags: (bad for _, bad in tampered(d, tags)))
    assert set(outcomes) == {"IllFormed", "returned"}, outcomes
    # the size of the sweep, so that a smaller corpus or fewer cases show
    assert sum(outcomes.values()) == 7_523, outcomes


def test_a_derivation_with_reordered_premises_is_refused_or_stepped():
    # Before the rebuild walk checked the target's former, 18 of these
    # cases ended in AttributeError in `rebuild_as`.
    outcomes = _sweep(lambda d, tags: reordered(d))
    assert set(outcomes) == {"IllFormed", "returned"}, outcomes
    assert sum(outcomes.values()) == 554, outcomes
