"""Every small term, not a sample: selftest's per-term theorem checks
(`bangcalc.acceptance`: criteria 4, 5, 6 and 11 on bang terms, 8, 9 and 10
on lambda terms), and the subjects of each derivation inferred for it.

The terms are every bang term of at most 5 nodes and every lambda term (no
closures) of at most 6 nodes over the names x, y and y0, not taken up to
renaming, so that the names a refresh picks (y0, y1) collide with the
term's own.  Each is inferred once per system.  Inference types the normal
form along its own subterms and replays subject expansion along each trace
term, remaking every node it changes along that term, which shares the
rest with the next one.  So each node's subject must be the very object of
the term at its position, and every subject check ends at an identity test.

Run as a script, this file checks the same at larger bounds:

    python tests/test_small_scope.py 6 7

checks every bang term of at most 6 nodes and every lambda term of at most
7, and prints the counts."""

import sys
from collections import Counter
from functools import lru_cache
from itertools import product

from bangcalc.acceptance import (
    check_bound, check_diamond, check_exact_tight, check_round_trip, check_simulation,
    check_tight_meta, check_weighted_reduction,
)
from bangcalc.cbn_cbv import embed_cbn, embed_cbv, infer_n, infer_v
from bangcalc.reduction import (
    FuelExhausted, StateLimitExceeded, detect_clash, normalize_dw, reachable_graph, trace_profile,
)
from bangcalc.syntax import Abs, App, Bang, Der, Sub, Var, term_eq
from bangcalc.system_e import DerivationE, infer_tight
from bangcalc.system_u import RULES, Derivation, infer_u

NAMES = ("x", "y", "y0")
FUEL = 200


@lru_cache(maxsize=None)
def terms(n: int, lam: bool) -> tuple:
    """Every term of exactly n nodes over NAMES: with `lam`, built from
    variables, abstractions and applications only."""
    if n == 1:
        return tuple(Var(x) for x in NAMES)
    out = [Abs(x, b) for x, b in product(NAMES, terms(n - 1, lam))]
    if not lam:
        out += [former(b) for former in (Bang, Der) for b in terms(n - 1, lam)]
    for i in range(1, n - 1):
        pairs = list(product(terms(i, lam), terms(n - 1 - i, lam)))
        out += [App(f, a) for f, a in pairs]
        if not lam:
            out += [Sub(b, x, a) for x in NAMES for b, a in pairs]
    return tuple(out)


def up_to(n: int, lam: bool) -> list:
    return [t for k in range(1, n + 1) for t in terms(k, lam)]


def misplaced(d, t, system: str) -> list:
    """The nodes of d whose subject is not the object of t at their
    position: a premise types the part of its node's subject that its rule
    gives it."""
    rules, found, stack = RULES[system], [], [(d, t)]
    while stack:
        node, term = stack.pop()
        if node.subject is not term:
            found.append(node)
        rule = rules[node.rule]
        for i, p in enumerate(node.premises):
            stack.append((p, getattr(term, rule.parts[i] if i < rule.fixed else rule.rest)))
    return found


def test_the_enumeration_has_the_expected_size():
    assert len(up_to(5, False)) == 9_183 and len(up_to(6, True)) == 4_962


INFER = {"u": infer_u, "e": infer_tight, "n": infer_n, "v": infer_v}


def inferred(t, systems: str) -> dict:
    """t's inference in each system, once; every node of a derivation has
    the object of t at its position as its subject."""
    out = {system: INFER[system](t, FUEL) for system in systems}
    for system, d in out.items():
        assert not hasattr(d, "premises") or misplaced(d, t, system) == [], (system, t)
    return out


# ---------------------------------------------------------------------------
# The paper's theorems, on every small term

STATES = 400  # the states a term's reduction graph may reach


def tally(seen: Counter, *failures) -> None:
    """Count each failure text a check returned, so that it shows in the counts."""
    seen.update(filter(None, failures))


def tally_typed_bang(seen: Counter, t, trace, d: dict) -> None:
    """The checks of a bang term that U and E type, given its dw trace and
    its U and E derivations."""
    tally(seen, check_exact_tight(t, trace, d["e"]), check_weighted_reduction(t, trace, d["u"]),
          check_tight_meta(d["e"]))


def theorem_counts(bang_nodes: int, lambda_nodes: int) -> Counter:
    """Run the checks on every bang term of at most `bang_nodes` nodes and
    every lambda term of at most `lambda_nodes`, and count the terms, those
    the checks could not take, the typable and each failure text.  Besides
    the subjects, what no check covers is asserted here: every dw trace has
    the (length, b, e) of every complete trace, a term is typable iff its
    normal form is clash-free, and an N or V derivation's U image types the
    embedding."""
    seen: Counter = Counter()
    for t in up_to(bang_nodes, False):
        seen["bang"] += 1
        try:
            trace, graph = normalize_dw(t, FUEL), reachable_graph(t, STATES)
        except FuelExhausted:
            seen["bang out of fuel"] += 1
            continue
        except StateLimitExceeded:
            seen["bang over the states"] += 1
            continue
        assert trace_profile(graph) == (len(trace.steps), trace.b, trace.e), t
        d = inferred(t, "ue")
        typable = detect_clash(trace.final).clash_free
        assert isinstance(d["u"], Derivation) is isinstance(d["e"], DerivationE) is typable, t
        seen["typable" if typable else "untypable"] += 1
        tally(seen, check_diamond(graph))
        if typable:
            tally_typed_bang(seen, t, trace, d)
    for t in up_to(lambda_nodes, True):
        seen["lambda"] += 1
        d = inferred(t, "uenv")
        if isinstance(d["u"], Derivation):
            tally_typed_bang(seen, t, normalize_dw(t, FUEL), d)
        tally(seen, check_simulation(t))
        for system, embed in (("n", embed_cbn), ("v", embed_cbv)):
            if not isinstance(d[system], Derivation):
                continue
            seen[f"{system} typable"] += 1
            name = system.upper()
            tally(seen, check_round_trip(t, d[system], name), check_bound(t, d[system], name))
            # the kept image types the embedding infer built; each of its
            # nodes has that term's own object as its subject
            image = d[system]._image
            assert term_eq(image.subject, embed(t)), (system, t)
            assert misplaced(image, image.subject, "u") == [], (system, t)
    return seen


def test_the_theorems_hold_on_every_small_term():
    # the typable counts, so that a smaller enumeration or fewer walks show
    assert theorem_counts(5, 6) == {"bang": 9_183, "typable": 6_420, "untypable": 2_763,
                                    "lambda": 4_962, "n typable": 4_962, "v typable": 4_962}


if __name__ == "__main__":
    counts = theorem_counts(int(sys.argv[1]), int(sys.argv[2]))
    print(", ".join(f"{key} {n}" for key, n in sorted(counts.items())))
