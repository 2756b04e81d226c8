"""Every small term, not a sample: each node of an inferred derivation has
as its subject the very object of the term at its position.

Inference types the normal form along its own subterms and replays subject
expansion along each trace term, remaking every node it changes along that
term, which shares the rest with the next one.  So no subject is a copy of
the term's part, and every subject check ends at an identity test.  The
terms are every bang term of at most 5 nodes and every lambda term (no
closures) of at most 6 nodes over the names x, y and y0, not taken up to
renaming, so that the names a refresh picks (y0, y1) collide with the
term's own.

The same terms are checked against the paper's theorems (`theorem_counts`).
Run as a script, this file checks them at larger bounds:

    python tests/test_small_scope.py 6 7

checks every bang term of at most 6 nodes and every lambda term of at most
7, and prints the counts."""

import sys
from collections import Counter
from functools import lru_cache
from itertools import product

from bangcalc.cbn_cbv import (
    check_derivation_n, check_derivation_v, embed_cbn, embed_cbv, infer_n, infer_v, n_size,
    normalize_n, normalize_v, size_n, size_v, v_size,
)
from bangcalc.reduction import (
    FuelExhausted, StateLimitExceeded, detect_clash, normalize_dw, reachable_graph, trace_profile,
)
from bangcalc.syntax import Abs, App, Bang, Der, Sub, Var, term_eq, w_size
from bangcalc.system_e import (
    DerivationE, check_derivation_e, infer_tight, is_tight, reduce_derivation_e,
)
from bangcalc.system_u import (
    RULES, Derivation, check_derivation_u, infer_u, reduce_derivation_u, size_u,
)

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


def _check_bang(t, typed: list) -> None:
    for infer, check, system in ((infer_u, check_derivation_u, "u"),
                                 (infer_tight, check_derivation_e, "e")):
        d = infer(t, FUEL)
        if hasattr(d, "premises"):
            assert check(d) is None, t
            assert misplaced(d, t, system) == [], (system, t)
            typed.append(system)


def test_bang_derivations_follow_their_term():
    typed: list = []
    for t in up_to(5, False):
        _check_bang(t, typed)
    # the typable terms, so that a smaller enumeration or fewer walks show
    assert typed.count("u") == typed.count("e") == 6_420


def test_lambda_derivations_and_their_images_follow_their_terms():
    typed: list = []
    for t in up_to(6, True):
        _check_bang(t, typed)
        for infer, check, system, embed in ((infer_n, check_derivation_n, "n", embed_cbn),
                                            (infer_v, check_derivation_v, "v", embed_cbv)):
            d = infer(t, FUEL)
            if not hasattr(d, "premises"):
                continue
            assert check(d) is None, t
            assert misplaced(d, t, system) == [], (system, t)
            # the kept image types the embedding infer built; each of its
            # nodes has that term's own object as its subject
            image = d._image
            assert term_eq(image.subject, embed(t)) and check_derivation_u(image) is None, t
            assert misplaced(image, image.subject, "u") == [], (system, t)
            typed.append(system)
    assert typed.count("n") == typed.count("v") == 4_962


# ---------------------------------------------------------------------------
# The paper's theorems, on every small term

STATES = 400  # the states a term's reduction graph may reach


def theorem_counts(bang_nodes: int, lambda_nodes: int) -> Counter:
    """Check, on every bang term of at most `bang_nodes` nodes and every
    lambda term of at most `lambda_nodes`, that
    - every dw trace has the (length, b, e) of every complete trace;
    - a term is typable iff its normal form is clash-free;
    - |Phi| >= steps + |nf| in U, and subject reduction in U and E goes
      through every dw step;
    - `infer_tight` is tight, with counters (b, e, |nf|);
    - the N and V sizes bound the CBN and CBV steps plus the normal form's
      size (selftest criterion 10).
    Count the terms, those each check could not take, and the typable."""
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
        steps, b, e, nf = len(trace.steps), trace.b, trace.e, trace.final
        assert trace_profile(graph) == (steps, b, e), t
        d, d_e = infer_u(t, FUEL), infer_tight(t, FUEL)
        typable = detect_clash(nf).clash_free
        assert isinstance(d, Derivation) is isinstance(d_e, DerivationE) is typable, t
        seen["typable" if typable else "untypable"] += 1
        if not typable:
            continue
        assert size_u(d) >= steps + w_size(nf), t
        assert is_tight(d_e) and d_e.counters == (b, e, w_size(nf)), t
        for step in trace.steps:
            d = reduce_derivation_u(d, (step.position, step.rule))
            d_e = reduce_derivation_e(d_e, (step.position, step.rule))
    for t in up_to(lambda_nodes, True):
        seen["lambda"] += 1
        for name, infer, normalize, size, term_size in (
                ("n", infer_n, normalize_n, size_n, n_size),
                ("v", infer_v, normalize_v, size_v, v_size)):
            d = infer(t, FUEL)
            if isinstance(d, Derivation):
                trace = normalize(t, FUEL)
                assert size(d) >= trace.b + trace.e + term_size(trace.final), (name, t)
                seen[f"{name} typable"] += 1
    return seen


def test_the_theorems_hold_on_every_small_term():
    assert theorem_counts(5, 6) == {"bang": 9_183, "typable": 6_420, "untypable": 2_763,
                                    "lambda": 4_962, "n typable": 4_962, "v typable": 4_962}


if __name__ == "__main__":
    counts = theorem_counts(int(sys.argv[1]), int(sys.argv[2]))
    print(", ".join(f"{key} {n}" for key, n in sorted(counts.items())))
