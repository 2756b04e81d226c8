"""Every small term, not a sample: each node of an inferred derivation has
as its subject the very object of the term at its position.

Inference types the normal form along its own subterms and replays subject
expansion along each trace term, remaking every node it changes along that
term, which shares the rest with the next one.  So no subject is a copy of
the term's part, and every subject check ends at an identity test.  The
terms are every bang term of at most 5 nodes and every lambda term (no
closures) of at most 6 nodes over the names x, y and y0, not taken up to
renaming, so that the names a refresh picks (y0, y1) collide with the
term's own."""

from functools import lru_cache
from itertools import product

from bangcalc.cbn_cbv import (
    check_derivation_n, check_derivation_v, embed_cbn, embed_cbv, infer_n, infer_v,
)
from bangcalc.syntax import Abs, App, Bang, Der, Sub, Var, term_eq
from bangcalc.system_e import check_derivation_e, infer_tight
from bangcalc.system_u import RULES, check_derivation_u, infer_u

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
