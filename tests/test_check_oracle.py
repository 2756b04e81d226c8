"""The node checks that `system_u.rule_table` builds, one per rule, against
the generic node check in conftest (`ref_check_derivation`).

Each derivation is checked in every system, as built, as read back from
its JSON (whose nodes share their types and context multisets) and in
tampered copies: a node's type set to o999, a context entry dropped,
doubled or emptied, counters bumped, a rule renamed to another rule of
its system, premises reordered or one repeated, the node made one of the
other class, and a wrong type with a dropped entry at one node.  Both
checkers must give the same first violation, path and reason, or None."""

import dataclasses
import random

import pytest

from bangcalc.cbn_cbv import embed_cbn, infer_n, infer_v
from bangcalc.gen import generate_corpus
from bangcalc.qtypes import EMPTY_MULT, TIGHT_NEUTRAL, BaseVar, mult
from bangcalc.reduction import FuelExhausted
from bangcalc.serialize import derivation_from_json, derivation_to_json
from bangcalc.system_e import DerivationE, infer_tight
from bangcalc.syntax import Var
from bangcalc.system_u import (
    RULES, Derivation, Untypable, Violation, check_derivation, infer_u,
)

from conftest import church_term, ref_check_derivation

INFER = {"u": infer_u, "e": infer_tight, "n": infer_n, "v": infer_v}


def derivations():
    """(system, derivation) for `generate_corpus` terms and church(20)."""
    out = []
    for lam, systems in ((False, "ue"), (True, "nv")):
        for t in generate_corpus(5, 10, 40, lam=lam):
            for system in systems:
                d = INFER[system](t, 2000)
                if not isinstance(d, (Untypable, FuelExhausted)):
                    out.append((system, d))
    lam = church_term(20)
    out += [(system, INFER[system](lam if system in "nv" else embed_cbn(lam), 100_000))
            for system in "uenv"]
    return out


DERIVATIONS = derivations()


def _paths(d):
    stack = [(d, ())]
    while stack:
        node, path = stack.pop()
        yield node, path
        stack.extend((p, path + (i,)) for i, p in enumerate(node.premises))


def _replaced(d, path, node):
    """d with `node` in place of its node at path, the nodes above rebuilt."""
    above = []
    for i in path:
        above.append((d, i))
        d = d.premises[i]
    for parent, i in reversed(above):
        ps = list(parent.premises)
        ps[i] = node
        node = dataclasses.replace(parent, premises=tuple(ps))
    return node


def _entry(node, rng):
    return rng.choice(sorted(node.context)) if node.context else None


def _dropped(node, system, rng):
    x = _entry(node, rng)
    return x and dataclasses.replace(node, context={y: m for y, m in node.context.items()
                                                    if y != x})


def _doubled(node, system, rng):
    x = _entry(node, rng)
    return x and dataclasses.replace(
        node, context={**node.context, x: mult(node.context[x].elements * 2)})


def _bumped(node, system, rng):
    if not isinstance(node, DerivationE):
        return None
    counters = list(node.counters)
    counters[rng.randrange(3)] += 1
    return dataclasses.replace(node, counters=tuple(counters))


def _renamed(node, system, rng):
    return dataclasses.replace(node, rule=rng.choice([r for r in RULES[system] if r != node.rule]))


def _reordered(node, system, rng):
    ps = node.premises
    return dataclasses.replace(node, premises=ps[::-1]) if len(ps) > 1 else None


def _emptied(node, system, rng):
    x = _entry(node, rng)
    return x and dataclasses.replace(node, context={**node.context, x: EMPTY_MULT})


def _swapped(node, system, rng):
    """The node as one of the other class: its counters dropped, or zero."""
    if isinstance(node, DerivationE):
        return Derivation(node.rule, node.context, node.subject, node.type, node.premises)
    return DerivationE(node.rule, node.context, node.subject, node.type, (0, 0, 0), node.premises)


def _retyped(node, system, rng):
    """Two faults at once, so that the order of the checks shows."""
    return _dropped(dataclasses.replace(node, type=BaseVar(999)), system, rng)


TAMPER = {
    "type": lambda node, system, rng: dataclasses.replace(node, type=BaseVar(999)),
    "entry dropped": _dropped,
    "entry doubled": _doubled,
    "counters bumped": _bumped,
    "rule renamed": _renamed,
    "premises reordered": _reordered,
    # beyond single changes of a judgement
    "type and entry": _retyped,
    "entry emptied": _emptied,
    "class swapped": _swapped,
    "premise repeated": lambda node, system, rng: node.premises and dataclasses.replace(
        node, premises=node.premises + node.premises[-1:]),
}


def tampered(system, d, rng, copies=3):
    """Copies of d with one node changed by each tampering, `copies` times."""
    nodes = list(_paths(d))
    out = []
    for how, tamper in TAMPER.items():
        for _ in range(copies):
            node, path = rng.choice(nodes)
            new = tamper(node, system, rng)
            if new:
                out.append((how, _replaced(d, path, new)))
    return out


def outcome(check, d, system):
    try:
        return check(d, system)
    except Exception as ex:  # both checkers must fail alike
        return type(ex), str(ex)


@pytest.mark.parametrize("k", range(len(DERIVATIONS)))
def test_rule_checks_give_the_generic_checks_verdicts(k):
    own, d = DERIVATIONS[k]
    rng = random.Random(k)
    cases = [("built", d), ("read", derivation_from_json(derivation_to_json(d)))]
    for _, base in cases[:]:
        cases += tampered(own, base, rng)
    for how, case in cases:
        for system in "uenv":
            got = outcome(check_derivation, case, system)
            assert got == outcome(ref_check_derivation, case, system), (how, system)
            if system == own and how in ("built", "read"):
                assert got is None
            elif system == own and how not in ("rule renamed", "premises reordered",
                                                "premise repeated"):
                assert got is not None, how  # a changed judgement never passes


def test_the_inputs_cover_every_system_and_tampering():
    assert {system for system, _ in DERIVATIONS} == set("uenv")
    assert len(DERIVATIONS) > 40
    rng = random.Random(0)
    seen = {how for system, d in DERIVATIONS for how, _ in tampered(system, d, rng, 1)}
    assert seen == set(TAMPER)



@pytest.mark.parametrize("tight_in", ["type", "entry"])
def test_an_empty_entry_is_reported_before_a_tight_constant(tight_in):
    # both faults at one node, the tight constant in its type or in the
    # entry before the empty one: the prelude reports the empty entry
    tight = mult([TIGHT_NEUTRAL])
    context = {"a": tight if tight_in == "entry" else mult([BaseVar(0)]), "b": EMPTY_MULT}
    node = Derivation("ax", context, Var("x"), tight if tight_in == "type" else BaseVar(0))
    want = Violation((), "context stores an empty multiset entry")
    for system in "unv":
        assert check_derivation(node, system) == want == ref_check_derivation(node, system)


@pytest.mark.parametrize("at", range(3))
def test_a_tight_constant_is_found_in_the_type_or_any_entry(at):
    plain, tight = mult([BaseVar(0)]), mult([TIGHT_NEUTRAL])
    context = {x: tight if at == i else plain for i, x in enumerate("ab", 1)}
    node = Derivation("ax", context, Var("x"), tight if at == 0 else BaseVar(0))
    want = Violation((), "tight constants do not belong to this system")
    for system in "unv":
        assert check_derivation(node, system) == want == ref_check_derivation(node, system)
