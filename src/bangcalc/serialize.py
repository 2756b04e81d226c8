"""Machine-readable formats: line-delimited trace records and derivation
trees.  Field names are pinned by schema/trace.schema.json and
schema/derivation.schema.json; output is bit-stable for a fixed input.
"""

from __future__ import annotations

import json
from typing import Any

from .syntax import FoldMemo, ParseMemo, parse_term, print_term
from .reduction import (
    ClashReport, NfClass, Trace, classify_nf, classify_wcf_nf, detect_clash,
    subterm_at,
)
from .qtypes import Mult, TypeMemo, TypeParseMemo, parse_type, print_type
from .system_u import Derivation
from .system_e import DerivationE

FORMAT_VERSION = 1


def position_to_json(pos) -> list[str]:
    return [s.value for s in pos]


def trace_records(trace: Trace) -> list[dict[str, Any]]:
    # consecutive terms share most of their subterms: print each node once
    memo: FoldMemo = {}
    records: list[dict[str, Any]] = [
        {"record": "header", "version": FORMAT_VERSION, "term": print_term(trace.start, memo)}
    ]
    cur = trace.start
    for i, step in enumerate(trace.steps):
        records.append({
            "record": "step",
            "index": i,
            "rule": step.rule.value,
            "position": position_to_json(step.position),
            "redex": print_term(subterm_at(cur, step.position), memo),
            "result": print_term(step.result, memo),
        })
        cur = step.result
    final = trace.final
    footer = classification_json(classify_nf(final), classify_wcf_nf(final), detect_clash(final))
    del footer["clash"]  # the footer gives the verdict of the clash check, not its witness
    footer.update(record="footer", steps=len(trace.steps), b=trace.b, e=trace.e,
                  completed=trace.completed, term=print_term(final, memo))
    return records + [footer]


def dump_records(records: list[dict[str, Any]]) -> str:
    return "\n".join(json.dumps(r, sort_keys=True) for r in records)


# ---------------------------------------------------------------------------
# Derivations

def derivation_to_json(d: Derivation | DerivationE) -> dict[str, Any]:
    # A node's subject is built from its premises' subjects, and its types
    # and context entries are mostly its premises' too: print each node once.
    # Nodes share context dicts too: print each dict once.
    return _derivation_json(d, {}, {}, {})


def _derivation_json(d: Derivation | DerivationE, terms: FoldMemo, types: TypeMemo,
                     contexts: dict[int, tuple[dict, dict[str, str]]]) -> dict[str, Any]:
    hit = contexts.get(id(d.context))
    if hit is None:
        hit = contexts[id(d.context)] = (d.context, {
            x: print_type(m, types) for x, m in sorted(d.context.items())})
    obj: dict[str, Any] = {
        "rule": d.rule,
        "context": dict(hit[1]),  # a dict of its own, which a caller may change
        "term": print_term(d.subject, terms),
        "type": print_type(d.type, types),
        "premises": [_derivation_json(p, terms, types, contexts) for p in d.premises],
    }
    if isinstance(d, DerivationE):
        obj["counters"] = list(d.counters)
    return obj


class MalformedDerivation(ValueError):
    """Derivation JSON that does not have the shape of
    schema/derivation.schema.json."""


def derivation_from_json(obj: dict[str, Any]) -> Derivation | DerivationE:
    """The derivation `derivation_to_json` wrote.  Each node restates its
    subject, type and context in full, so one read parses each distinct
    text once: equal texts give the same object, and a node's subject is
    assembled from its premises' subjects, read before it."""
    try:
        return _derivation_from_json(obj, {}, {})
    except (AttributeError, KeyError, TypeError, ValueError) as ex:
        raise MalformedDerivation(f"malformed derivation ({type(ex).__name__}: {ex})") from ex


def _derivation_from_json(obj: dict[str, Any], terms: ParseMemo,
                          types: TypeParseMemo) -> Derivation | DerivationE:
    premises = tuple(_derivation_from_json(p, terms, types) for p in obj.get("premises", []))
    context = {}
    for x, m in obj.get("context", {}).items():
        ty = parse_type(m, types)
        if not isinstance(ty, Mult):
            raise ValueError(f"context entry for {x} must be a multiset")
        context[x] = ty
    subject = parse_term(obj["term"], memo=terms)
    ty = parse_type(obj["type"], types)
    if "counters" in obj:
        counters = obj["counters"]
        if not (isinstance(counters, list) and len(counters) == 3
                and all(type(c) is int for c in counters)):
            raise ValueError("counters must be a list of three integers")
        return DerivationE(obj["rule"], context, subject, ty,  # type: ignore[arg-type]
                           tuple(counters), premises)
    return Derivation(obj["rule"], context, subject, ty, premises)  # type: ignore[arg-type]


def classification_json(cls: NfClass, wcf: NfClass, clash: ClashReport) -> dict[str, Any]:
    return {
        "record": "classification",
        "normal": cls.normal,
        "classes": sorted(cls.memberships),
        "wcf_classes": sorted(wcf.memberships),
        "clash_free": clash.clash_free,
        "clash": None if clash.witness is None else {
            "position": position_to_json(clash.witness[0]),
            "kind": clash.witness[1].value,
        },
    }
