"""Machine-readable formats: line-delimited trace records and derivation
trees.  Field names are pinned by schema/trace.schema.json and
schema/derivation.schema.json; output is bit-stable for a fixed input.
"""

from __future__ import annotations

import json
import re
import sys
from json.encoder import encode_basestring_ascii as _quoted  # how json.dumps writes a str
from typing import Any

from .syntax import (
    Abs, App, Bang, Der, FoldMemo, Sub, Term, Var, Walk, parse_term, print_node,
    print_term, unwind,
)
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


_DERIVATIONS = (Derivation, DerivationE)
# what `json.dumps(value, sort_keys=True)` runs, its encoder built once
_encode = json.JSONEncoder(sort_keys=True).encode


def dump_records(records: list[dict[str, Any]]) -> str:
    return "\n".join(map(record_text, records))


def record_text(record: dict[str, Any]) -> str:
    """One machine record: `json.dumps(record, sort_keys=True)` with each
    derivation value written as `derivation_to_json` would give it (see
    `derivation_text`), without building that dict tree.  A record more
    than CHECKED_DEPTH premises deep is read back with `json` first, so
    one that `json`, and so `typecheck`, cannot read raises
    RecursionError instead of being written; one deeper than the recursion
    limit raises it before a subject or type is printed."""
    if not any(isinstance(v, _DERIVATIONS) for v in record.values()):
        return _encode(record)
    out: list[str] = []
    depth = 0
    for key, value in sorted(record.items()):
        out += (", " if out else "{", _quoted(key), ": ")
        if isinstance(value, _DERIVATIONS):
            depth = max(depth, _derivation_parts(value, out, sys.getrecursionlimit()))
        else:
            out.append(_encode(value))
    out.append("}")
    text = "".join(out)
    if depth > CHECKED_DEPTH:
        json.loads(text)
    return text


# ---------------------------------------------------------------------------
# Derivations

def derivation_to_json(d: Derivation | DerivationE) -> dict[str, Any]:
    # A node's subject is built from its premises' subjects, and its types
    # and context entries are mostly its premises' too: print each node once.
    # Nodes share context dicts too: print each dict once.
    return unwind(_derivation_json(d, {}, {}, {}))


def _derivation_json(d: Derivation | DerivationE, terms: FoldMemo, types: TypeMemo,
                     contexts: dict[int, tuple[dict, dict[str, str]]]) -> Walk:
    hit = contexts.get(id(d.context))
    if hit is None:
        hit = contexts[id(d.context)] = (d.context, {
            x: print_type(m, types) for x, m in sorted(d.context.items())})
    premises = []
    for p in d.premises:
        premises.append((yield _derivation_json(p, terms, types, contexts)))
    obj: dict[str, Any] = {
        "rule": d.rule,
        "context": dict(hit[1]),  # a dict of its own, which a caller may change
        "term": print_term(d.subject, terms),
        "type": print_type(d.type, types),
        "premises": premises,
    }
    if isinstance(d, DerivationE):
        obj["counters"] = list(d.counters)
    return obj


# `json` nests each node as a dict and its premise list.  At the default
# recursion limit, Python 3.11 reads 496 nested nodes from the top of the
# stack, so a record 200 premises deep is read from any stack under 590
# frames.  `record_text` reads back only deeper records: at church(80), a
# read costs about a fifth of the writing.
CHECKED_DEPTH = 200


def derivation_text(d: Derivation | DerivationE) -> str:
    """`json.dumps(derivation_to_json(d), sort_keys=True)`, written in one
    pre-order pass into one list of parts, each distinct context dict,
    type and subject printed and escaped once.  It writes derivations of
    any depth."""
    out: list[str] = []
    _derivation_parts(d, out)
    return "".join(out)


def _derivation_parts(d: Derivation | DerivationE, out: list[str], limit: int = sys.maxsize) -> int:
    """Append the parts of `derivation_text(d)` to out, and return the
    depth of d's deepest premise; raise RecursionError on entering a node
    deeper than `limit`.  Contexts are printed as a node is
    entered and terms and types as it is left, in the order
    `_derivation_json` prints them, so the memos grow alike.  A type or
    subject is printed after its premises' ones, so printing recurses
    only through the nodes not printed before."""
    terms: FoldMemo = {}
    types: TypeMemo = {}
    texts: dict[int, tuple[Any, str]] = {}  # id(context, subject or type) -> (it, its JSON)

    def type_text(t) -> str:
        hit = texts.get(id(t))
        if hit is None:
            hit = texts[id(t)] = (t, _quoted(print_type(t, types)))
        return hit[1]

    stack: list = [d]  # nodes to enter, and (node,) to leave
    depth = deepest = -1  # of the node entered last, or left last
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            node, depth = node[0], depth - 1
            hit = texts.get(id(node.subject))
            if hit is None:
                hit = texts[id(node.subject)] = (
                    node.subject, _quoted(print_term(node.subject, terms)))
            out += ('], "rule": ', _quoted(node.rule), ', "term": ', hit[1],
                    ', "type": ', type_text(node.type), "}")
            continue
        depth += 1
        if depth > deepest:
            deepest = depth
            if depth > limit:
                raise RecursionError(f"derivation deeper than {limit} premises")
        ctx = node.context
        hit = texts.get(id(ctx))
        if hit is None:
            hit = texts[id(ctx)] = (ctx, "{" + ", ".join(
                [f"{_quoted(x)}: {type_text(m)}" for x, m in sorted(ctx.items())]) + "}")
        # a premise after the first follows its sibling's closing "}"
        out += (', {"context": ' if depth and out[-1] == "}" else '{"context": ', hit[1])
        if isinstance(node, DerivationE):
            out.append(', "counters": [%d, %d, %d]' % node.counters)
        out.append(', "premises": [')
        stack.append((node,))
        stack += reversed(node.premises)
    return deepest


class MalformedDerivation(ValueError):
    """Derivation JSON that does not have the shape of
    schema/derivation.schema.json."""


def derivation_from_json(obj: dict[str, Any]) -> Derivation | DerivationE:
    """The derivation `derivation_to_json` wrote.  Each node restates its
    subject, type and context in full, so one read parses each distinct
    text once, and equal texts give the same object.  A node's subject is
    its premises' subjects under one former, so it is assembled from them
    where the printer writes it as the node's text (see `_assemble`).
    Equal subtrees are read as one node.  A repeated subderivation is
    recognised by comparing its JSON before it is walked: a premise whose
    JSON equals that of the subtree first read under its rule and texts is
    that node (see `_is_copy`).  Any other node whose rule, texts, context
    entries, counters and premise objects are those of a node already read
    is that node, so repeated subtrees are one shared object."""
    try:
        return unwind(_derivation_from_json(obj, None, {}, {}, {}, _Firsts()))
    except (AttributeError, KeyError, TypeError, ValueError) as ex:
        raise MalformedDerivation(f"malformed derivation ({type(ex).__name__}: {ex})") from ex


class _Firsts(dict):
    """For one read: (rule, term, type) -> (JSON, node) of the first
    subtree read under it.  `loose` is set once the read has met counters
    or a rule that is not a text, and `compare` cleared once a compare has
    gone too deep for the stack (see `_is_copy`)."""
    loose = False
    compare = True


def _derivation_from_json(obj: dict[str, Any], key: tuple | None, terms: dict[str, Term],
                          types: TypeParseMemo, nodes: dict[tuple, tuple], firsts: _Firsts) -> Walk:
    """Read obj, whose (rule, term, type) is key, or None at the root;
    nodes maps (rule, term, type, premise ids) to (context, counters, node)."""
    below, entries = obj.get("premises", []), obj.get("context", {})
    if not isinstance(below, list):
        raise TypeError("premises must be a list")
    if not isinstance(entries, dict):
        raise TypeError("context must be an object")
    premises = []
    for p in below:
        try:
            k = (p["rule"], p["term"], p["type"])
            first = firsts.get(k)
        except (KeyError, TypeError):  # not a node, or a text that cannot be hashed
            k = first = None
        if first is not None and _is_copy(p, first[0], firsts):
            node = first[1]
        else:
            node = yield _derivation_from_json(p, k, terms, types, nodes, firsts)
            if first is None and k is not None:
                firsts[k] = (p, node)
        premises.append(node)
    # the node read before with this rule, texts and premise objects is
    # this one if its context entries and counters are equal too, and of
    # the kinds a node holds: `True == 1`, yet a rule True reads otherwise
    rule, counters = obj.get("rule") if key is None else key[0], obj.get("counters", ())
    if type(rule) is not str:
        key = None
        firsts.loose = True
    elif key is not None:
        key = (*key, *map(id, premises)) if premises else key
        hit = nodes.get(key)
        if (hit is not None and hit[0] == entries and hit[1] == counters
                and (counters == () or list(map(type, counters)) == [int, int, int])):
            return hit[2]
    context = {}
    for x, m in entries.items():  # most texts are held: looked up before `parse_type`
        ty = types.get(m)
        if ty is None:
            ty = parse_type(m, types)
        if not isinstance(ty, Mult):
            raise ValueError(f"context entry for {x} must be a multiset")
        context[x] = ty
    text = obj["term"]
    subject = terms.get(text)
    if subject is None:
        subject = terms[text] = _assemble(text, premises, below) or parse_term(text)
    ty = types.get(obj["type"])
    if ty is None:
        ty = parse_type(obj["type"], types)
    if "counters" in obj:
        counters = obj["counters"]
        if not (isinstance(counters, list) and len(counters) == 3
                and type(counters[0]) is type(counters[1]) is type(counters[2]) is int):
            raise ValueError("counters must be a list of three integers")
        firsts.loose = True
        node: Any = DerivationE(obj["rule"], context, subject, ty, tuple(counters), tuple(premises))
    else:
        node = Derivation(obj["rule"], context, subject, ty, tuple(premises))
    if key is not None:
        nodes[key] = (entries, counters, node)
    return node


def _is_copy(obj: Any, first: dict[str, Any], firsts: _Firsts) -> bool:
    """Whether obj reads as the node read from `first`, without reading it:
    their JSON is equal, and, once the read is loose, each node of obj has
    a text rule and three ints for counters, since `==` takes true and 1.0
    for 1.  A compare too deep for the stack says no, then and after."""
    try:
        if not firsts.compare or obj != first:
            return False
    except RecursionError:
        firsts.compare = False
        return False
    stack = [obj] if firsts.loose else []
    while stack:
        o = stack.pop()
        a, b, c = o.get("counters", (0, 0, 0))  # three numbers, each equal to an int
        if type(o["rule"]) is not str or not type(a) is type(b) is type(c) is int:
            return False
        stack += o.get("premises", ())
    return True


# a word that the term lexer reads as an identifier: any but `der`
_NAME = re.compile(r"(?!der\Z)[A-Za-z][A-Za-z0-9_']*")


def _assemble(text: str, premises: list, below: list) -> Term | None:
    """The subject that the printer writes as `text`, without parsing it:
    a variable, for a node without premises, or App(s0, s1), Sub(s0, x, s1),
    Abs(x, s0), Bang(s0) or Der(s0) for the premises' subjects s0 and s1
    and a binder x taken from the text, printed from the premises' texts.
    Such a text parses to that subject, so at most one matches; else None.
    The former the text's first character names is tried first (`\\` Abs,
    `!` Bang, else Der of one premise), then App, then Sub."""
    if not premises:
        return Var(text) if _NAME.fullmatch(text) else None
    s0, t0, head = premises[0].subject, below[0]["term"], text[:1]
    if head == "\\":
        x = text[1:len(text) - len(t0) - 2]
        t = Abs(x, s0) if _NAME.fullmatch(x) else None
    else:
        t = Bang(s0) if head == "!" else Der(s0) if len(premises) == 1 else None
    if t is not None and print_node(t, t0) == text:
        return t
    if len(premises) > 1:
        s1, t1 = premises[1].subject, below[1]["term"]
        t = App(s0, s1)
        if print_node(t, t0, t1) == text:
            return t
        left = len(t0) + (3 if type(s0) in (App, Abs) else 1)  # the body text and "["
        x = text[left:len(text) - len(t1) - 4]
        t = Sub(s0, x, s1)
        if _NAME.fullmatch(x) and print_node(t, t0, t1) == text:
            return t
    return None


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
