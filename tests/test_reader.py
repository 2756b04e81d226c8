"""The derivation reader parses each distinct text once per read.

`serialize.derivation_from_json` keeps a text -> term and a text -> type
memo for one call.  These tests hold it to the plain reader in conftest
(`ref_derivation_from_json`), on canonical and on non-canonical but
equivalent text, and check that equal texts share one object."""

import contextlib
import dataclasses
import io
import json
import random

import pytest
from hypothesis import given, strategies as st

from bangcalc import qtypes, serialize, syntax, system_u
from bangcalc.cbn_cbv import check_derivation_n, check_derivation_v, embed_cbn, infer_n, infer_v
from bangcalc.cli import main
from bangcalc.gen import generate_corpus
from bangcalc.qtypes import Arrow, BaseVar, Mult, Tight
from bangcalc.reduction import FuelExhausted
from bangcalc.serialize import MalformedDerivation, derivation_from_json, derivation_to_json
from bangcalc.syntax import Abs, App, Bang, Der, Sub, Var
from bangcalc.system_e import check_derivation_e, infer_tight
from bangcalc.system_u import Untypable, check_derivation_u, infer_u

from conftest import church_term, ref_derivation_from_json

FUEL = 2000
INFER = {"u": infer_u, "e": infer_tight, "n": infer_n, "v": infer_v}
CHECK = {"u": check_derivation_u, "e": check_derivation_e,
         "n": check_derivation_n, "v": check_derivation_v}


def derivation_json(system, t):
    d = INFER[system](t, FUEL)
    if isinstance(d, (Untypable, FuelExhausted)):
        return None
    return derivation_to_json(d)


def church_json(system, n):
    lam = church_term(n)
    return derivation_json(system, lam if system in ("n", "v") else embed_cbn(lam))


def corpus_json():
    out = []
    for lam, systems in ((False, "ue"), (True, "nv")):
        for t in generate_corpus(3, 10, 40, lam=lam):
            for system in systems:
                obj = derivation_json(system, t)
                if obj is not None:
                    out.append((system, obj))
    return out


CORPUS = corpus_json()
CHURCH40 = [(system, church_json(system, 40)) for system in "uenv"]


def _nodes(obj):
    """Every node of derivation JSON."""
    stack = [obj]
    while stack:
        o = stack.pop()
        yield o
        stack.extend(o["premises"])


def pairs(d, obj):
    """(node, its JSON) for every node, pre-order."""
    stack = [(d, obj)]
    while stack:
        node, o = stack.pop()
        yield node, o
        stack.extend(zip(reversed(node.premises), reversed(o["premises"])))


# ---------------------------------------------------------------------------
# Non-canonical but equivalent text

def noisy_term(t, rng) -> str:
    """Surface syntax of t with random spacing, redundant parentheses, `λ`
    and `:=`; it parses back to t."""
    sp = lambda: " " * rng.randint(0, 2)  # noqa: E731
    match t:
        case Var(x):
            text = x
        case Abs(x, b):
            lam = rng.choice(["\\", "λ"])
            text = f"{lam}{x}{sp()}.{sp()}{noisy_term(b, rng)}"
        case App(f, a):
            text = f"{_atom(f, rng)} {sp()}{_atom(a, rng)}"
        case Bang(b):
            text = f"!{sp()}{_atom(b, rng)}"
        case Der(b):
            text = f"der{sp()}({sp()}{noisy_term(b, rng)}{sp()})"
        case Sub(b, x, a):
            sep = rng.choice(["\\", ":="])
            text = f"{_atom(b, rng)}{sp()}[{sp()}{x} {sep}{sp()}{noisy_term(a, rng)}{sp()}]"
        case _:
            raise TypeError(t)
    if rng.random() < 0.3:
        text = f"({sp()}{text}{sp()})"
    return text


def _atom(t, rng) -> str:
    text = noisy_term(t, rng)
    return text if isinstance(t, Var) else f"({text})"


def noisy_type(ty, rng) -> str:
    """Surface syntax of ty with random spacing and multiset order."""
    sp = lambda: " " * rng.randint(0, 2)  # noqa: E731
    match ty:
        case BaseVar(i):
            return f"o{i}"
        case Tight(c):
            return c
        case Mult(elems):
            parts = [noisy_type(e, rng) for e in elems]
            rng.shuffle(parts)
            return f"[{sp()}" + f"{sp()},{sp()}".join(parts) + f"{sp()}]"
        case Arrow(dom, cod):
            return f"{noisy_type(dom, rng)}{sp()}->{sp()}{noisy_type(cod, rng)}"
    raise TypeError(ty)


def noisy_json(obj, seed):
    """A copy of obj whose every text is rewritten, equivalently."""
    rng = random.Random(seed)
    d = ref_derivation_from_json(obj)
    copy = json.loads(json.dumps(obj))
    for node, o in pairs(d, copy):
        o["term"] = noisy_term(node.subject, rng)
        o["type"] = noisy_type(node.type, rng)
        o["context"] = {x: noisy_type(m, rng) for x, m in node.context.items()}
    return copy


# ---------------------------------------------------------------------------
# Differential: the memoised reader against the plain one

def assert_reads_alike(system, obj):
    got, want = derivation_from_json(obj), ref_derivation_from_json(obj)
    assert got == want
    assert CHECK[system](got) == CHECK[system](want)


def test_reader_matches_the_plain_reader():
    assert len(CORPUS) > 100
    for system, obj in CORPUS + CHURCH40:
        assert_reads_alike(system, obj)


def test_reader_matches_the_plain_reader_on_non_canonical_text():
    for k, (system, obj) in enumerate(CORPUS + CHURCH40):
        noisy = noisy_json(obj, k)
        assert_reads_alike(system, noisy)
        assert derivation_from_json(noisy) == derivation_from_json(obj)


def test_tampered_reads_give_the_same_verdict():
    for system, obj in CHURCH40:
        bad = json.loads(json.dumps(obj))
        node = bad
        while node["premises"]:
            node = node["premises"][0]
        node["type"] = "o999"
        got = CHECK[system](derivation_from_json(bad))
        assert got is not None and got == CHECK[system](ref_derivation_from_json(bad))


# ---------------------------------------------------------------------------
# Sharing within one read

def assert_equal_texts_share(obj):
    d = derivation_from_json(obj)
    seen = {}
    for node, o in pairs(d, obj):
        for text, value in [(o["term"], node.subject), (o["type"], node.type)] + [
                (o["context"][x], m) for x, m in node.context.items()]:
            assert seen.setdefault(text, value) is value, text


def test_equal_texts_read_as_one_object():
    for _, obj in CORPUS[:40] + CHURCH40:
        assert_equal_texts_share(obj)
    for k, (_, obj) in enumerate(CHURCH40):
        assert_equal_texts_share(noisy_json(obj, k))


def test_premise_subjects_are_the_node_subterms():
    """A premise whose subject the node's text shows in parentheses is read
    as that very subterm of the node's subject."""
    for system in "uenv":
        obj = church_json(system, 20)
        checked = 0
        for node, o in pairs(derivation_from_json(obj), obj):
            parts = [getattr(node.subject, f.name) for f in dataclasses.fields(node.subject)]
            for p, po in zip(node.premises, o["premises"]):
                if f"({po['term']})" in o["term"]:
                    assert any(p.subject is part for part in parts), (o["term"], po["term"])
                    checked += 1
        assert checked >= 20, system


def test_each_distinct_type_text_is_parsed_once(monkeypatch):
    obj = church_json("u", 80)
    texts = [t for o in _nodes(obj) for t in [o["type"], *o["context"].values()]]
    calls = []
    parse_type = qtypes.parse_type

    def counted(text, memo=None):
        if memo is None or text not in memo:  # a held text is one lookup, not a parse
            calls.append(text)
        return parse_type(text, memo)
    for mod in (qtypes, serialize):
        monkeypatch.setattr(mod, "parse_type", counted)
    derivation_from_json(obj)
    assert len(texts) > 2 * len(set(texts))
    assert len(calls) <= len(set(texts))


def test_sort_keys_are_not_recomputed_for_sorted_multisets(monkeypatch):
    """print_type writes multisets in order and a read shares equal element
    texts, so reading keys no more types than there are distinct texts."""
    obj = church_json("u", 80)
    texts = {t for o in _nodes(obj) for t in [o["type"], *o["context"].values()]}
    calls = []
    sort_key = qtypes.sort_key

    def counted(t):
        calls.append(t)
        return sort_key(t)
    monkeypatch.setattr(qtypes, "sort_key", counted)
    derivation_from_json(obj)
    assert len(calls) <= len(texts)


@pytest.mark.parametrize("n", [20, 40, 80])
def test_memo_hits_are_not_lexed(monkeypatch, n):
    """A parenthesized text the read has already parsed is lexed as one
    token, so the tokens of a read grow with its nodes, not its text."""
    obj = church_json("u", n)
    counts = []

    class Counted(syntax.Lexer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts.append(len(self.toks))
    monkeypatch.setattr(syntax, "Lexer", Counted)
    derivation_from_json(obj)
    assert sum(counts) <= 10 * len(list(_nodes(obj)))


@pytest.mark.parametrize("system", "ue")
@pytest.mark.parametrize("n", [20, 40, 80])
def test_type_memo_hits_are_not_lexed(monkeypatch, system, n):
    """A bracketed type text the read has already parsed is lexed as one
    token, and a run of one element text the read has already parsed is
    not lexed at all, so the type tokens of a read grow with its nodes,
    not with its text, although each context restates its run in full."""
    obj = church_json(system, n)
    counts = []

    class Counted(qtypes.Lexer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts.append(len(self.toks))
    monkeypatch.setattr(qtypes, "Lexer", Counted)
    derivation_from_json(obj)
    assert sum(counts) <= 2 * len(list(_nodes(obj)))


def _derivations(d):
    stack = [d]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.premises)


def _distinct_types(d):
    """Every distinct type object of a derivation, and the number of runs
    of one repeated element object in its multisets."""
    seen, stack = {}, []
    for node in _derivations(d):
        stack += [node.type, *node.context.values()]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            if isinstance(t, Mult):
                stack.extend(t.elements)
            elif isinstance(t, Arrow):
                stack += [t.domain, t.codomain]
    runs = sum(sum(a is not b for a, b in zip(t.elements, t.elements[1:])) + 1
               for t in seen.values() if isinstance(t, Mult) and t.elements)
    return len(seen), runs


def test_u_check_looks_at_each_run_once(monkeypatch):
    """Beyond the checker's own calls, one for each node's type and context
    entry, the tight-constant search makes one call for each distinct type
    object and each run of one repeated element: the k copies of a church
    context's element are looked at once, not k times."""
    d = derivation_from_json(church_json("u", 80))
    distinct, runs = _distinct_types(d)
    calls, depth = [], [0]
    has_tight = qtypes.has_tight_constants

    def counted(t, memo=None):
        calls.append(depth[0])
        depth[0] += 1
        try:
            return has_tight(t, memo)
        finally:
            depth[0] -= 1
    for mod in (qtypes, system_u):
        monkeypatch.setattr(mod, "has_tight_constants", counted)
    assert check_derivation_u(d) is None
    top = sum(1 + len(node.context) for node in _derivations(d))
    assert calls.count(0) == top
    assert len(calls) - top <= distinct + runs


def test_u_check_looks_into_each_type_object_once(monkeypatch):
    """A read derivation shares its types, context multisets and their
    elements between nodes; the U check looks into each object once for
    tight constants."""
    d = derivation_from_json(church_json("u", 80))
    looked = []
    has_tight = qtypes.has_tight_constants

    def counted(t, memo=None):
        if memo is None or id(t) not in memo:
            looked.append(id(t))
        return has_tight(t) if memo is None else has_tight(t, memo)
    for mod in (qtypes, system_u):
        monkeypatch.setattr(mod, "has_tight_constants", counted)
    assert check_derivation_u(d) is None
    assert looked and len(looked) == len(set(looked))


# ---------------------------------------------------------------------------
# Mutated derivation JSON through the CLI

SMALL = [(system, obj) for system, obj in CORPUS if len(json.dumps(obj)) < 3000][:24]


JUNK = st.one_of(
    st.integers(-3, 3), st.none(), st.lists(st.sampled_from(["o0", "x"]), max_size=2),
    st.text(alphabet="\\λ.()[]!x y:=o0,->abn", max_size=12),
)


def _mutant(data, obj):
    """obj with one to three fields replaced: by the same field of another
    node, by a prefix of their text, or by junk."""
    obj = json.loads(json.dumps(obj))
    nodes = list(_nodes(obj))
    for _ in range(data.draw(st.integers(1, 3))):
        node, other = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
        field = data.draw(st.sampled_from(["term", "type", "context", "rule", "counters"]))
        owner, key = node, field
        if field == "context":
            owner, key = node["context"], data.draw(st.sampled_from(sorted(node["context"]) + ["x"]))
            field = "type"
        old = owner.get(key)
        how = data.draw(st.sampled_from(["other", "truncate", "junk"]))
        if how == "other":
            owner[key] = other.get(field)
        elif how == "truncate" and isinstance(old, str):
            owner[key] = old[:data.draw(st.integers(0, len(old)))]
        else:
            owner[key] = data.draw(JUNK)
    return obj


def reference_exit_code(system, obj) -> int:
    """The exit code the plain reader and the checker give.  A text that is
    not a string is malformed: the plain reader read a list of
    one-character strings as a term."""
    texts = [v for o in _nodes(obj) for v in [o.get("term"), o.get("type"),
                                               *o.get("context", {}).values()]]
    if not all(isinstance(v, str) for v in texts):
        return 2
    try:
        d = ref_derivation_from_json(obj)
    except (MalformedDerivation, RecursionError):
        return 2
    return 0 if CHECK[system](d) is None else 1


@given(st.data())
def test_mutated_derivations_get_the_reference_verdict(data):
    system, obj = data.draw(st.sampled_from(SMALL))
    bad = _mutant(data, obj)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["typecheck", "--system", system, json.dumps(bad)])
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2)
    assert code == reference_exit_code(system, bad)
