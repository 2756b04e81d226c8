"""The memo paths of `parse_term` and `parse_type` against the plain parse.

With a memo, both parsers look up a text, its parenthesized or bracketed
parts and (for types) each multiset element before lexing them, and
`qtypes.mult` keeps elements that are already in order.  The parse
without a memo is the oracle: with any memo that maps texts to their own
parses, a text parses to an equal value, or fails with the same exception
and message, offset included."""

import random

import pytest
from hypothesis import given, strategies as st

from bangcalc import qtypes
from bangcalc.gen import generate_corpus
from bangcalc.qtypes import (
    _TYPE_MARKS, Arrow, BaseVar, Mult, Tight, TypeParseError, mult, parse_type, print_type,
    sort_key,
)
from bangcalc.reduction import FuelExhausted
from bangcalc.syntax import _PARENS, ParseError, memo_spans, parse_term, print_term
from bangcalc.system_u import Untypable, infer_u

# Messages the parsers gave before either took a memo.
MALFORMED_TERMS = [
    ("", "unexpected token '' (at offset 0)"),
    ("(", "unexpected token '' (at offset 1)"),
    (")", "unexpected token ')' (at offset 0)"),
    ("(x", "expected ), found '' (at offset 2)"),
    ("x)", "trailing input ')' (at offset 1)"),
    ("((x y)", "expected ), found '' (at offset 6)"),
    ("(x y))", "trailing input ')' (at offset 5)"),
    ("\\x.", "unexpected token '' (at offset 3)"),
    ("\\x x", "expected ., found 'x' (at offset 3)"),
    ("\\.x", "unexpected token '\\\\' (at offset 0)"),
    ("x[", "expected ident, found '' (at offset 2)"),
    ("x[y", "expected \\\\ or := in closure, found '' (at offset 3)"),
    ("x[y \\ z", "expected ], found '' (at offset 7)"),
    ("x[y = z]", "unexpected character '=' (at offset 4)"),
    ("x # y", "unexpected character '#' (at offset 2)"),
    ("der(", "unexpected token '' (at offset 4)"),
    ("der()", "unexpected token ')' (at offset 4)"),
    ("!(x", "expected ), found '' (at offset 3)"),
    ("(x) (y", "expected ), found '' (at offset 6)"),
    ("((x)) é", "unexpected character 'é' (at offset 6)"),
    ("x\ty )", "trailing input ')' (at offset 4)"),
    ("λ", "unexpected token 'λ' (at offset 0)"),
    ("x[(y) \\ z]", "expected ident, found '(' (at offset 2)"),
    ("(x)(y))z", "trailing input ')' (at offset 6)"),
    ("x[y := (z]", "expected ), found ']' (at offset 9)"),
]

MALFORMED_TYPES = [
    ("", "unexpected end of type"),
    ("[", "unexpected end of type"),
    ("]", "unexpected token ']' in type"),
    ("[o0", "unterminated multiset"),
    ("[o0,", "unexpected end of type"),
    ("[o0,]", "unexpected token ']' in type"),
    ("o0 ->", "arrow domain must be a multiset"),
    ("o0 -> o0", "arrow domain must be a multiset"),
    ("[o0] ->", "unexpected end of type"),
    ("[o0] o0", "trailing tokens in type '[o0] o0'"),
    ("[[o0] -> o0,[o0]", "unterminated multiset"),
    ("x", "bad character 'x' in type"),
    ("o", "bad character 'o' in type"),
    ("[o0]]", "trailing tokens in type '[o0]]'"),
    ("[o0 o1]", "unexpected token 'o1' in multiset"),
    ("->", "unexpected token '->' in type"),
    ("[o0] -> -> o0", "unexpected token '->' in type"),
    ("[o0,[o1] -> a,b", "unterminated multiset"),
    ("[a] -> é", "bad character 'é' in type"),
    ("[(o0)]", "bad character '(' in type"),
    ("[o0]\t[o1]", "trailing tokens in type '[o0]\\t[o1]'"),
    ("[,]", "unexpected token ',' in type"),
]


def outcome(parse, text, memo=None):
    try:
        return "ok", parse(text) if memo is None else parse(text, memo=memo)
    except (ParseError, TypeParseError) as ex:
        return type(ex).__name__, str(ex)


def pairs(text, opener, closer):
    """(start, end) of every matched pair of brackets in text."""
    out, opens = [], []
    for i, c in enumerate(text):
        if c == opener:
            opens.append(i)
        elif c == closer and opens:
            out.append((opens.pop(), i + 1))
    return out


def elements(text, start, end):
    """The comma-separated element texts of the multiset text[start:end]."""
    out, depth, last = [], 0, start
    for i in range(start + 1, end - 1):
        depth += {"[": 1, "]": -1}.get(text[i], 0)
        if text[i] == "," and depth == 0:
            out.append(text[last + 1:i])
            last = i
    return out + [text[last + 1:end - 1]]


def subtexts(text):
    """The texts the memos look up inside text: what lies between a pair of
    parentheses, and each bracketed multiset and its elements."""
    out = [text[a + 1:b - 1] for a, b in pairs(text, "(", ")")]
    for a, b in pairs(text, "[", "]"):
        out += [text[a:b], *elements(text, a, b)]
    return out


def seeded_memos(text, seed):
    """A term memo and a type memo that hold the parses of some of text's
    subtexts: only texts that parse are stored, each as its own parse."""
    rng = random.Random(seed)
    terms, types = {}, {}
    for sub in subtexts(text):
        if rng.random() < 0.6:
            for memo, parse in ((terms, parse_term), (types, parse_type)):
                kind, value = outcome(parse, sub)
                if kind == "ok":
                    memo[sub] = value
    return terms, types


def assert_memo_paths_agree(text, seed):
    terms, types = seeded_memos(text, seed)
    for parse, memo in ((parse_term, terms), (parse_type, types)):
        assert outcome(parse, text, memo) == outcome(parse, text), (parse.__name__, text)
        # whatever the memo parse stored is the plain parse of its text
        for key, value in memo.items():
            assert outcome(parse, key) == ("ok", value), (parse.__name__, key)


@pytest.mark.parametrize("text, message", MALFORMED_TERMS)
def test_malformed_term_messages_are_pinned(text, message):
    assert outcome(parse_term, text) == ("ParseError", message)
    for seed in range(4):
        terms, _ = seeded_memos(text, seed)
        assert outcome(parse_term, text, terms) == ("ParseError", message)


@pytest.mark.parametrize("text, message", MALFORMED_TYPES)
def test_malformed_type_messages_are_pinned(text, message):
    assert outcome(parse_type, text) == ("TypeParseError", message)
    for seed in range(4):
        _, types = seeded_memos(text, seed)
        assert outcome(parse_type, text, types) == ("TypeParseError", message)


def corpus_texts():
    out = []
    for t in generate_corpus(5, 10, 30):
        out.append(print_term(t))
        d = infer_u(t, 500)
        if not isinstance(d, (Untypable, FuelExhausted)):
            stack = [d]
            while stack:
                node = stack.pop()
                out.append(print_term(node.subject))
                out += [print_type(node.type), *map(print_type, node.context.values())]
                stack.extend(node.premises)
    return sorted(set(out))


CORPUS_TEXTS = corpus_texts()
ALPHABET = "\\λ.()[]!x y:=der,o0->abn#é\t"


def mutated(data, text):
    how = data.draw(st.sampled_from(["keep", "truncate", "insert", "delete"]))
    i = data.draw(st.integers(0, len(text)))
    if how == "truncate":
        return text[:i]
    if how == "insert":
        return text[:i] + data.draw(st.sampled_from(ALPHABET)) + text[i:]
    if how == "delete":
        return text[:i] + text[i + 1:]
    return text


@given(st.text(alphabet=ALPHABET, max_size=30), st.integers(0, 2**16))
def test_memo_paths_agree_on_random_text(text, seed):
    assert_memo_paths_agree(text, seed)


@given(st.data(), st.integers(0, 2**16))
def test_memo_paths_agree_on_corpus_text(data, seed):
    text = mutated(data, data.draw(st.sampled_from(CORPUS_TEXTS)))
    assert_memo_paths_agree(text, seed)


def test_corpus_texts_read_alike_with_a_shared_memo():
    terms, types = {}, {}
    for text in CORPUS_TEXTS:
        for parse, memo in ((parse_term, terms), (parse_type, types)):
            assert outcome(parse, text, memo) == outcome(parse, text), text


# ---------------------------------------------------------------------------
# Multisets: kept when in order, sorted otherwise

A = parse_type("[o0] -> o0")


@pytest.mark.parametrize("text", [
    "[[o0] -> o0,[o0]->o0]",
    "[[o0] -> o0, o1, [o0]->o0]",
    "[o0,[o0] -> o0,o0,[o0] -> o0]",
    "[[[o0] -> o0],[o0] -> o0,[[o0]->o0]]",
])
def test_equal_elements_written_apart(text):
    want = parse_type(text)
    assert list(want.elements) == sorted(want.elements, key=sort_key)
    for seed in range(4):
        assert_memo_paths_agree(text, seed)
        _, types = seeded_memos(text, seed)
        assert parse_type(text, types) == want


SORTED = [BaseVar(0), BaseVar(1), Tight("a"), Tight("n"), Mult((BaseVar(0),)), A]


@pytest.mark.parametrize("i", range(len(SORTED) - 1))
def test_one_adjacent_pair_out_of_order(i):
    es = list(SORTED)
    es[i], es[i + 1] = es[i + 1], es[i]
    assert mult(es) == Mult(tuple(SORTED))
    text = "[" + ",".join(map(print_type, es)) + "]"
    assert parse_type(text) == parse_type(text, {}) == Mult(tuple(SORTED))
    assert print_type(parse_type(text)) == print_type(Mult(tuple(SORTED)))


def test_mult_keys_each_element_of_a_sorted_bag_once(monkeypatch):
    calls = []
    monkeypatch.setattr(qtypes, "sort_key", lambda t, _key=sort_key: calls.append(t) or _key(t))
    flat = [BaseVar(0), BaseVar(1), Tight("a"), Tight("b"), Tight("n")]
    assert mult(flat) == Mult(tuple(flat))
    assert len(calls) == len(flat)
    calls.clear()
    assert mult([A] * 5 + [A]) == Mult((A,) * 6)
    assert calls == []


def types(depth=2):
    leaf = st.one_of(st.builds(BaseVar, st.integers(0, 2)), st.sampled_from([Tight(c) for c in "abn"]))
    if depth == 0:
        return leaf
    sub = types(depth - 1)
    bags = st.lists(sub, max_size=3).map(lambda es: Mult(tuple(sorted(es, key=sort_key))))
    return st.one_of(leaf, bags, st.builds(Arrow, bags, sub))


@given(st.lists(types(), max_size=6), st.data())
def test_mult_sorts_like_sorted(es, data):
    if es:  # repeat some elements as the same object, in place or apart
        es = es + [data.draw(st.sampled_from(es)) for _ in range(data.draw(st.integers(0, 3)))]
    if data.draw(st.booleans()):
        es = sorted(es, key=sort_key)
    assert mult(es) == Mult(tuple(sorted(es, key=sort_key)))


# ---------------------------------------------------------------------------
# What the lexers skip

def test_memo_spans_are_the_outermost_held_parts():
    arrow, bag = parse_type("[o0] -> o0"), parse_type("[o0]")
    held = {"[o0] -> o0": arrow, " [o0]": bag}
    assert memo_spans("[[o0] -> o0,o1, [o0],[[o0] -> o0]]", _TYPE_MARKS, held, inner=False) == [
        (1, 11, arrow), (15, 20, bag), (22, 32, arrow)]
    assert memo_spans("[[o0]] -> [[o0] -> o0]", _TYPE_MARKS, {"[o0]": bag, **held}, inner=False) == [
        (1, 5, bag), (11, 21, arrow)]
    fx = parse_term("f x")
    assert memo_spans("(f x) (g (f x)) ((f x)", _PARENS, {"f x": fx}, inner=True) == [
        (0, 5, fx), (9, 14, fx)]
