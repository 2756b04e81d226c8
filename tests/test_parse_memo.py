"""The memo path of `parse_type` against the plain parse.

With a memo, the type parser looks a text up, or assembles it from held
parts (a run of one held element, an arrow from its held domain and its
codomain, a one-element multiset from its element), before lexing it, and
`qtypes.mult` keeps elements that are already in order.  The parse
without a memo is the oracle: with any memo that maps texts to their own
parses, a text parses to an equal value, or fails with the same exception
and message.  The term parser has no memo; its messages are pinned here
too, and its one walk is checked against the recursive descent it
replaced (`ref_parse_term`) on the same texts."""

import random

import pytest
from hypothesis import given, strategies as st

from bangcalc import qtypes
from bangcalc.gen import generate_corpus
from bangcalc.qtypes import (
    Arrow, BaseVar, Mult, Tight, TypeParseError, mult, parse_type, print_type,
    sort_key,
)
from bangcalc.reduction import FuelExhausted
from bangcalc.syntax import ParseError, parse_term, print_term
from bangcalc.system_u import Untypable, infer_u

from conftest import ref_parse_term

# Messages the parsers gave before either took a memo; the type parser's
# are also those of its memo path.
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
    ("[o0] -> o0 o1", "trailing tokens in type '[o0] -> o0 o1'"),
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
    """The texts the type memo assembles text from: each bracketed multiset
    and its elements, and both sides of every " -> " in text or in one of
    these."""
    out = [text]
    for a, b in pairs(text, "[", "]"):
        out += [text[a:b], *elements(text, a, b)]
    for sub in list(out):
        j = sub.find(" -> ")
        while j >= 0:
            out += [sub[:j], sub[j + 4:]]
            j = sub.find(" -> ", j + 4)
    return out[1:]


def seeded_memo(text, seed):
    """A type memo that holds the parses of some of text's subtexts: only
    texts that parse are stored, each as its own parse."""
    rng = random.Random(seed)
    types = {}
    for sub in subtexts(text):
        if rng.random() < 0.6:
            kind, value = outcome(parse_type, sub)
            if kind == "ok":
                types[sub] = value
    return types


def assert_memo_paths_agree(text, seed):
    types = seeded_memo(text, seed)
    assert outcome(parse_type, text, types) == outcome(parse_type, text), text
    # whatever the memo parse stored is the plain parse of its text
    for key, value in types.items():
        assert outcome(parse_type, key) == ("ok", value), key


@pytest.mark.parametrize("text, message", MALFORMED_TERMS)
def test_malformed_term_messages_are_pinned(text, message):
    assert outcome(parse_term, text) == ("ParseError", message)


@pytest.mark.parametrize("text, message", MALFORMED_TYPES)
def test_malformed_type_messages_are_pinned(text, message):
    assert outcome(parse_type, text) == ("TypeParseError", message)
    for seed in range(4):
        types = seeded_memo(text, seed)
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


def assert_term_parsers_agree(text):
    assert outcome(parse_term, text) == outcome(ref_parse_term, text), text


def test_term_parsers_agree_on_the_corpus_and_the_pinned_messages():
    for text in CORPUS_TEXTS + [text for text, _ in MALFORMED_TERMS]:
        assert_term_parsers_agree(text)


@given(st.text(alphabet=ALPHABET, max_size=30))
def test_term_parsers_agree_on_random_text(text):
    assert_term_parsers_agree(text)


@given(st.data())
def test_term_parsers_agree_on_corpus_text(data):
    assert_term_parsers_agree(mutated(data, data.draw(st.sampled_from(CORPUS_TEXTS))))


def test_corpus_texts_read_alike_with_a_shared_memo():
    types = {}
    for text in CORPUS_TEXTS:
        assert outcome(parse_type, text, types) == outcome(parse_type, text), text


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
        assert parse_type(text, seeded_memo(text, seed)) == want


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
# Runs: a multiset text that writes one element text k times

RUN_ELEMENTS = ["o0", "a", "[o0]", "[o0] -> o0", "[o0,o1] -> o0", "[n] -> n", "[]",
                "[[o0] -> o0,[o0] -> o0] -> [o0] -> o0", " o0 "]


def run(e, k):
    return "[" + ",".join([e] * k) + "]"


def near_runs(e):
    """Canonical runs of e, and texts one edit away from one."""
    texts = [run(e, k) for k in (1, 2, 3, 5)]
    for i in (0, 2, 4):
        es = [e] * 5
        texts += [
            "[" + ",".join(es[:i] + ["o1"] + es[i + 1:]) + "]",      # changed
            "[" + ",".join(es[:i] + [f"[{e}]"] + es[i + 1:]) + "]",  # changed
            "[" + ",".join(es[:i] + [e + " "] + es[i + 1:]) + "]",   # changed spacing
            "[" + ",".join(es[:i] + es[i + 1:]) + "]",               # dropped
            "[" + ",".join(es[:i] + [""] + es[i + 1:]) + "]",        # dropped, comma kept
            "[" + ",".join(es[:i] + [e, "a"] + es[i:]) + "]",        # added
            "[" + ",".join(es[:i] + [e] + es[i:]) + "]",             # added copy
        ]
    texts += [
        "[" + ", ".join([e] * 3) + "]", "[ " + ",".join([e] * 3) + "]",
        "[" + ",".join([e] * 3) + " ]", "[" + " , ".join([e] * 3) + "]",
        run(e, 3)[:-1], run(e, 3)[:-1] + ",", run(e, 3)[:-2], run(e, 3) + "]",
        run(e, 2) + run(e, 2), "[" + e + " " + e + "]",
        run(e, 3) + " -> o0", run(e, 3) + " ->", f"[{run(e, 2)} -> o0,{run(e, 2)} -> o0]",
        run(run(e, 2), 3), run(f"{run(e, 2)} -> a", 4),
    ]
    return texts


# Messages the type parser gave on malformed near-runs before it took the run path.
MALFORMED_RUNS = [
    ("[o0,o0,o0", "unterminated multiset"),
    ("[o0,o0,o0,", "unexpected end of type"),
    ("[o0,o0,o", "bad character 'o' in type"),
    ("[[o0] -> o0,[o0] -> o0,[o0] -> o0]]",
     "trailing tokens in type '[[o0] -> o0,[o0] -> o0,[o0] -> o0]]'"),
    ("[[o0] -> o0,[o0] -> o0,[o0] -> o0] ->", "unexpected end of type"),
    ("[[o0] -> o0,,[o0] -> o0]", "unexpected token ',' in type"),
    ("[[o0] -> o0,[o0] -> o0,]", "unexpected token ']' in type"),
    ("[,[o0] -> o0,[o0] -> o0]", "unexpected token ',' in type"),
    ("[[o0] -> o0 [o0] -> o0]", "unexpected token '[' in multiset"),
    ("[[o0] -> o0 o1,[o0] -> o0,[o0] -> o0]", "unexpected token 'o1' in multiset"),
    ("[[o0,o1] -> o0,[o0,o1] -> o0,[o0,o1] -> o0", "unterminated multiset"),
    ("[[o0,o1] -> o0,[o0,o1] -> o0][[o0,o1] -> o0,[o0,o1] -> o0]",
     "trailing tokens in type '[[o0,o1] -> o0,[o0,o1] -> o0][[o0,o1] -> o0,[o0,o1] -> o0]'"),
    ("[[n] -> n,[n] -> n,[n] -> ", "unexpected end of type"),
    ("[[],[],[", "unexpected end of type"),
    ("[[] []]", "unexpected token '[' in multiset"),
    ("[o0 o0]", "unexpected token 'o0' in multiset"),
]


@pytest.mark.parametrize("text, message", MALFORMED_RUNS)
def test_malformed_run_messages_are_pinned(text, message):
    assert outcome(parse_type, text) == ("TypeParseError", message)
    for e in RUN_ELEMENTS:
        assert outcome(parse_type, text, {e: parse_type(e)}) == ("TypeParseError", message)
    for seed in range(4):
        types = seeded_memo(text, seed)
        assert outcome(parse_type, text, types) == ("TypeParseError", message)


@pytest.mark.parametrize("e", RUN_ELEMENTS)
def test_runs_parse_alike_with_and_without_a_memo(e):
    held = parse_type(e)
    for text in near_runs(e):
        want = outcome(parse_type, text)
        for memo in ({}, {e: held}, {e: held, "[o0]": parse_type("[o0]")}):
            assert outcome(parse_type, text, memo) == want, (text, memo)
            for key, value in memo.items():
                assert outcome(parse_type, key) == ("ok", value), key
        for seed in range(3):
            assert_memo_paths_agree(text, seed)


@pytest.mark.parametrize("e", RUN_ELEMENTS)
def test_a_run_reads_as_copies_of_the_held_element(e):
    held = parse_type(e)
    for k in (1, 2, 7):
        memo = {e: held}
        got = parse_type(run(e, k), memo)
        assert got == parse_type(run(e, k))
        assert len(got) == k and all(x is held for x in got.elements)
        assert memo[run(e, k)] is got
        assert parse_type(run(e, k), memo) is got


# ---------------------------------------------------------------------------
# Arrows: a held multiset domain and a held codomain

ARROWS = [  # a text, and the held texts it is assembled from in one step
    ("[o0] -> o0", ["[o0]", "o0"]),
    ("[a] -> [n,n]", ["[a]", "[n,n]"]),
    ("[o0,o0,o0] -> [o0] -> o0", ["[o0,o0,o0]", "[o0] -> o0"]),
    ("[o0] -> [o1] -> [a] -> n", ["[o0]", "[o1] -> [a] -> n"]),
    ("[[o0,o0] -> [[] -> []]]", ["[o0,o0]", "[[] -> []]"]),  # the shape of a V context entry
]

# texts more than one step from the held texts: they go to the parser
MULTI_STEP = [
    ("[a] -> [n,n]", ["[a]", "n"]),
    ("[o0] -> [o1] -> [a] -> n", ["[o0]", "[o1]", "[a]", "n"]),
    ("[[o0,o0] -> [[] -> []]]", ["[o0,o0]", "[]"]),
]


def parts_of(t):
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        out.append(t)
        if isinstance(t, Mult):
            stack.extend(t.elements)
        elif isinstance(t, Arrow):
            stack += [t.domain, t.codomain]
    return out


@pytest.mark.parametrize("text, held", ARROWS)
def test_an_arrow_is_assembled_from_its_held_parts_without_lexing(monkeypatch, text, held):
    memo = {h: parse_type(h) for h in held}
    values = list(memo.values())
    monkeypatch.setattr(qtypes, "Lexer", None)  # any parse would fail
    got = parse_type(text, memo)
    monkeypatch.undo()
    assert got == parse_type(text) and memo[text] is got
    assert all(any(v is p for p in parts_of(got)) for v in values)


@pytest.mark.parametrize("text, held", ARROWS)
def test_near_misses_of_an_assembled_arrow_read_as_the_plain_parse(text, held):
    for near in [text + " o1", text + " -> ", text + "]", text[:-1], text[1:],
                 text.replace(" -> ", "->", 1), text.replace(" -> ", " ->  ", 1),
                 text.replace(" -> ", " -> -> ", 1), "[" + text + "]",
                 "[" + text + "," + text + "]", text + " -> " + text, "[o0] -> " + text]:
        memo = {h: parse_type(h) for h in held}
        assert outcome(parse_type, near, memo) == outcome(parse_type, near), near


@pytest.mark.parametrize("text, held", MULTI_STEP)
def test_a_text_more_than_one_step_from_held_texts_reads_as_the_plain_parse(text, held):
    for near in [text, text + " o1", text[:-1], "[" + text + "]", "[o0] -> " + text]:
        memo = {h: parse_type(h) for h in held}
        assert outcome(parse_type, near, memo) == outcome(parse_type, near), near


@pytest.mark.parametrize("text, read", [
    ("[o0]->o0 -> o1", ["[o1]", "[[o0]->o0]"]),
    ("[o0]->o0 -> o1", ["[o0]->o0", "[o0]", "o1"]),
    ("[o0]->[o1]->o0 -> [o1]", ["[[o0]->[o1]->o0]", "[o1]"]),
    ("[o0] ->o0 -> o1", ["[[o0] ->o0]", "o1"]),
])
def test_a_held_arrow_text_before_an_arrow_reads_as_the_plain_parse(text, read):
    # the type lexer reads "->" without spaces, so a held text that runs
    # up to the first " -> " may be an arrow, which is no arrow's domain
    memo = {}
    for r in read:
        parse_type(r, memo)
    assert outcome(parse_type, text, memo) == outcome(parse_type, text), memo


# ---------------------------------------------------------------------------
# A fixed number of lookups per text, however long its first multiset

class CountingMemo(dict):
    """A memo that counts its lookups; the parse's stores are not counted."""
    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)


def domain_run(e, k):
    """An arrow whose domain is a run of k arrows e, and texts around it."""
    return {
        "arrow": run(e, k) + " -> [o0] -> o0",
        "run": run(e, k),
        "one-element": f"[{run(e, k)} -> [[] -> []]]",
    }


@pytest.mark.parametrize("e", ["[o0] -> o0", "[o0,o1] -> o0"])
@pytest.mark.parametrize("shape", ["arrow", "run", "one-element"])
@pytest.mark.parametrize("domain_held", [False, True])
def test_memo_lookups_do_not_grow_with_the_first_multiset(e, shape, domain_held):
    probes = []
    for k in (10, 100, 1000):
        text = domain_run(e, k)[shape]
        memo = CountingMemo({e: parse_type(e), "[o0] -> o0": parse_type("[o0] -> o0"),
                             "[[] -> []]": parse_type("[[] -> []]")})
        if domain_held:
            memo[run(e, k)] = parse_type(run(e, k))
        memo.probes = 0
        assert parse_type(text, memo) == parse_type(text)
        probes.append(memo.probes)
    assert probes[0] == probes[1] == probes[2] <= 8, probes
