"""The derivation reader parses each distinct text once per read.

`serialize.derivation_from_json` keeps a text -> term and a text -> type
memo for one call, and assembles a node's subject from its premises'
subjects where the node's text is what the printer writes for it.  These
tests hold it to the plain reader in conftest (`ref_derivation_from_json`),
on canonical text, on non-canonical but equivalent text and on near misses
of the printer's text, and check that equal texts share one object and
that premise subjects are their nodes' parts."""

import contextlib
import dataclasses
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

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


def bare_term(t) -> str:
    """Surface syntax of t with as few parentheses as the grammar allows,
    which neither the printer nor `noisy_term` writes: a closure, a bang or
    a dereliction is an application argument without parentheses, and a
    dereliction of an atom is `der x`."""
    match t:
        case Var(x):
            return x
        case Abs(x, b):
            return f"\\{x}. {bare_term(b)}"
        case App(f, a):
            head = f"({bare_term(f)})" if isinstance(f, Abs) else bare_term(f)
            return f"{head} {_bare_post(a)}"
        case Bang(b):
            return "!" + _bare_atom(b)
        case Der(b):
            return "der " + _bare_atom(b) if isinstance(b, (Var, Bang, Der)) else f"der({bare_term(b)})"
        case Sub(b, x, a):
            return f"{_bare_post(b)}[{x} \\ {bare_term(a)}]"
    raise TypeError(t)


def _bare_atom(t) -> str:
    return bare_term(t) if isinstance(t, (Var, Bang, Der)) else f"({bare_term(t)})"


def _bare_post(t) -> str:
    return bare_term(t) if isinstance(t, Sub) else _bare_atom(t)


def near_miss(t, rng) -> str:
    """The printer's text of t with one extra space, often next to a binder,
    or with another binder, often `der`: it may mean another term or none."""
    text = syntax.print_term(t)
    if not isinstance(t, (Abs, Sub)) or rng.random() < 0.3:
        at = rng.randint(0, len(text))
    elif rng.random() < 0.5:
        binder = rng.choice(["der", "der", "derx", "x'", "x_1", "x", "y"])
        return syntax.print_term(dataclasses.replace(t, binder=binder))
    else:
        # text is "\\x. b" or "b[x \\ a]"
        start = (1 if isinstance(t, Abs)
                 else len(text) - len(syntax.print_term(t.arg)) - 4 - len(t.binder))
        at = rng.choice([start, start + len(t.binder)])
    return text[:at] + " " + text[at:]


def rename_names(t, names):
    """t with every variable and binder renamed through `names`."""
    match t:
        case Var(x):
            return Var(names.get(x, x))
        case Abs(x, b):
            return Abs(names.get(x, x), rename_names(b, names))
        case App(f, a):
            return App(rename_names(f, names), rename_names(a, names))
        case Bang(b):
            return Bang(rename_names(b, names))
        case Der(b):
            return Der(rename_names(b, names))
        case Sub(b, x, a):
            return Sub(rename_names(b, names), names.get(x, x), rename_names(a, names))
    raise TypeError(t)


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


def test_premise_subjects_are_the_node_subterms(monkeypatch):
    """A read assembles each node's subject from its premises' subjects, so
    every premise that types a part of its node's subject is that very
    part: each fixed premise its own part, and every further premise (of
    bg and abs_v the body, of app_n and es_n the argument) the rule's rest
    part.  A leaf's subject is a variable read from its name, so a
    church(n) read calls parse_term 0 times in every system."""
    calls = []
    monkeypatch.setattr(serialize, "parse_term", calls.append)
    for system in "uenv":
        for n in (20, 40):
            derivation_from_json(church_json(system, n))
        obj = church_json(system, 80)
        d = derivation_from_json(obj)
        assert calls == []
        links = 0
        for node in _derivations(d):
            rule = system_u.RULES[system][node.rule]
            parts = [getattr(node.subject, part) for part in rule.parts]
            if rule.rest:
                parts += [getattr(node.subject, rule.rest)] * (len(node.premises) - rule.fixed)
            assert len(parts) == len(node.premises)
            for p, part in zip(node.premises, parts):
                assert p.subject is part, (system, node.rule)
                links += 1
        assert links == sum(1 for _ in _derivations(d)) - 1 > 240


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
    """A read assembles each node's subject from its premises' subjects and
    never relexes a subject text, so the term tokens of a read grow with
    its nodes, not its text."""
    obj = church_json("u", n)
    counts = []

    class Counted(syntax.Lexer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts.append(len(self.toks))
    monkeypatch.setattr(syntax, "Lexer", Counted)
    derivation_from_json(obj)
    assert sum(counts) <= 10 * len(list(_nodes(obj)))


@pytest.mark.parametrize("system", "uenv")
@pytest.mark.parametrize("n", [20, 40, 80])
def test_type_memo_hits_are_not_lexed(monkeypatch, system, n):
    """A type text the read already holds is not lexed, nor is one it
    assembles from held parts: a run of one held element, an arrow from
    its held domain and its codomain, or a one-element multiset from its
    element.  So the type tokens of a read grow with its nodes, not with
    its text, although each context restates its run in full."""
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
    """The checker calls the tight-constant search at most once for each
    distinct object among the nodes' types and context entries (it looks
    each up in the search's memo first), and beyond those calls the search
    makes one call for each distinct type object and each run of one
    repeated element: the k copies of a church context's element are
    looked at once, not k times."""
    d = derivation_from_json(church_json("u", 80))
    distinct, runs = _distinct_types(d)
    calls, depth = [], [0]
    has_tight = qtypes.has_tight_constants

    def counted(t, memo):
        calls.append(depth[0])
        depth[0] += 1
        try:
            return has_tight(t, memo)
        finally:
            depth[0] -= 1
    for mod in (qtypes, system_u):
        monkeypatch.setattr(mod, "has_tight_constants", counted)
    assert check_derivation_u(d) is None
    entries = {id(t) for node in _derivations(d) for t in (node.type, *node.context.values())}
    top = calls.count(0)
    assert 0 < top <= len(entries)
    assert len(calls) - top <= distinct + runs


def test_u_check_looks_into_each_type_object_once(monkeypatch):
    """A read derivation shares its types, context multisets and their
    elements between nodes; the U check looks into each object once for
    tight constants."""
    d = derivation_from_json(church_json("u", 80))
    looked = []
    has_tight = qtypes.has_tight_constants

    def counted(t, memo):
        if id(t) not in memo:
            looked.append(id(t))
        return has_tight(t, memo)
    for mod in (qtypes, system_u):
        monkeypatch.setattr(mod, "has_tight_constants", counted)
    assert check_derivation_u(d) is None
    assert looked and len(looked) == len(set(looked))


def count_leading(monkeypatch) -> list[int]:
    """The list that gets the characters each `_leading` call scans."""
    leading, scanned = qtypes._leading, []

    def counted(text):
        comma, end = leading(text)
        scanned.append(len(text) if end < 0 else end)  # it stops at the first multiset's end
        return comma, end
    monkeypatch.setattr(qtypes, "_leading", counted)
    return scanned


@pytest.mark.parametrize("held", [[], ["o0", "[o0]"]])
def test_nested_one_element_multisets_go_to_the_parser_after_linear_work(monkeypatch, held):
    """k nested one-element multisets `[[...[o0]...]]`: before the text
    goes to the parser, the characters `_leading` scans and the text stored
    in the memo stay within a small multiple of the text's length, at
    every k.  A one-element multiset of a held element is still assembled."""
    scanned = count_leading(monkeypatch)
    for k in (10, 100, 1000, 10_000):
        text = "[" * k + "o0" + "]" * k
        memo = {h: qtypes.parse_type(h) for h in held}
        scanned.clear()
        assert qtypes._assembled(text, memo) is None
        stored = sum(len(t) for t in memo if t not in held)
        assert sum(scanned) + stored <= 3 * len(text), k
    memo = {h: qtypes.parse_type(h) for h in held}
    if held:
        assert qtypes._assembled("[[o0]]", memo) == Mult((memo["[o0]"],))
        assert memo["[[o0]]"].elements[0] is memo["[o0]"]


@pytest.mark.parametrize("shape", ["alternating", "arrows"])
def test_chains_over_held_texts_go_to_the_parser_after_linear_work(monkeypatch, shape):
    """k levels of `[[o0] -> [[o0] -> ... o0]]` or of `[o0] -> ... -> o0`,
    with `[o0]` and `o0` held: what `_leading` scans and what the memo
    gets stay within three times the text's length, at every k.  One
    level is one step from the held texts, and is assembled."""
    scanned = count_leading(monkeypatch)
    for k in (1, 10, 100, 1000, 10_000):
        text = "[[o0] -> " * k + "o0" + "]" * k if shape == "alternating" else "[o0] -> " * k + "o0"
        memo = {h: qtypes.parse_type(h) for h in ("o0", "[o0]")}
        scanned.clear()
        got = qtypes._assembled(text, memo)
        stored = sum(len(t) for t in memo if t not in ("o0", "[o0]"))
        assert sum(scanned) + stored <= 3 * len(text), k
        assert got == (qtypes.parse_type(text) if k == 1 else None), k


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


# Names that the lexer reads as identifiers, next to `der`, primes and digits
ODD_NAMES = {"x": "derx", "y": "x'", "z": "x_1", "w": "der'", "f": "derder", "u": "d"}


def odd_corpus_json():
    out = []
    for lam, systems in ((False, "ue"), (True, "nv")):
        found = []
        for t in generate_corpus(5, 10, 30, lam=lam):
            for system in systems:
                obj = derivation_json(system, rename_names(t, ODD_NAMES))
                if obj is not None and len(json.dumps(obj)) < 3000:
                    found.append((system, obj))
        out += found[:12]
    return out


ODD = odd_corpus_json()


def read_or_none(read, obj):
    try:
        return read(obj)
    except MalformedDerivation:
        return None


def assert_same_nodes(got, want):
    for a, b in zip(_derivations(got), _derivations(want), strict=True):
        assert (type(a), a.rule, a.context, a.type) == (type(b), b.rule, b.context, b.type)
        assert syntax.term_eq(a.subject, b.subject), (a.subject, b.subject)
        assert getattr(a, "counters", None) == getattr(b, "counters", None)
        assert len(a.premises) == len(b.premises)


REWRITES = {
    "canonical": lambda t, rng: syntax.print_term(t),
    "noisy": noisy_term,
    "bare": lambda t, rng: bare_term(t),
    "near miss": near_miss,
}


@settings(max_examples=300)
@given(st.data())
def test_reader_matches_the_plain_reader_on_each_node_rewritten(data):
    """Each node's text rewritten on its own: in the printer's form, which
    the read assembles; in noisy or minimal-parenthesis forms, which it
    parses; or as a near miss of the printer's form, which it must not
    take for it.  The read gives the plain reader's derivation, node by
    node, and the same check verdict, or fails as malformed as it does."""
    system, obj = data.draw(st.sampled_from(SMALL + ODD))
    forms = data.draw(st.lists(st.sampled_from(sorted(REWRITES)), min_size=1, max_size=4))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    copy = json.loads(json.dumps(obj))
    for node, o in pairs(ref_derivation_from_json(obj), copy):
        o["term"] = REWRITES[rng.choice(forms + ["canonical"])](node.subject, rng)
    got = read_or_none(derivation_from_json, copy)
    want = read_or_none(ref_derivation_from_json, copy)
    assert (got is None) == (want is None)
    if got is not None:
        assert_same_nodes(got, want)
        assert CHECK[system](got) == CHECK[system](want)


@pytest.mark.parametrize("name", ["der", " x", "x ", "x'", "derx", "x_1"])
def test_a_name_is_taken_from_the_text_only_as_the_lexer_reads_it(name):
    """The printer's text of a node with another variable or binder, every
    other text canonical: the read takes the name from the text only where
    it is an identifier, and reads it as the plain reader parses it."""
    checked = 0
    for _, obj in SMALL + ODD:
        d = ref_derivation_from_json(obj)
        for node, o in pairs(d, obj):
            s = node.subject
            if isinstance(s, (Var, Abs, Sub)):
                renamed = dataclasses.replace(s, **{"name" if isinstance(s, Var) else "binder": name})
                copy = json.loads(json.dumps(obj))
                for other, co in pairs(d, copy):
                    if other is node:
                        co["term"] = syntax.print_term(renamed)
                got = read_or_none(derivation_from_json, copy)
                want = read_or_none(ref_derivation_from_json, copy)
                assert (got is None) == (want is None) == (name == "der")
                if got is not None:
                    assert_same_nodes(got, want)
                checked += 1
    assert checked > 50


def test_rewrites_reach_every_form():
    """The minimal-parenthesis and near-miss texts are new to the read: the
    printer does not write them, and some parse and some do not."""
    rng = random.Random(0)
    terms = [node.subject for _, obj in SMALL + ODD
             for node in _derivations(ref_derivation_from_json(obj))]
    bare = [bare_term(t) for t in terms]
    assert sum(text != syntax.print_term(t) for t, text in zip(terms, bare)) > 10
    assert all(syntax.term_eq(syntax.parse_term(text), t) for t, text in zip(terms, bare))
    assert any(" der " in text or text.startswith("der ") for text in bare)
    near = [near_miss(t, rng) for t in terms]
    parsed = 0
    for text in near:
        with contextlib.suppress(syntax.ParseError):
            syntax.parse_term(text)
            parsed += 1
    assert 10 < parsed < len(near)


@pytest.mark.parametrize("where", ["root", "premise", "leaf"])
@pytest.mark.parametrize("junk", [3, None, ["x"], {"t": "x"}])
def test_malformed_premises_and_terms_exit_2(where, junk):
    """A premise that is not a node, or a term text that is not a string,
    at the root, at a premise or at a leaf, is malformed: typecheck exits 2."""
    system, good = next((s, o) for s, o in SMALL if s == "u" and o["premises"])
    for field, value in (("term", junk), ("premises", [junk])):
        node = obj = json.loads(json.dumps(good))
        if where != "root":
            node = obj["premises"][0]
        while where == "leaf" and node["premises"]:
            node = node["premises"][-1]
        node[field] = value
        with pytest.raises(MalformedDerivation):
            derivation_from_json(obj)
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["typecheck", "--system", system, json.dumps(obj)]) == 2
