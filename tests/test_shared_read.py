"""Equal subtrees are read as one node, and each node object is checked once.

`serialize.derivation_from_json` compares a premise's JSON with that of
the subtree first read under the same rule and texts before it walks the
premise, and returns the node it read for an equal one; it also returns
the node it already read for a node whose rule, texts, context entries,
counters and premise objects are those of an earlier one.  So a read
derivation is a tree whose equal subtrees are one shared object, and a
repeated subtree is walked once.  `system_u.check_derivation` checks each
node object once, and its search for tight constants looks into k
copies of one element object once.  These tests pin how much a church
read shares and how many JSON nodes it enters, hold the verdicts and
violation paths to the plain reader in conftest (`ref_derivation_from_json`,
one object per position), and count the rule checks and the element
searches."""

import json
import subprocess
import sys

import pytest

from bangcalc import cli, qtypes, serialize, system_u
from bangcalc.serialize import MalformedDerivation, derivation_from_json

from conftest import ref_derivation_from_json
from test_entry_points import bangcalc
from test_reader import CHECK, CORPUS, church_json

CHURCH20 = {system: church_json(system, 20) for system in "uenv"}
CHURCH80 = {system: church_json(system, 80) for system in "uenv"}


def positions(obj):
    """(path, node) for every node of derivation JSON, pre-order."""
    stack = [((), obj)]
    while stack:
        path, o = stack.pop()
        yield path, o
        stack += [(path + (i,), p) for i, p in reversed(list(enumerate(o["premises"])))]


def objects(d):
    """Every node of a derivation, pre-order, once per position."""
    stack = [d]
    while stack:
        node = stack.pop()
        yield node
        stack += reversed(node.premises)


def at(obj, path):
    for i in path:
        obj = obj["premises"][i]
    return obj


def copy(obj):
    return json.loads(json.dumps(obj))


def verdict(read, system, obj):
    try:
        d = read(obj)
    except MalformedDerivation as ex:
        return str(ex)
    return CHECK[system](d)


# ---------------------------------------------------------------------------
# The shared read

@pytest.mark.parametrize("system, distinct, nodes", [
    ("u", 171, 408), ("e", 171, 408), ("n", 89, 326), ("v", 89, 247)])
def test_church80_reads_share_equal_subtrees(system, distinct, nodes):
    read = list(objects(derivation_from_json(CHURCH80[system])))
    assert (len({id(node) for node in read}), len(read)) == (distinct, nodes)
    assert len({id(node) for node in objects(ref_derivation_from_json(CHURCH80[system]))}) == nodes


def entered_nodes(monkeypatch):
    """The JSON nodes that reads enter from now on, as a list of their ids."""
    entered, walk = [], serialize._derivation_from_json

    def counted(obj, *rest):
        entered.append(id(obj))
        return walk(obj, *rest)
    monkeypatch.setattr(serialize, "_derivation_from_json", counted)
    return entered


@pytest.mark.parametrize("system, entered, nodes", [
    ("u", 171, 408), ("e", 171, 408), ("n", 89, 326), ("v", 89, 247)])
def test_church80_reads_enter_each_distinct_subtree_once(system, entered, nodes, monkeypatch):
    """A premise whose JSON equals the subtree first read under its rule
    and texts is not walked: a read enters one JSON node per distinct
    subtree, and each other position costs one compare."""
    obj = CHURCH80[system]
    seen = entered_nodes(monkeypatch)
    derivation_from_json(obj)
    assert len(seen) == len(set(seen)) == entered
    assert len({json.dumps(o, sort_keys=True) for _, o in positions(obj)}) == entered
    assert len(list(positions(obj))) == nodes


def test_one_object_for_each_distinct_subtree():
    """Two positions hold one object exactly where their JSON subtrees are
    equal."""
    for _, obj in CORPUS + list(CHURCH80.items()):
        by_text = {}
        for (_, o), node in zip(positions(obj), objects(derivation_from_json(obj)), strict=True):
            assert by_text.setdefault(json.dumps(o, sort_keys=True), node) is node
        assert len({id(node) for node in by_text.values()}) == len(by_text)


def test_values_that_compare_equal_but_read_otherwise_are_not_shared():
    """`True == 1` and `1.0 == 1`, yet a rule or counter of one kind does
    not read as the other: such nodes are read afresh, as the plain reader
    reads them."""
    leaf = {"context": {"x": "[n]"}, "term": "x", "type": "n", "premises": []}
    for rules in ((1, True), (1, 1.0), ("ax", "ax ")):
        obj = {"rule": "bg", "context": {"x": "[n, n]"}, "term": "!x", "type": "[n, n]",
               "premises": [dict(leaf, rule=r) for r in rules]}
        d = derivation_from_json(obj)
        assert [type(p.rule) for p in d.premises] == [type(r) for r in rules]
        assert [p.rule for p in d.premises] == list(rules)
        assert verdict(derivation_from_json, "u", obj) == verdict(ref_derivation_from_json, "u", obj)
    for bad in ([True, 0, 0], [1.0, 0, 0], None, [1, 0], [1, 0, 0, 0]):
        obj = {"rule": "bg", "context": {"x": "[n, n]"}, "term": "!x", "type": "[n, n]",
               "counters": [1, 0, 0], "premises": [
                   dict(leaf, rule="ax", counters=[1, 0, 0]), dict(leaf, rule="ax", counters=bad)]}
        with pytest.raises(MalformedDerivation, match="counters must be a list of three integers"):
            derivation_from_json(obj)
    # a context entry that cannot be hashed is refused as it was before
    obj = {"rule": "bg", "context": {"x": "[n, n]"}, "term": "!x", "type": "[n, n]",
           "premises": [dict(leaf, rule="ax"), dict(leaf, rule="ax", context={"x": ["[n]"]})]}
    with pytest.raises(MalformedDerivation, match="unhashable type: 'list'"):
        derivation_from_json(obj)


@pytest.mark.parametrize("value", [True, 1.0, False, 0.0])
def test_a_later_copy_whose_counters_only_equal_ints_is_refused(value, capsys):
    """`==` takes true and 1.0 for 1 (false and 0.0 for 0), so a later
    copy of church(80)'s largest repeated E subtree that holds such a
    value in its nested counters list has the first copy's JSON.  It is
    still refused, with the plain reader's message, and the command line
    exits 2 with it."""
    obj = copy(CHURCH80["e"])
    paths = next(iter(repeated_subtrees(obj).values()))
    inners = [path + inner for path in paths
              for inner, _ in list(positions(at(obj, path)))[1:]]  # nested nodes only
    assert len(inners) == len(paths) > 1
    for path in inners:
        at(obj, path)["counters"][0] = int(value)
    bad = copy(obj)
    at(bad, inners[-1])["counters"][0] = value
    assert bad == obj and derivation_from_json(obj) is not None
    with pytest.raises(MalformedDerivation) as got:
        derivation_from_json(bad)
    with pytest.raises(MalformedDerivation) as want:
        ref_derivation_from_json(bad)
    assert str(got.value) == str(want.value) == (
        "malformed derivation (ValueError: counters must be a list of three integers)")
    assert cli.main(["typecheck", "--system", "e", json.dumps(bad)]) == 2
    assert capsys.readouterr() == ("", f"parse error: {want.value}\n")


# ---------------------------------------------------------------------------
# Verdicts and paths against the plain reader

TAMPERS = (("type", "o999"), ("rule", "zz"), ("context", {"zz": "[o0]"}), ("counters", [9, 9, 9]))


def tampered_copies(obj):
    """Copies of obj with one node given a fresh base type, an unknown
    rule, another context or other counters (where it has counters): at
    each position of a small derivation, and at the last pre-order node of
    a church derivation (the benchmark's tamper)."""
    places = list(positions(obj))
    if len(places) > 60:
        places = places[-1:]
    for path, node in places:
        for field, value in TAMPERS:
            if field in node:
                bad = copy(obj)
                at(bad, path)[field] = value
                yield bad


def test_tampered_reads_give_the_plain_readers_verdict_and_path():
    checked = 0
    for system, obj in CORPUS + list(CHURCH80.items()):
        for bad in tampered_copies(obj):
            got = verdict(derivation_from_json, system, bad)
            assert got is not None and got == verdict(ref_derivation_from_json, system, bad)
            checked += 1
    assert checked > 800


def repeated_subtrees(obj):
    """{canonical text: the paths of its positions} for each subtree of obj
    at two or more positions, the largest subtrees first."""
    where = {}
    for path, o in positions(obj):
        where.setdefault(json.dumps(o, sort_keys=True), []).append(path)
    return dict(sorted(((text, paths) for text, paths in where.items() if len(paths) > 1),
                       key=lambda item: -len(item[0])))


@pytest.mark.parametrize("system", "uenv")
def test_a_tamper_in_the_last_copy_of_a_repeated_subtree_is_found_there(system):
    """An unknown rule at the root, or at the last pre-order node, of the
    last position of a repeated subtree: every earlier copy passes, and
    the violation's path names that last position."""
    obj = CHURCH80[system]
    repeated = repeated_subtrees(obj)
    assert repeated
    for paths in list(repeated.values())[:5]:
        last = paths[-1]
        inner = last + list(positions(at(obj, last)))[-1][0]
        for path in (last, inner):
            bad = copy(obj)
            at(bad, path)["rule"] = "zz"
            got = CHECK[system](derivation_from_json(bad))
            assert got == system_u.Violation(path, "unknown rule 'zz'")
            assert got == CHECK[system](ref_derivation_from_json(bad))


@pytest.mark.parametrize("system", "uenv")
@pytest.mark.parametrize("which", [0, 1, -1], ids=["first", "second", "last"])
def test_a_tamper_in_one_copy_of_a_repeated_subtree_gives_the_plain_readers_verdict(system, which):
    """A fresh type, an unknown rule, another context or other counters at
    the root or the last node of the first, second or last copy of each
    of church(20)'s three largest repeated subtrees: the tampered copy no
    longer equals the others, and the verdict and violation path are the
    plain reader's."""
    obj = CHURCH20[system]
    checked = 0
    for paths in list(repeated_subtrees(obj).values())[:3]:
        where = paths[which]
        for path in (where, where + list(positions(at(obj, where)))[-1][0]):
            for field, value in TAMPERS:
                if field in at(obj, path):
                    bad = copy(obj)
                    at(bad, path)[field] = value
                    got = verdict(derivation_from_json, system, bad)
                    assert got is not None and got == verdict(ref_derivation_from_json, system, bad)
                    checked += 1
    assert checked >= 12


# ---------------------------------------------------------------------------
# A copy too deep to compare

def bang_chain(k):
    """The U derivation of !...!y (k bangs) at [...[o0]...]: a chain of k bg
    nodes above an ax leaf."""
    node = {"rule": "ax", "context": {"y": "[o0]"}, "term": "y", "type": "o0", "premises": []}
    for j in range(1, k + 1):
        node = {"rule": "bg", "context": {"y": "[o0]"}, "term": "!" * j + "y",
                "type": "[" * j + "o0" + "]" * j, "premises": [node]}
    return node


def two_bang_chains(k):
    """A bg node whose two premises are `bang_chain(k)` and an equal copy."""
    c = bang_chain(k)
    return {"rule": "bg", "context": {"y": "[o0,o0]"}, "term": "!" + c["term"],
            "type": f"[{c['type']},{c['type']}]", "premises": [c, bang_chain(k)]}


def test_two_copies_of_a_chain_490_premises_deep_check_from_the_command_line():
    """Near the depth `json` reads from the command line, a copy is compared
    or, if the compare goes too deep for the stack, read: either way the
    verdict is the plain read's, ok for the chain and, with the second
    copy's leaf given a fresh type, a violation at its parent."""
    obj, bad = two_bang_chains(490), two_bang_chains(490)
    at(bad, (1,) + (0,) * 490)["type"] = "o999"
    path = ", ".join(["1"] + ["0"] * 489)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)  # for `json.dumps` under pytest's frames
    try:
        texts = [json.dumps(obj), json.dumps(bad)]
    finally:
        sys.setrecursionlimit(limit)
    for text, want in zip(texts, [(0, "ok\n", ""), (1, f"violation at [{path}]: "
                                  "bg conclusion must collect the premise types\n", "")]):
        with bangcalc("typecheck", "--system", "u", stdin=subprocess.PIPE) as proc:
            out, err = proc.communicate(text, timeout=60)
        assert (proc.returncode, out, err) == want


def test_a_copy_too_deep_to_compare_is_read_and_shared(monkeypatch):
    """Two equal chains 20,000 premises deep, built as objects (deeper than
    `json` reads): `==` on them raises RecursionError on every supported
    Python, so the second is read node by node, and each of its nodes is
    the first chain's node at that height.  That compare ends the read's
    compares, so a later copy of a leaf is read too, and shared."""
    k = 20000
    leaf = {"rule": "ax", "context": {"x": "[o1]"}, "term": "x", "type": "o1", "premises": []}

    def chain():
        node = {"rule": "ax", "context": {"x": "[o0]"}, "term": "x", "type": "o0", "premises": []}
        for _ in range(k):
            node = {"rule": "ax", "context": {"x": "[o0]"}, "term": "x", "type": "o0",
                    "premises": [node]}
        return node
    obj = {"rule": "bg", "context": {"x": "[o0,o0,o1,o1]"}, "term": "!x", "type": "[o0,o0,o1,o1]",
           "premises": [chain(), chain(), leaf, dict(leaf)]}
    seen = entered_nodes(monkeypatch)
    d = derivation_from_json(obj)
    assert len(seen) == 1 + 2 * (k + 1) + 2
    assert d.premises[0] is d.premises[1] and d.premises[2] is d.premises[3]
    assert CHECK["u"](d) == system_u.Violation((0,), "ax must type a variable with no premises")


# ---------------------------------------------------------------------------
# The check-once walk

class CountingRule:
    """A rule whose check records each node object it is given."""

    def __init__(self, rule, seen):
        self.rule, self.node, self.seen = rule, rule.node, seen

    def check(self, d):
        self.seen.append(id(d))
        return self.rule.check(d)


@pytest.mark.parametrize("system", "uenv")
def test_each_node_object_is_checked_once(system, monkeypatch):
    seen = []
    for tag, rule in list(system_u.RULES[system].items()):
        monkeypatch.setitem(system_u.RULES[system], tag, CountingRule(rule, seen))
    shared = derivation_from_json(CHURCH80[system])
    assert CHECK[system](shared) is None
    distinct = {id(node) for node in objects(shared)}
    assert sorted(seen) == sorted(distinct) and len(seen) < len(list(objects(shared)))
    seen.clear()
    plain = ref_derivation_from_json(CHURCH80[system])
    assert CHECK[system](plain) is None
    assert len(seen) == len(set(seen)) == len(list(objects(plain)))


def test_k_equal_elements_are_looked_into_once(monkeypatch):
    """The U, N and V checks look for tight constants in each type object
    once; a multiset of k copies of one element object, as a church
    context entry, is looked into through that object alone, with no
    loop over the copies.  Any other multiset has each element object
    looked at, equal copies that are distinct objects too."""
    arrow = "[o0] -> o0"
    one = qtypes.parse_type(arrow)
    copies = [qtypes.parse_type(arrow) for _ in range(5)]
    tight = qtypes.Tight("n")
    cases = [  # (multiset, answer, calls on its elements)
        (qtypes.Mult((one,) * 80), False, 1),
        (qtypes.Mult(tuple(copies)), False, 5),
        (qtypes.Mult((tight,) * 3), True, 1),
        (qtypes.Mult((one, tight, one)), True, 2),
        (qtypes.Mult((one, copies[0], tight)), True, 3),
    ]
    has_tight = qtypes.has_tight_constants
    for m, answer, elements in cases:
        calls = []

        def counted(t, memo):
            calls.append(t)
            return has_tight(t, memo)
        monkeypatch.setattr(qtypes, "has_tight_constants", counted)
        assert has_tight(m, {}) is answer
        monkeypatch.undo()
        assert len([t for t in calls if t in m.elements]) == elements, m
