"""Equal subtrees are read as one node, and each node object is checked once.

`serialize.derivation_from_json` returns the node it already read for a
node whose rule, texts, context entries, counters and premise objects
are those of an earlier one, so a read derivation is a tree whose equal
subtrees are one shared object.  `system_u.check_derivation` checks each
node object once, and its search for tight constants looks into k
copies of one element object once.  These tests pin how much a church
read shares, hold the verdicts and violation paths to the plain reader
in conftest (`ref_derivation_from_json`, one object per position), and
count the rule checks and the element searches."""

import json

import pytest

from bangcalc import qtypes, system_u
from bangcalc.serialize import MalformedDerivation, derivation_from_json

from conftest import ref_derivation_from_json
from test_reader import CHECK, CORPUS, church_json

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
    for bad in ([True, 0, 0], [1.0, 0, 0], None, [1, 0]):
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
