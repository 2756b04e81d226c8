"""The folds over terms (`syntax.fold` with one table per walker): each
matches its plain recursive oracle in conftest, with and without a memo
shared across terms, rejects the formers it does not take, and walks
towers far deeper than the interpreter's recursion limit, as do the other
walks on `syntax.unwind`, `free_vars`, `canon_key` and `term_eq`.  The
fold recurses down to `syntax._FOLD_DEPTH` levels and goes on with its walk
on `unwind` below them; that walk alone is its reference, every node is
computed once across the two, and the recursion needs no more stack than
its depth."""

import operator
import sys

import pytest

from bangcalc import cbn_cbv, reduction, syntax
from bangcalc.cbn_cbv import NotLambdaTerm, classify_lambda_nf, embed_cbn, embed_cbv, normalize_n
from bangcalc.gen import generate_corpus
from bangcalc.reduction import FuelExhausted, classify_nf, classify_wcf_nf, normalize_dw
from bangcalc.syntax import (
    Abs, App, Bang, Der, Sub, Var, alpha_eq, canon_key, fold, free_vars, is_lambda_term,
    parse_term, print_term, term_eq, w_size,
)

from conftest import (
    church_term, count_folded, ref_cbn_bits, ref_cbv_bits, ref_embed_cbn, ref_embed_cbv,
    ref_free_vars, ref_is_lambda_term, ref_nf_bits, ref_print_term, ref_w_size, ref_wcf_bits,
)

FUEL = 60
X, Z = Var("x"), Var("z")


def trace_terms(t, normalize):
    try:
        trace = normalize(t, FUEL)
    except FuelExhausted as ex:
        trace = ex.trace
    return [trace.start] + [s.result for s in trace.steps]


BANG_TERMS = ([u for t in generate_corpus(0, 12, 150) for u in trace_terms(t, normalize_dw)]
              + trace_terms(embed_cbn(church_term(40)), normalize_dw))
LAMBDA_TERMS = ([u for t in generate_corpus(1, 12, 150, lam=True) for u in trace_terms(t, normalize_n)]
                + trace_terms(church_term(40), normalize_n))


def classes(bits):
    return reduction._CLASSES[bits]


# (the walker, its oracle, whether it takes a memo)
BANG_WALKERS = [
    (w_size, ref_w_size, True),
    (print_term, ref_print_term, True),
    (is_lambda_term, ref_is_lambda_term, False),
    (classify_nf, lambda t: classes(ref_nf_bits(t)), False),
    (classify_wcf_nf, lambda t: classes(ref_wcf_bits(t)), True),
]
# (table, oracle, equality of values) of the lambda-term folds
LAMBDA_FOLDS = [
    (cbn_cbv._CBN_BITS, ref_cbn_bits, tuple.__eq__),
    (cbn_cbv._CBV_BITS, ref_cbv_bits, tuple.__eq__),
    (cbn_cbv._CBN, ref_embed_cbn, term_eq),
    (cbn_cbv._CBV, ref_embed_cbv, term_eq),
]


def test_bang_term_folds_match_the_reference_walkers():
    for walker, ref, takes_memo in BANG_WALKERS:
        memo = {}
        for t in BANG_TERMS + LAMBDA_TERMS:
            assert walker(t) == ref(t), (walker.__name__, t)
            if takes_memo:
                assert walker(t, memo) == ref(t), (walker.__name__, t)


def test_lambda_term_folds_match_the_reference_walkers():
    assert len(LAMBDA_TERMS) > 300
    for table, ref, same in LAMBDA_FOLDS:
        memo = {}
        for t in LAMBDA_TERMS:
            assert same(fold(t, table), ref(t)) and same(fold(t, table, memo), ref(t)), t
    for t in LAMBDA_TERMS:
        cls = classify_lambda_nf(t)
        assert (("ne_n" in cls.cbn, "no_n" in cls.cbn) == ref_cbn_bits(t)
                and tuple(name in cls.cbv for name in ("vr_v", "ne_v", "no_v")) == ref_cbv_bits(t))
        assert term_eq(embed_cbn(t), ref_embed_cbn(t)) and term_eq(embed_cbv(t), ref_embed_cbv(t))


def test_folds_reject_the_formers_they_do_not_take():
    not_a_term = App(Var("x"), 3)
    for walker, _, _ in BANG_WALKERS:
        with pytest.raises(TypeError):
            walker(not_a_term)
    for table, _, _ in LAMBDA_FOLDS:
        for t, text in ((Bang(X), "!x"), (Der(X), "der(x)")):
            with pytest.raises(NotLambdaTerm) as raised:
                fold(t, table)
            assert str(raised.value) == text


# ---------------------------------------------------------------------------
# Depth: towers of each former, built without the parser

DEEP = 10_000


def tower(level, leaf, n):
    t = leaf
    for _ in range(n):
        t = level(t)
    return t


# name: (one level, the leaf, the text each level adds before and after
# the text of the one-level tower; for a lambda tower, the level and leaf
# of its CBN and CBV images)
TOWERS = {
    "abs": (lambda t: Abs("x", t), X, ("\\x. ", ""),
            (lambda t: Abs("x", t), X), (lambda t: Bang(Abs("x", t)), Bang(X))),
    "app_fun": (lambda t: App(t, X), X, ("", " x"),
                (lambda t: App(t, Bang(X)), X), None),
    "app_arg": (lambda t: App(X, t), X, ("x (", ")"),
                (lambda t: App(X, Bang(t)), X), (lambda t: App(X, t), Bang(X))),
    "bang": (Bang, X, ("!", ""), None, None),
    "der": (Der, X, ("der(", ")"), None, None),
    "sub_body": (lambda t: Sub(t, "y", Z), X, ("", "[y \\ z]"),
                 (lambda t: Sub(t, "y", Bang(Z)), X), (lambda t: Sub(t, "y", Bang(Z)), Bang(X))),
    "sub_arg": (lambda t: Sub(X, "y", t), Z, ("x[y \\ ", "]"),
                (lambda t: Sub(X, "y", Bang(t)), Z), (lambda t: Sub(Bang(X), "y", t), Bang(Z))),
}


def _cbv_app_fun(n):
    """The CBV image of the application tower: the innermost head is
    un-banged, every other one derelicted."""
    return tower(lambda t: App(Der(t), Bang(X)), App(X, Bang(X)), n - 1)


@pytest.mark.parametrize("name", list(TOWERS))
def test_folds_walk_towers_deeper_than_the_recursion_limit(name):
    assert sys.getrecursionlimit() < DEEP
    level, leaf, (before, after), cbn, cbv = TOWERS[name]
    t, one, three = (tower(level, leaf, n) for n in (DEEP, 1, 3))
    assert print_term(t) == before * (DEEP - 1) + ref_print_term(one) + after * (DEEP - 1)
    per_level = ref_w_size(tower(level, leaf, 2)) - ref_w_size(one)
    assert w_size(t) == ref_w_size(one) + (DEEP - 1) * per_level
    # each tower's classes are those of its three-level tower
    assert classify_nf(t) is classify_nf(three) and classify_wcf_nf(t) is classify_wcf_nf(three)
    assert is_lambda_term(t) is (cbn is not None)
    if cbn is None:
        for walker in (classify_lambda_nf, embed_cbn, embed_cbv):
            with pytest.raises(NotLambdaTerm):
                walker(t)
        return
    assert classify_lambda_nf(t) == classify_lambda_nf(three)
    assert term_eq(embed_cbn(t), tower(*cbn, DEEP))
    assert term_eq(embed_cbv(t), tower(*cbv, DEEP) if cbv else _cbv_app_fun(DEEP))


# ---------------------------------------------------------------------------
# The fold's two walks: recursion down to the depth budget, a walk on
# `unwind` below it

BUDGET = syntax._FOLD_DEPTH
BUDGET_DEPTHS = (BUDGET - 1, BUDGET, BUDGET + 1, 2 * BUDGET, DEEP)
# every fold table, with the equality of its values
FOLD_TABLES = [
    (syntax._W_SIZE, operator.eq), (syntax._PRINT, operator.eq), (syntax._LAMBDA, operator.eq),
    (reduction._NF_BITS, operator.eq), (reduction._WCF_BITS, operator.eq),
    *((table, same) for table, _, same in LAMBDA_FOLDS),
]


def folded(t, table, memo):
    """(True, t's value under `table`), or (False, the text of its refusal)."""
    try:
        return True, fold(t, table, memo)
    except NotLambdaTerm as refused:
        return False, str(refused)


def assert_walks_agree(monkeypatch, fresh, shared):
    """Every fold table values the terms alike with the default depth budget
    and with none (the walk on `unwind` alone): each term of `fresh` with a
    memo of its own, and the terms of `shared`, in order, with one memo."""
    for table, same in FOLD_TABLES:
        for terms, one_memo in ((fresh, False), (shared, True)):
            got = {}
            for depth in (0, BUDGET):
                monkeypatch.setattr(syntax, "_FOLD_DEPTH", depth)
                memo = {}
                got[depth] = [folded(t, table, memo if one_memo else {}) for t in terms]
            for (ok, want), (ok2, value) in zip(got[0], got[BUDGET], strict=True):
                assert ok is ok2 and (same(value, want) if ok else value == want)


def test_the_recursive_fold_matches_the_explicit_stack_on_the_corpus(monkeypatch):
    terms = BANG_TERMS + LAMBDA_TERMS
    assert_walks_agree(monkeypatch, terms, terms)


@pytest.mark.parametrize("name", list(TOWERS))
def test_the_recursive_fold_matches_the_explicit_stack_about_the_budget(name, monkeypatch):
    level, leaf = TOWERS[name][:2]
    fresh = [tower(level, leaf, n) for n in BUDGET_DEPTHS]
    grown, t, below = [], leaf, 0  # each tower the one before with levels put on top
    for n in BUDGET_DEPTHS:
        t, below = tower(level, t, n - below), n
        grown.append(t)
    assert_walks_agree(monkeypatch, fresh, grown)


def inner_nodes(t, table) -> dict:
    """id -> node of the distinct nodes of t that enter a child under `table`."""
    seen, todo = {}, [t]
    while todo:
        node = todo.pop()
        attrs = table[type(node)][0]
        if attrs and id(node) not in seen:
            seen[id(node)] = node
            todo += (getattr(node, attr) for attr in attrs)
    return seen


@pytest.mark.parametrize("table", [syntax._PRINT, reduction._WCF_BITS], ids=["print", "wcf"])
def test_a_fold_across_the_budget_computes_each_node_once(table, monkeypatch):
    walked = []
    monkeypatch.setattr(syntax, "_fold_walk", lambda t, *rest, _f=syntax._fold_walk:
                        walked.append(t) or _f(t, *rest))
    computed = count_folded(monkeypatch, table)
    for level, leaf, *_ in TOWERS.values():
        deep = tower(level, leaf, 3 * BUDGET)
        t = App(deep, deep)  # the second child is the first's memo hit
        memo = {}
        walked.clear()
        computed.clear()
        value = fold(t, table, memo)
        want = inner_nodes(t, table)
        # the walk took over below the budget (a bang is a leaf of wcf)
        assert bool(walked) is (len(want) > BUDGET)
        inner = [node for node in computed if table[type(node)][0]]
        assert len(inner) == len(want) and {id(node) for node in inner} == set(want) == set(memo)
        computed.clear()
        assert fold(t, table, memo) == value and computed == []
        fold(deep, table, memo)  # a leaf is valued where it is met, held or not
        assert not any(table[type(node)][0] for node in computed)


def stack_depth() -> int:
    """The frames on the interpreter's stack, the caller's included."""
    frame, n = sys._getframe(1), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


# the stack a fold may take: its documented depth budget, 200 levels, and 50
# frames more; a larger budget fails here rather than on a user's deep input
HEADROOM = 200 + 50


@pytest.mark.parametrize("name", list(TOWERS))
def test_folds_need_only_their_depth_budget_of_stack(name):
    level, leaf = TOWERS[name][:2]
    t, three = tower(level, leaf, DEEP), tower(level, leaf, 3)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + HEADROOM)
    try:
        text, cls = print_term(t), classify_wcf_nf(t)
    finally:
        sys.setrecursionlimit(limit)
    assert len(text) > DEEP and cls is classify_wcf_nf(three)


def test_alpha_eq_takes_equal_towers_deeper_than_the_recursion_limit():
    t, u = (tower(lambda b: Abs("x", App(b, X)), X, 5_000) for _ in range(2))
    assert t is not u and alpha_eq(t, u)


@pytest.mark.parametrize("name", list(TOWERS))
def test_free_vars_walk_towers_deeper_than_the_recursion_limit(name):
    level, leaf = TOWERS[name][:2]
    want = ref_free_vars(tower(level, leaf, 3))
    assert free_vars(tower(level, leaf, DEEP)) == want
    # a tower whose lower half already holds its sets
    half = tower(level, leaf, DEEP // 2)
    assert free_vars(half) == want and free_vars(tower(level, half, DEEP // 2)) == want


def test_canon_key_is_flat_and_nameless():
    assert canon_key(parse_term(r"\x. \y. x z")) == ("\\", "\\", "@", "b", 0, "f", "z")
    assert canon_key(parse_term(r"x[x \ y] !der(x)")) == (
        "@", "s", "b", 0, "f", "y", "!", "d", "f", "x")
    assert canon_key(parse_term(r"\x. (\x. x) x")) == ("\\", "@", "\\", "b", 1, "b", 0)


def test_alpha_eq_takes_alpha_equivalent_towers_deeper_than_the_recursion_limit():
    t, u, free = (tower(lambda b, x=x: Abs(x, App(b, Var(x))), Var(leaf), 5_000)
                  for x, leaf in (("x", "x"), ("y", "y"), ("x", "z")))
    assert not term_eq(t, u) and alpha_eq(t, u)
    assert canon_key(t) == canon_key(u) and hash(canon_key(t)) == hash(canon_key(u))
    assert not alpha_eq(t, free)
