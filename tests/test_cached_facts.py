"""Facts computed once per node and kept on it (free variables, U-size)
and printing with a per-call memo, checked against the plain recursive
walkers in conftest on a seeded corpus and on the church(40) dw trace."""

import dataclasses

import pytest

import bangcalc
from bangcalc import acceptance, cbn_cbv, cli, qtypes, reduction, serialize, syntax, system_e, system_u
from bangcalc.cbn_cbv import (
    embed_cbn, infer_n, infer_v, translate_n_to_u, translate_u_to_n, translate_u_to_v,
    translate_v_to_u,
)
from bangcalc.gen import generate_corpus
from bangcalc.qtypes import print_type
from bangcalc.reduction import FuelExhausted, normalize_dw
from bangcalc.serialize import (
    derivation_from_json, derivation_text, derivation_to_json, trace_records,
)
from bangcalc.syntax import (
    Abs, App, Bang, Der, Sub, Var, free_vars, parse_term, print_term, term_eq,
)
from bangcalc.system_e import infer_tight
from bangcalc.system_u import Derivation, check_derivation_u, infer_u, size_u

from conftest import (
    church_term, count_folded, ref_free_vars, ref_print_term, ref_size_n, ref_size_u, ref_size_v,
    without_image,
)

FUEL = 60


def subterms(t):
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        match t:
            case App(f, a) | Sub(f, _, a):
                stack += [f, a]
            case Abs(_, b) | Bang(b) | Der(b):
                stack.append(b)


def nodes(d):
    stack = [d]
    while stack:
        d = stack.pop()
        yield d
        stack.extend(d.premises)


def trace_of(t):
    try:
        return normalize_dw(t, FUEL)
    except FuelExhausted as ex:
        return ex.trace


def trace_terms(trace):
    return [trace.start] + [s.result for s in trace.steps]


def derivations(t):
    """Every derivation bangcalc infers for t within FUEL."""
    found = [infer_u(t, FUEL), infer_tight(t, FUEL)]
    if syntax.is_lambda_term(t):
        found += [infer_n(t, FUEL), infer_v(t, FUEL)]
    return [d for d in found if hasattr(d, "premises")]


CHURCH40 = embed_cbn(church_term(40))
CORPUS = generate_corpus(0, 12, 150) + generate_corpus(1, 12, 150, lam=True)
TERMS = [u for t in CORPUS for u in trace_terms(trace_of(t))] + trace_terms(normalize_dw(CHURCH40, FUEL * 10))


def test_free_vars_match_the_reference_walker():
    for t in TERMS:
        assert free_vars(t) == ref_free_vars(t)  # computed on first call
        for s in subterms(t):
            assert free_vars(s) == ref_free_vars(s)  # read from the node


def test_free_vars_share_a_child_set_when_equal():
    f = parse_term("f x")
    assert free_vars(Bang(f)) is free_vars(f)
    assert free_vars(App(f, Var("x"))) is free_vars(f)
    assert free_vars(Abs("y", f)) is free_vars(f)
    assert free_vars(Sub(f, "y", Var("f"))) is free_vars(f)


def test_size_u_matches_the_reference_walker():
    ds = [d for t in CORPUS for d in derivations(t) if isinstance(d, Derivation)]
    ds.append(infer_u(CHURCH40, FUEL * 10))
    assert len(ds) > 100
    for d in ds:
        for node in nodes(d):
            if type(node) is Derivation:
                assert size_u(node) == ref_size_u(node)


def test_makers_size_each_node_as_they_build_it():
    # Each node an inference builds holds its size in its own system from
    # its maker, before any size function is asked, and it is the
    # reference walk's.  E nodes have counters and are not sized.
    refs = {"u": ref_size_u, "n": ref_size_n, "v": ref_size_v}
    system = {tag: s for s in refs for tag in system_u.RULES[s]}
    seen = set()
    for t in CORPUS + [CHURCH40]:
        for d in derivations(t):
            for node in nodes(d):
                if type(node) is Derivation:
                    s = system[node.rule]
                    assert getattr(node, "_size_" + s) == refs[s](node)
                    seen.add(s)
                else:
                    assert not any(hasattr(node, k) for k in system_u.Sized.__slots__)
    assert seen == set(refs)


def test_u_replay_sizes_no_node_by_a_walk(monkeypatch):
    # The makers size every node they build, so the size checks of each
    # replayed step read two stored sizes and walk no node.
    walked = []
    walk = system_u._walk_size

    def counted(d, system):
        walked.append(d)
        return walk(d, system)
    monkeypatch.setattr(system_u, "_walk_size", counted)
    t = embed_cbn(church_term(80))
    trace = normalize_dw(t, 10_000)
    d = system_u.replay_expansion_u(system_u.type_normal_form_u(trace.final), trace)
    assert d.subject == t and size_u(d) == ref_size_u(d) and not walked


NESTED = 400
NESTED_ABS = parse_term("".join(f"\\x{i}. " for i in range(NESTED)) + "z")


@pytest.mark.parametrize("nf_typing", [system_u.type_normal_form_u,
                                       system_e.type_normal_form_tight])
def test_normal_form_typing_classifies_and_sizes_each_subterm_once(monkeypatch, nf_typing):
    # Typing \x0. ... \xn-1. z asks for the class of each of the n nested
    # bodies, and E checks each body's counters against its w_size:
    # folding each body anew would compute about n*n/2 nodes of either
    # table; once per subterm computes a few per level.
    n = NESTED
    classified = count_folded(monkeypatch, reduction._WCF_BITS)
    sized = count_folded(monkeypatch, syntax._W_SIZE)
    d = nf_typing(NESTED_ABS)
    assert term_eq(d.subject, NESTED_ABS)
    assert len(classified) <= 4 * n and len(sized) <= 3 * n, (len(classified), len(sized))


@pytest.mark.parametrize("infer, nf_typing", [
    (infer_u, system_u.type_normal_form_u), (infer_tight, system_e.type_normal_form_tight)])
def test_inference_classifies_its_normal_form_only_in_the_typing(monkeypatch, infer, nf_typing):
    # Inference leaves the classification of the normal form to its typing,
    # which classifies each subterm once, and makes no fold of its own.
    classified = count_folded(monkeypatch, reduction._WCF_BITS)
    nf_typing(NESTED_ABS)
    typing = len(classified)
    assert term_eq(infer(NESTED_ABS, FUEL).subject, NESTED_ABS)
    assert len(classified) == 2 * typing, (typing, len(classified))


def test_memo_printing_matches_plain_printing():
    memo, type_memo = {}, {}
    for t in TERMS:
        assert print_term(t, memo) == print_term(t) == ref_print_term(t)
    for t in CORPUS[:60] + [CHURCH40]:
        for d in derivations(t):
            for node in nodes(d):
                assert print_type(node.type, type_memo) == print_type(node.type)


def plain_printing(monkeypatch):
    """Point serialize at printers that ignore the memo."""
    monkeypatch.setattr(serialize, "print_term", lambda t, memo=None: ref_print_term(t))
    monkeypatch.setattr(serialize, "print_type", lambda t, memo=None: qtypes.print_type(t))


def test_serialized_output_matches_plain_printing(monkeypatch):
    traces = [trace_of(t) for t in CORPUS] + [normalize_dw(CHURCH40, FUEL * 10)]
    ds = [d for t in CORPUS[:60] + [CHURCH40] for d in derivations(t)]
    memoised = ([trace_records(tr) for tr in traces], [derivation_to_json(d) for d in ds],
                [derivation_text(d) for d in ds])
    plain_printing(monkeypatch)
    assert memoised == ([trace_records(tr) for tr in traces], [derivation_to_json(d) for d in ds],
                        [derivation_text(d) for d in ds])


def test_cached_facts_leave_equality_hash_and_repr_alone():
    t = CHURCH40
    fresh = parse_term(print_term(t))
    free_vars(t)
    assert hasattr(t, "_fv") and not hasattr(fresh, "_fv")
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    assert [f.name for f in dataclasses.fields(Sub)] == ["body", "binder", "arg"]
    assert Sub.__match_args__ == ("body", "binder", "arg")

    d = infer_u(t, FUEL * 10)
    size_u(d)
    assert hasattr(d, "_size_u")
    back = derivation_from_json(derivation_to_json(d))
    assert not hasattr(back, "_size_u")
    assert back == d and repr(back) == repr(d)
    assert hash(back.subject) == hash(d.subject)
    assert derivation_to_json(back) == derivation_to_json(d)
    assert check_derivation_u(back) is None and size_u(back) == size_u(d)


@pytest.mark.parametrize("n", [5, 20, 80])
def test_the_kept_image_leaves_equality_repr_and_json_alone(n):
    t = church_term(n)
    for infer, to_u, back in ((infer_n, translate_n_to_u, translate_u_to_n),
                              (infer_v, translate_v_to_u, translate_u_to_v)):
        d = infer(t, FUEL * 10)
        image = to_u(d)
        assert d._image is image
        copy = without_image(d)
        assert not hasattr(copy, "_image")
        assert copy == d and repr(copy) == repr(d)
        assert derivation_to_json(copy) == derivation_to_json(d)
        assert derivation_text(copy) == derivation_text(d)
        # a copy is walked, to the derivation the inference kept
        assert derivation_text(to_u(copy)) == derivation_text(image)
        read = derivation_from_json(derivation_to_json(d))
        assert not hasattr(read, "_image") and read == d
        assert derivation_text(to_u(read)) == derivation_text(image)
        # a back-translation keeps no image: the translation to U walks it
        assert to_u(back(image, t)) == image


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of syntax.free_vars and system_u.size_u, recursive ones
    included, wherever bangcalc's modules have imported them."""
    counts = {"free_vars": 0, "size_u": 0}
    modules = (bangcalc, acceptance, cbn_cbv, cli, qtypes, reduction, serialize,
               syntax, system_e, system_u)
    for owner, name in ((syntax, "free_vars"), (system_u, "size_u")):
        orig = getattr(owner, name)

        def counted(*args, _orig=orig, _name=name):
            counts[_name] += 1
            return _orig(*args)
        for mod in modules:
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    return counts


def test_replay_work_is_linear_in_steps_and_nodes(call_counts):
    # Recomputing either fact over whole terms or derivations at every
    # replayed step makes about 290 free_vars and 96 size_u calls per
    # (step + node) here; once per node makes fewer than 6 and 3.
    t = embed_cbn(church_term(80))
    d = infer_u(t, 10_000)
    calls = dict(call_counts)
    work = len(normalize_dw(t, 10_000).steps) + sum(1 for _ in nodes(d))
    assert calls["free_vars"] <= 10 * work
    assert calls["size_u"] <= 10 * work


@pytest.mark.parametrize("n", [80, 160])
def test_cbv_replay_compares_each_pair_of_subterms_once(monkeypatch, n):
    # Replay remakes each node it changes along the step's trace term, which
    # shares the rest with the next one, so every subject check, of a
    # premise against its node's part or of a step's result against its
    # term, finds one object.  When nodes built their subjects from their
    # premises, the subjects of the CBV image shared no objects with the
    # trace's terms, and comparing them walked about 80,000 node pairs at
    # n = 160, or about 12n with a memo of the pairs proved equal.
    walked = []
    term_eq = system_u.term_eq

    def counted(t, u):
        stack = [(t, u)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                walked.append(a)
                stack += zip(_children(a), _children(b))
        return term_eq(t, u)
    monkeypatch.setattr(system_u, "term_eq", counted)
    monkeypatch.setattr(cbn_cbv, "term_eq", counted)
    for infer, check in ((infer_n, cbn_cbv.check_derivation_n),
                         (infer_v, cbn_cbv.check_derivation_v)):
        d = infer(church_term(n), 10_000)
        assert d.subject == church_term(n) and check(d) is None
        assert walked == [], (infer.__name__, len(walked))


def _children(t):
    return [getattr(t, f.name) for f in dataclasses.fields(t) if f.name not in ("name", "binder")]
