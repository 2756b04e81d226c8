"""The write path of inference: merging, sorting and printing that handle a
run of one element once, translations that embed each subterm once, and
classification helpers that allocate nothing.  Each fast path is checked
against a plain reference kept here, and its work is counted."""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from bangcalc import cbn_cbv, qtypes, reduction, syntax, system_u
from bangcalc.cbn_cbv import (
    ImageMismatch, _is_value_shaped, check_derivation_n, check_derivation_v, embed_cbn,
    embed_cbv, fire_spine_d, infer_n, infer_v, mk_abs_v, mk_ax_n, mk_ax_v, translate_n_to_u,
    translate_u_to_n, translate_u_to_v, translate_v_to_u,
)
from bangcalc.gen import generate_corpus, rand_bang_term, rand_lambda_term
from bangcalc.qtypes import (
    Arrow, BaseVar, Mult, Tight, ctx_union, mult, parse_type, print_type, sort_key,
)
from bangcalc.reduction import classify_nf, classify_wcf_nf
from bangcalc.serialize import derivation_text
from bangcalc.syntax import (
    Abs, App, Bang, Sub, Var, is_abs_shaped, is_bang_shaped, term_eq,
)
from bangcalc.system_u import (
    RULES, Derivation, IllFormed, check_derivation_u, infer_u, mk_abs, mk_app, mk_ax, mk_bg, mk_dr,
    mk_es,
)

from conftest import (
    bang_terms, church_term, count_calls, count_folded, ref_ctx_union, ref_nf_bits, ref_wcf_bits,
    tampered, without_image,
)

FUEL = 200


# ---------------------------------------------------------------------------
# Types and contexts

def _copy(t):
    """An equal type that shares no object with t."""
    return parse_type(print_type(t))


def types():
    leaf = st.one_of(st.builds(BaseVar, st.integers(0, 2)),
                     st.sampled_from([Tight("a"), Tight("b"), Tight("n")]))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.lists(sub, max_size=3).map(mult),
            st.builds(Arrow, st.lists(sub, max_size=3).map(mult), sub)),
        max_leaves=5)


def multisets():
    """Sorted multisets with runs of one object, runs of equal but distinct
    objects, and single elements."""
    run = st.tuples(types(), st.integers(1, 3), st.booleans()).map(
        lambda r: [r[0] if r[2] else _copy(r[0]) for _ in range(r[1])])
    return st.lists(run, max_size=3).map(lambda runs: mult(e for r in runs for e in r))


def contexts():
    return st.dictionaries(st.sampled_from("xyz"), multisets(), max_size=3)


def sorting_ctx_union(*ctxs):
    names = {}
    for ctx in ctxs:
        for x, m in ctx.items():
            names.setdefault(x, []).extend(m.elements)
    return {x: Mult(tuple(sorted(es, key=sort_key))) for x, es in names.items() if es}


@given(st.lists(contexts(), max_size=4))
def test_ctx_union_matches_the_reference(ctxs):
    out = ctx_union(*ctxs)
    assert out == sorting_ctx_union(*ctxs)
    assert all(m.elements and list(m.elements) == sorted(m.elements, key=sort_key)
               for m in out.values())


@given(st.lists(contexts(), min_size=2, max_size=2) | st.lists(contexts(), max_size=4))
def test_ctx_union_returns_the_objects_of_its_general_form(ctxs):
    # the same names in the same order, bound to the same multiset objects
    # where a name has one, and to the same element objects where it has
    # several: a run stays one object
    out, ref = ctx_union(*ctxs), ref_ctx_union(*ctxs)
    assert out == ref and list(out) == list(ref)
    if any(ref is ctx for ctx in ctxs) and ref:
        assert out is ref
    for x, m in ref.items():
        assert out[x] is m or all(a is b for a, b in zip(out[x].elements, m.elements))
        assert (out[x] is m) == any(ctx.get(x) is m for ctx in ctxs)


@given(contexts(), st.integers(0, 3))
def test_ctx_union_returns_a_lone_context_as_it_is(ctx, empties):
    out = ctx_union(*[{}] * empties, ctx, *[{}] * empties)
    assert out == sorting_ctx_union(ctx)
    if all(m.elements for m in ctx.values()):
        assert out is ctx or not ctx


def test_ctx_union_drops_empty_entries():
    a = parse_type("[o0]")
    assert ctx_union() == {} and ctx_union({}, {}) == {}
    assert ctx_union({"x": mult([]), "y": a}) == {"y": a}
    assert ctx_union({"x": mult([])}, {}) == {}
    assert ctx_union({"x": mult([])}, {"x": a}) == {"x": a}


@given(st.lists(multisets().filter(len), min_size=2, max_size=4))
def test_merge_matches_sorting(ms):
    out = qtypes._merge(ms)
    assert out == mult(sorted((e for m in ms for e in m.elements), key=sort_key))


def test_merge_keeps_a_run_of_equal_elements_as_one_object():
    arrow = parse_type("[o0] -> o0")
    out = qtypes._merge([Mult((arrow, arrow)), Mult((_copy(arrow),)), Mult((_copy(arrow),))])
    assert out == Mult((arrow,) * 4) and all(e is arrow for e in out.elements)


def ref_print_type(t):
    match t:
        case BaseVar(i):
            return f"o{i}"
        case Tight(c):
            return c
        case Mult(elems):
            return "[" + ",".join(ref_print_type(e) for e in elems) + "]"
        case Arrow(dom, cod):
            return f"{ref_print_type(dom)} -> {ref_print_type(cod)}"
    raise TypeError(t)


@given(st.lists(multisets(), max_size=3), st.booleans())
def test_run_print_matches_the_elementwise_join(ms, shared):
    memo = {} if shared else None
    for m in ms:
        # unsorted and interleaved element objects too, built directly
        for t in (m, Mult(m.elements[::-1]), Mult(m.elements + m.elements),
                  Arrow(m, m)):
            assert print_type(t, memo) == ref_print_type(t)


def test_bg_keys_no_premise_equal_to_its_neighbour(monkeypatch):
    a, b = mk_ax("x", parse_type("[o0] -> o0")), mk_ax("x", parse_type("o1"))
    a2 = mk_ax("x", _copy(a.type))
    calls = count_calls(monkeypatch, qtypes, "sort_key", keep=True)
    in_order = mk_bg(Var("x"), (b, a, a2))
    assert calls and not any(c is a2.type for c in calls)
    assert in_order.premises == (b, a, a2)
    assert in_order.type == parse_type("[o1,[o0] -> o0,[o0] -> o0]")
    assert mk_bg(Var("x"), (a, b, a2)).premises == (b, a, a2)


# ---------------------------------------------------------------------------
# Terms: shapes, classes and equality

SHAPE_CORPUS = [rand_bang_term(random.Random(seed), size)
                for seed in range(40) for size in range(1, 16)]


def test_shape_helpers_match_the_list_decomposition():
    for t in SHAPE_CORPUS:
        core = t
        while isinstance(core, Sub):
            core = core.body
        assert is_abs_shaped(t) is isinstance(core, Abs)
        assert is_bang_shaped(t) is isinstance(core, Bang)


def test_classes_are_the_eight_prebuilt_values():
    prebuilt = list(reduction._CLASSES.values())
    assert len({id(c) for c in prebuilt}) == len(set(prebuilt)) == 8
    for t in SHAPE_CORPUS:
        for classify, bits in ((classify_nf, ref_nf_bits), (classify_wcf_nf, ref_wcf_bits)):
            cls = classify(t)
            assert cls == reduction._bits_to_class(*bits(t))
            assert any(cls is c for c in prebuilt)


@given(bang_terms(), bang_terms())
def test_term_eq_matches_dataclass_equality(t, u):
    assert term_eq(t, u) is (t == u)
    assert term_eq(t, syntax.parse_term(syntax.print_term(t)))


def test_term_eq_walks_terms_too_deep_for_recursion():
    t, u = church_term(5000), church_term(5000)
    assert term_eq(t, u) and not term_eq(t, church_term(4999))


def test_value_shape_is_the_bang_shape_of_the_value_image():
    rng = random.Random(5)
    for _ in range(600):
        f = rand_lambda_term(rng, rng.randint(1, 12))
        assert _is_value_shaped(f) is is_bang_shaped(embed_cbv(f))


# ---------------------------------------------------------------------------
# Translations, against the reference that embeds at every node

def _unbang(d):
    assert d.rule == "bg" and len(d.premises) == 1
    return d.premises[0]


def ref_translate_n_to_u(d):
    match d.rule:
        case "ax_n":
            return mk_ax(d.subject.name, d.type)
        case "abs_n":
            return mk_abs(d.subject.binder, ref_translate_n_to_u(d.premises[0]))
        case "app_n" | "es_n":
            head = ref_translate_n_to_u(d.premises[0])
            arg = mk_bg(embed_cbn(d.subject.arg),
                        tuple(ref_translate_n_to_u(p) for p in d.premises[1:]))
            if d.rule == "app_n":
                return mk_app(head, arg)
            return mk_es(d.subject.binder, head, arg)
    raise AssertionError(d.rule)


def ref_translate_v_to_u(d):
    match d.rule:
        case "ax_v":
            x = d.subject.name
            return mk_bg(Var(x), tuple(mk_ax(x, ty) for ty in d.type.elements))
        case "abs_v":
            x = d.subject.binder
            premises = tuple(mk_abs(x, ref_translate_v_to_u(p)) for p in d.premises)
            return mk_bg(embed_cbv(d.subject).body, premises)
        case "app_v":
            d_f = ref_translate_v_to_u(d.premises[0])
            d_a = ref_translate_v_to_u(d.premises[1])
            if is_bang_shaped(embed_cbv(d.subject.fun)):
                return mk_app(fire_spine_d(d_f, frozenset(), _unbang), d_a)
            return mk_app(mk_dr(d_f), d_a)
        case "es_v":
            return mk_es(d.subject.binder, ref_translate_v_to_u(d.premises[0]),
                         ref_translate_v_to_u(d.premises[1]))
    raise AssertionError(d.rule)


TRANSLATION_CORPUS = generate_corpus(3, 12, 200, lam=True) + [church_term(5)]


def test_translations_match_the_reference():
    done = {"n": 0, "v": 0}
    for t in TRANSLATION_CORPUS:
        for system, infer, to_u, ref, back in (
                ("n", infer_n, translate_n_to_u, ref_translate_n_to_u, translate_u_to_n),
                ("v", infer_v, translate_v_to_u, ref_translate_v_to_u, translate_u_to_v)):
            d = infer(t, FUEL)
            if not isinstance(d, Derivation):
                continue
            image = to_u(d)  # the one the inference kept
            walked = to_u(without_image(d))
            assert walked == image == ref(d)
            assert derivation_text(walked) == derivation_text(image)
            assert check_derivation_u(image) is None
            assert back(image, t) == d
            done[system] += 1
    assert done["n"] > 100 and done["v"] > 100


@pytest.mark.parametrize("embed, back, to_u, check", [
    (embed_cbn, translate_u_to_n, translate_n_to_u, check_derivation_n),
    (embed_cbv, translate_u_to_v, translate_v_to_u, check_derivation_v),
], ids=["n", "v"])
def test_a_back_translation_keeps_no_image(embed, back, to_u, check):
    # the walk back reads only rules, leaf types and binders, so it reads a
    # checked N or V derivation from a U one with a wrong context; no U
    # derivation is kept, and the translation to U walks
    t = syntax.parse_term(r"(\x. x) y")
    du = infer_u(embed(t), FUEL)
    wrong = dataclasses.replace(du.premises[0], context={"q": mult([BaseVar(7)])})
    bad = dataclasses.replace(du, premises=(wrong, *du.premises[1:]))
    assert check_derivation_u(bad) is not None
    d = back(bad, t)
    assert check(d) is None and to_u(d) == du
    d = back(du, t)
    assert not hasattr(d, "_image") and to_u(d) == du


def test_translations_still_check_premise_subjects():
    good = mk_abs_v("x", Var("x"), (mk_ax_v("x", mult([BaseVar(0)])),))
    assert check_derivation_v(good) is None and translate_v_to_u(good)
    # the body image is embedded from the subject, not taken from a premise:
    # its abstraction is remade along that image, whose body is not the premise's
    bad = Derivation("abs_v", good.context, Abs("x", Var("y")), good.type, good.premises)
    with pytest.raises(IllFormed, match="abs premise subject must be the body"):
        translate_v_to_u(bad)
    app = infer_n(syntax.parse_term(r"(\x. x) y"), FUEL)
    bad = Derivation("app_n", app.context, App(Var("f"), Var("z")), app.type, app.premises)
    with pytest.raises(IllFormed, match="bg premise subjects"):
        translate_n_to_u(bad)


def test_a_deep_translation_to_n():
    # The subject check compared the image with the recursive dataclass
    # equality, which overflowed at church(320) although infer_u succeeds.
    d = infer_n(church_term(320), 100_000)
    assert isinstance(d, Derivation) and check_derivation_n(d) is None


def _from_depth(frames: int, call):
    """call(), made with `frames` more frames on the stack."""
    return call() if frames == 0 else _from_depth(frames - 1, call)


@pytest.mark.parametrize("infer, check", [
    (lambda: infer_v(church_term(320), 100_000), check_derivation_v),
    (lambda: infer_u(embed_cbv(church_term(320)), 100_000), check_derivation_u),
], ids=["infer_v", "infer_u-cbv"])
def test_a_deep_cbv_inference_from_a_deep_stack(infer, check):
    # Expansion compared each rebuilt subject with the stated term by the
    # recursive dataclass equality, which overflowed on church(320) when
    # entered about 50 frames deep.
    d = _from_depth(60, infer)
    assert isinstance(d, Derivation) and check(d) is None


@pytest.mark.parametrize("embed, back, n", [
    (embed_cbn, translate_u_to_n, 5), (embed_cbn, translate_u_to_n, 320),
    (embed_cbv, translate_u_to_v, 5), (embed_cbv, translate_u_to_v, 80)])
def test_a_mismatched_subject_raises_image_mismatch(embed, back, n):
    t = church_term(n)
    d = infer_u(embed(t), 100_000)
    assert isinstance(back(d, t), Derivation)
    for other in (church_term(n - 1), church_term(n + 1)):
        with pytest.raises(ImageMismatch):
            back(d, other)


# ---------------------------------------------------------------------------
# The image table: every entry walked both ways, and malformed input refused

def test_every_rule_has_an_image_walked_both_ways(monkeypatch):
    walked = {"to": Counter(), "from": Counter()}
    to_u, from_u = cbn_cbv._to_u, cbn_cbv._from_u

    def counted_to_u(d, system, images):
        walked["to"][d.rule] += 1
        return to_u(d, system, images)

    def counted_from_u(d, t, system):
        walked["from"][cbn_cbv._RULE_OF[system][type(t)].tag] += 1
        return from_u(d, t, system)
    monkeypatch.setattr(cbn_cbv, "_to_u", counted_to_u)
    monkeypatch.setattr(cbn_cbv, "_from_u", counted_from_u)
    for t in TRANSLATION_CORPUS:
        for infer, to_u_of, back in ((infer_n, translate_n_to_u, translate_u_to_n),
                                     (infer_v, translate_v_to_u, translate_u_to_v)):
            d = infer(t, FUEL)
            if isinstance(d, Derivation):
                assert back(to_u_of(without_image(d)), t) == d
    rules = [rule for system in "nv" for rule in RULES[system].values()]
    assert {rule.image for rule in rules} == {"same", "bang_rest", "bang_each", "head"}
    tags = {rule.tag for rule in rules}
    assert set(walked["to"]) == set(walked["from"]) == tags and len(tags) == 8


# Each derivation that differs from an inferred one at one node: its rule
# tag swapped for each other tag of U, N and V, its last premise dropped,
# or its last premise repeated
TAMPER_CORPUS = generate_corpus(3, 10, 150, lam=True) + [church_term(3)]
TAGS = sorted({tag for system in "unv" for tag in RULES[system]})


def test_a_tampered_derivation_is_refused_or_translates_to_a_checked_one():
    # The walkers before the image table crashed on 4,443 of these cases
    # (AssertionError, IndexError, AttributeError, TypeError) and translated
    # 336 tampered N and V derivations to U.
    outcomes = Counter()
    for t in TAMPER_CORPUS:
        for infer, to_u, back, check in (
                (infer_n, translate_n_to_u, translate_u_to_n, check_derivation_n),
                (infer_v, translate_v_to_u, translate_u_to_v, check_derivation_v)):
            d = infer(t, FUEL)
            if not isinstance(d, Derivation):
                continue
            for _, bad in tampered(without_image(d), TAGS):
                with pytest.raises(IllFormed):
                    to_u(bad)
                outcomes["forward refused"] += 1
            # every node of an image has the rule its pattern names, so a
            # swapped tag never reads back; nor does a premise dropped or
            # repeated under a bang, whose type then no longer collects the
            # types of its premises
            for swapped, bad in tampered(to_u(d), TAGS):
                try:
                    read = back(bad, t)
                except (ImageMismatch, IllFormed) as ex:
                    assert not swapped or type(ex) is ImageMismatch, (syntax.print_term(t), ex)
                    outcomes[type(ex).__name__] += 1
                else:
                    assert not swapped and check(read) is None, syntax.print_term(t)
                    outcomes["returned"] += 1
    assert outcomes["forward refused"] > 10_000 and outcomes["ImageMismatch"] > 10_000, outcomes
    assert outcomes["returned"] == 0, outcomes


def test_the_forward_walk_refuses_a_node_its_rule_does_not_fit():
    ax = mk_ax_n("x", BaseVar(0))
    twice = Derivation("abs_n", {}, Abs("x", Var("x")), Arrow(mult([BaseVar(0)]), BaseVar(0)),
                       (ax, ax))
    with pytest.raises(IllFormed, match="abs_n must type an abstraction from one premise"):
        translate_n_to_u(twice)
    not_a_multiset = Derivation("ax_v", {"x": mult([BaseVar(0)])}, Var("x"), BaseVar(0))
    with pytest.raises(IllFormed, match="ax_v must conclude a multiset type"):
        translate_v_to_u(not_a_multiset)
    # a value-shaped head typed by another multiset than a singleton arrow
    d = infer_v(syntax.parse_term(r"(\x. x) y"), FUEL)
    head = mk_abs_v("x", Var("x"), ())
    bad = Derivation("app_v", d.context, d.subject, d.type, (head, d.premises[1]))
    with pytest.raises(IllFormed, match="app_v function premise must be a singleton arrow"):
        translate_v_to_u(bad)


# ---------------------------------------------------------------------------
# Work counts; each fails at the parent of this change

def test_inference_keys_few_types(monkeypatch):
    # 2,316 sort_key calls (recursive ones included) before runs were merged
    # and premises sorted without keys; the equal [o0] -> o0 arrows of the
    # s! anti-substitution made almost all of them.
    t = embed_cbn(church_term(80))
    calls = count_calls(monkeypatch, qtypes, "sort_key")
    infer_u(t, 10_000)
    assert len(calls) <= 231


def _nodes(t):
    stack, n = [t], 0
    while stack:
        t = stack.pop()
        n += 1
        stack.extend(x for x in (getattr(t, f.name) for f in dataclasses.fields(t))
                     if not isinstance(x, str))
    return n


@pytest.mark.parametrize("n", [20, 40, 80])
def test_each_translation_embeds_each_subterm_once(monkeypatch, n):
    # Three embeddings of church(n): the inference's, the subject check's
    # and the translation's.  Embedding each bg node's term afresh made
    # 398/758/1,478 _cbv calls (CBV) and 499/1,779/6,739 _cbn calls (CBN).
    t = church_term(n)
    for system, table, infer, to_u in (("v", cbn_cbv._CBV, infer_v, translate_v_to_u),
                                       ("n", cbn_cbv._CBN, infer_n, translate_n_to_u)):
        computed = count_folded(monkeypatch, table)
        to_u(without_image(infer(t, 10_000)))  # walked, not the image the inference kept
        assert len(computed) <= 4 * _nodes(t), system


def _f_spine(n, leaf):
    """f (f (... (f leaf))), n applications deep."""
    t = leaf
    for _ in range(n):
        t = App(Var("f"), t)
    return t


def test_subst_meta_walks_only_the_path_to_the_variable(monkeypatch):
    # one walk per application and one for x; walking every `f` as well
    # made 101
    spine = _f_spine(50, Var("x"))
    walks = count_calls(monkeypatch, syntax, "_subst_meta")
    assert syntax.subst_meta(spine, "x", Var("z")) == _f_spine(50, Var("z"))
    assert len(walks) == 51


def test_antisubst_walks_only_the_path_to_the_variable(monkeypatch):
    # one walk per node from the root to the axiom for x; walking every
    # `f` axiom as well made 101
    d = system_u.type_normal_form_u(_f_spine(50, Var("z")))
    walks = count_calls(monkeypatch, system_u, "_antisubst")
    d_t, d_us = system_u.antisubst_derivation(d, _f_spine(50, Var("x")), "x", Var("z"))
    assert d_t.subject == _f_spine(50, Var("x")) and [d_u.subject for d_u in d_us] == [Var("z")]
    assert check_derivation_u(d_t) is None
    assert len(walks) == 51
