"""End-to-end acceptance suite.

Each criterion is a function returning (passed, detail).  `run_all`
prints one line per criterion and reports overall success; the pytest
suite asserts each criterion individually.  All checks are exact; the
random sweeps are reproducible from the seed.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Iterable

from .syntax import Term, alpha_eq, canon_key, parse_term, print_term, w_size
from .reduction import (
    FuelExhausted, RuleKind, StateGraph, StateLimitExceeded, Trace,
    classify_nf, classify_wcf_nf, normalize_dw, reachable_graph, redexes,
    step_at, trace_profile,
)
from .qtypes import BaseVar, Arrow, mult
from .system_u import (
    Derivation, IllFormed, Untypable, check_derivation_u, infer_u, mk_abs, mk_app,
    mk_ax, mk_bg, mk_dr, reduce_derivation_u, size_u,
)
from .system_e import (
    DerivationE, check_derivation_e, infer_tight, is_tight, reduce_derivation_e,
    tight_spreading_check, type_normal_form_tight,
)
from .cbn_cbv import (
    check_derivation_n, check_derivation_v, classify_lambda_nf,
    embed_cbn, embed_cbv, infer_n, infer_v, n_size, normalize_n, normalize_v,
    size_n, size_v, step_n, step_v, translate_n_to_u, translate_u_to_n,
    translate_u_to_v, translate_v_to_u, v_size,
)
from .gen import rand_bang_term, rand_lambda_term

T0_TEXT = r"der(!(\x.\y.x)) !(\z.z) !((\x.x x) (\x.x x))"
R_TEXT = r"der((\y.\x.z) (der(y) y))"

CriterionResult = tuple[bool, str]


def criterion_1_golden_trace(seed: int = 0) -> CriterionResult:
    t0 = parse_term(T0_TEXT)
    trace = normalize_dw(t0, 100)
    kinds = [s.rule.value for s in trace.steps]
    ok = (len(trace.steps) == 5
          and kinds == ["d!", "dB", "dB", "s!", "s!"]
          and (trace.b, trace.e) == (2, 3)
          and alpha_eq(trace.final, parse_term(r"\z.z"))
          and w_size(trace.final) == 1)
    return ok, f"kinds={kinds} (b,e)=({trace.b},{trace.e}) nf={print_term(trace.final)}"


def criterion_2_tight_counters(seed: int = 0) -> CriterionResult:
    d = infer_tight(parse_term(T0_TEXT), 100)
    if not isinstance(d, DerivationE):
        return False, f"no derivation: {d}"
    ok = d.counters == (2, 3, 1) and is_tight(d) and check_derivation_e(d) is None
    return ok, f"counters={d.counters} tight={is_tight(d)}"


def criterion_3_plain_size(seed: int = 0) -> CriterionResult:
    tau = BaseVar(0)
    ax_k = mk_ax("x", Arrow(mult([tau]), tau))
    lam_k = mk_abs("x", mk_abs("y", ax_k))
    dr_k = mk_dr(mk_bg(lam_k.subject, (lam_k,)))
    lam_i = mk_abs("z", mk_ax("z", tau))
    app1 = mk_app(dr_k, mk_bg(lam_i.subject, (lam_i,)))
    omega = parse_term(r"(\x.x x) (\x.x x)")
    phi0 = mk_app(app1, mk_bg(omega, ()))
    if phi0.subject != parse_term(T0_TEXT):
        return False, "transcription does not rebuild the example term"
    sz, check = size_u(phi0), check_derivation_u(phi0)
    ok = check is None and sz == 8 and sz >= 2 + 3 + 1
    return ok, f"size={sz} check={check}"


def _normalizing_bang_corpus(seed: int, want: int) -> list[tuple[Term, Trace]]:
    """Terms of at most 8 nodes with a wcf normal form, paired with their dw trace."""
    rng = random.Random(seed)
    out = []
    while len(out) < want:
        t = rand_bang_term(rng, rng.randint(2, 8))
        try:
            trace = normalize_dw(t, 500)
        except FuelExhausted:
            continue
        if classify_wcf_nf(trace.final).memberships:
            out.append((t, trace))
    return out


@lru_cache(maxsize=1)
def _tight_corpus(seed: int) -> tuple[tuple[Term, Trace, object], ...]:
    """Criterion 4's corpus with each term's tight inference.  Its first 300
    terms are criterion 11's, which reads their derivations."""
    return tuple((t, trace, infer_tight(t, 500))
                 for t, trace in _normalizing_bang_corpus(seed, 500))


def _lambda_corpus(seed: int, count: int) -> list[Term]:
    rng = random.Random(seed + 3)
    return [rand_lambda_term(rng, rng.randint(2, 8)) for _ in range(count)]


# per calculus: inference, checker, the translations to U and back, the
# normalizer, the derivation size and the term size
_CALCULI = {
    "N": (infer_n, check_derivation_n, translate_n_to_u, translate_u_to_n,
          normalize_n, size_n, n_size),
    "V": (infer_v, check_derivation_v, translate_v_to_u, translate_u_to_v,
          normalize_v, size_v, v_size),
}


def _typed_lambdas(seed: int) -> list[tuple[Term, Derivation, str]]:
    """Each term of a lambda corpus with its derivation in each calculus that types it."""
    return [(t, d, name) for t in _lambda_corpus(seed, 300) for name, calc in _CALCULI.items()
            if isinstance(d := calc[0](t, 400), Derivation)]


# ---------------------------------------------------------------------------
# The paper's theorems, one check per term.  Each returns None, or the text
# its criterion fails with.  The criteria run them on their corpora, and
# tests/test_small_scope.py on every small term.

def check_exact_tight(t: Term, trace: Trace, d) -> str | None:
    """Criterion 4: d, inferred for t, is tight and checks, its counters are
    t's dw (b, e, |nf|), and E's exact subject reduction takes every step."""
    if not isinstance(d, DerivationE):
        return f"inference failed on {print_term(t)}"
    expected = (trace.b, trace.e, w_size(trace.final))
    if d.counters != expected:
        return f"{print_term(t)}: counters {d.counters}, measured {expected}"
    if not is_tight(d) or check_derivation_e(d) is not None:
        return f"{print_term(t)}: produced derivation is broken"
    try:
        for st in trace.steps:
            d = reduce_derivation_e(d, (st.position, st.rule))
    except IllFormed:
        return f"{print_term(t)}: subject reduction broke the tight derivation"
    return None


def check_diamond(graph: StateGraph) -> str | None:
    """Criterion 5, on a term's reachable graph: complete traces agree in
    length and counters, and two steps to distinct terms close in one step
    each, of the other's kind."""
    if any(not succs for succs in graph.edges.values()) and trace_profile(graph) is None:
        return f"trace lengths disagree from {print_term(graph.terms[graph.start_key])}"
    for key, succs in graph.edges.items():
        for i, (_, k1, key1) in enumerate(succs):
            for _, k2, key2 in succs[i + 1:]:
                t1, t2 = graph.terms[key1], graph.terms[key2]
                if t1 == t2:
                    continue
                ok1 = {canon_key(step_at(t1, p, k)) for p, k in redexes(t1) if k == k2}
                ok2 = {canon_key(step_at(t2, p, k)) for p, k in redexes(t2) if k == k1}
                if not (ok1 & ok2):
                    return (f"diamond fails from {print_term(graph.terms[key])} "
                            f"via {k1}/{k2}")
    return None


def check_weighted_reduction(t: Term, trace: Trace, d) -> str | None:
    """Criterion 6: d, inferred for t, checks, its size is at least the
    steps of t's dw trace plus |nf|, and each reduct checks and is smaller."""
    if not isinstance(d, Derivation):
        return f"inference failed on {print_term(t)}"
    if check_derivation_u(d) is not None:
        return f"{print_term(t)}: produced derivation is broken"
    if size_u(d) < len(trace.steps) + w_size(trace.final):
        return f"size bound fails on {print_term(t)}"
    for st in trace.steps:
        try:
            cur = reduce_derivation_u(d, (st.position, st.rule))
        except IllFormed:
            cur = None
        if cur is None or check_derivation_u(cur) is not None:
            return f"reduction broke the derivation on {print_term(t)}"
        if size_u(cur) >= size_u(d):
            return f"size did not decrease on {print_term(t)}"
        d = cur
    return None


def _one_w_step_to(image: Term, target: Term) -> bool:
    return any(alpha_eq(step_at(image, p, k), target) for p, k in redexes(image))


def check_simulation(t: Term) -> str | None:
    """Criterion 8: a normal lambda term has a w-normal image, and each of
    t's first 30 CBN (CBV) steps takes one w-step (two, the second d!)."""
    cls = classify_lambda_nf(t)
    if cls.n_normal and redexes(embed_cbn(t)):
        return f"cbn image of n-normal {print_term(t)} is not w-normal"
    if cls.v_normal and redexes(embed_cbv(t)):
        return f"cbv image of v-normal {print_term(t)} is not w-normal"
    cur, hops = t, 0
    while hops < 30 and (r := step_n(cur)) is not None:
        nxt = r[2]
        if not _one_w_step_to(embed_cbn(cur), embed_cbn(nxt)):
            return f"cbn step not simulated in one w-step at {print_term(cur)}"
        cur, hops = nxt, hops + 1
    cur, hops = t, 0
    while hops < 30 and (r := step_v(cur)) is not None:
        nxt = r[2]
        img, tgt = embed_cbv(cur), embed_cbv(nxt)
        if not (_one_w_step_to(img, tgt) or any(
                k2 is RuleKind.DBANG and alpha_eq(step_at(mid, p2, k2), tgt)
                for mid in (step_at(img, p, k) for p, k in redexes(img))
                for p2, k2 in redexes(mid))):
            return f"cbv step not simulated in <=2 w-steps at {print_term(cur)}"
        cur, hops = nxt, hops + 1
    return None


def check_round_trip(t: Term, d: Derivation, name: str) -> str | None:
    """Criterion 9: d, inferred for t in calculus `name`, checks, and its
    kept U image checks with d's judgement, is d's translation, and
    translates back to d's judgement."""
    _, check, to_u, from_u = _CALCULI[name][:4]
    if check(d) is not None:
        return f"bad {name} derivation for {print_term(t)}"
    du = to_u(d)  # the image the inference kept
    if check_derivation_u(du) is not None or (du.context, du.type) != (d.context, d.type):
        return f"bad translated U derivation for {print_term(t)}"
    # a copy without the image is walked, to the same derivation
    if to_u(Derivation(d.rule, d.context, d.subject, d.type, d.premises)) != du:
        return f"{name} kept image is not the translation of {print_term(t)}"
    back = from_u(du, t)
    if check(back) is not None or \
            (back.context, back.subject, back.type) != (d.context, d.subject, d.type):
        return f"{name} round trip broke the judgement for {print_term(t)}"
    return None


def check_bound(t: Term, d: Derivation, name: str) -> str | None:
    """Criterion 10: the size of d, inferred for t in calculus `name`, is at
    least t's steps there plus its normal form's size."""
    normalize, size, term_size = _CALCULI[name][4:]
    tr = normalize(t, 400)
    if size(d) < tr.b + tr.e + term_size(tr.final):
        return f"CB{name} bound fails on {print_term(t)}"
    return None


def check_tight_meta(d: DerivationE) -> str | None:
    """Criterion 11: if d is tight, b = e = 0 iff its subject is normal,
    and then s is the subject's size; every node spreads tightness."""
    normal = classify_nf(d.subject).normal
    if is_tight(d):
        if (d.b == 0 and d.e == 0) != normal:
            return f"b=e=0 characterisation fails on {print_term(d.subject)}"
        if d.b == 0 and d.e == 0 and d.s != w_size(d.subject):
            return f"tight size fails on {print_term(d.subject)}"
    if not _spreading_everywhere(d):
        return f"tight spreading fails inside {print_term(d.subject)}"
    return None


def _spreading_everywhere(d: DerivationE) -> bool:
    return tight_spreading_check(d) and all(_spreading_everywhere(p) for p in d.premises)


def _verdict(failures: Iterable[str | None], passed: str) -> CriterionResult:
    """(False, the first failure), or (True, passed) if every check passed."""
    failure = next(filter(None, failures), None)
    return failure is None, failure or passed


def criterion_4_exactness_sweep(seed: int = 0) -> CriterionResult:
    corpus = _tight_corpus(seed)
    return _verdict((check_exact_tight(*entry) for entry in corpus),
                    f"{len(corpus)} terms, all counters exact")


def criterion_5_diamond_equal_length(seed: int = 0) -> CriterionResult:
    rng = random.Random(seed + 1)
    graphs: list[StateGraph] = []
    while len(graphs) < 300:
        try:
            graphs.append(reachable_graph(rand_bang_term(rng, rng.randint(2, 8)), 200))
        except StateLimitExceeded:
            pass
    return _verdict(map(check_diamond, graphs), f"{len(graphs)} state graphs checked")


def criterion_6_wsr_monotonic(seed: int = 0) -> CriterionResult:
    corpus = _normalizing_bang_corpus(seed + 2, 200)
    return _verdict((check_weighted_reduction(t, trace, infer_u(t, 500)) for t, trace in corpus),
                    f"{len(corpus)} typable terms, strict decrease everywhere")


def criterion_7_clash_filtering(seed: int = 0) -> CriterionResult:
    r = parse_term(R_TEXT)
    if not redexes(r):
        return False, "example term is not reducible"
    trace = normalize_dw(r, 100)
    nf = trace.final
    untypable = isinstance(infer_u(r, 100), Untypable)
    ok = classify_nf(nf).normal and not classify_wcf_nf(nf).memberships and untypable
    return ok, f"nf={print_term(nf)} untypable={untypable}"


def criterion_8_embedding(seed: int = 0) -> CriterionResult:
    corpus = _lambda_corpus(seed, 300)
    return _verdict(map(check_simulation, corpus), f"{len(corpus)} lambda terms")


def criterion_9_translation_round_trips(seed: int = 0) -> CriterionResult:
    typed = _typed_lambdas(seed + 4)
    names = [name for _, _, name in typed]
    return _verdict((check_round_trip(*entry) for entry in typed),
                    f"{names.count('N')} CBN and {names.count('V')} CBV round trips")


def criterion_10_quantitative_cbn_cbv(seed: int = 0) -> CriterionResult:
    typed = _typed_lambdas(seed + 5)
    names = [name for _, _, name in typed]
    return _verdict((check_bound(*entry) for entry in typed),
                    f"{names.count('N')} CBN and {names.count('V')} CBV bounds hold")


def criterion_11_tight_meta(seed: int = 0) -> CriterionResult:
    produced = [d for _, _, d in _tight_corpus(seed)[:300] if isinstance(d, DerivationE)]
    extra = [type_normal_form_tight(parse_term(s))
             for s in (r"\z.z", "x !y", "x", r"x[x \ y]")]
    return _verdict(map(check_tight_meta, produced + extra),
                    f"{len(produced) + len(extra)} derivations swept")



CRITERIA: list[tuple[str, Callable[[int], CriterionResult]]] = [
    ("1 golden trace", criterion_1_golden_trace),
    ("2 tight counters for the example term", criterion_2_tight_counters),
    ("3 plain-system size of the example derivation", criterion_3_plain_size),
    ("4 exactness sweep", criterion_4_exactness_sweep),
    ("5 diamond and equal length", criterion_5_diamond_equal_length),
    ("6 weighted subject reduction monotonicity", criterion_6_wsr_monotonic),
    ("7 clash filtering", criterion_7_clash_filtering),
    ("8 embedding preservation and simulation", criterion_8_embedding),
    ("9 translation round trips", criterion_9_translation_round_trips),
    ("10 quantitative CBN/CBV bounds", criterion_10_quantitative_cbn_cbv),
    ("11 tight meta-properties", criterion_11_tight_meta),
]


def run_all(seed: int = 0) -> bool:
    all_ok = True
    for name, fn in CRITERIA:
        ok, detail = fn(seed)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        all_ok = all_ok and ok
    return all_ok
