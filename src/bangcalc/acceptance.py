"""End-to-end acceptance suite.

Each criterion is a function returning (passed, detail).  `run_all`
prints one line per criterion and reports overall success; the pytest
suite asserts each criterion individually.  All checks are exact; the
random sweeps are reproducible from the seed.
"""

from __future__ import annotations

import random
from typing import Callable

from .syntax import Term, alpha_eq, canon_key, parse_term, print_term, w_size
from .reduction import (
    FuelExhausted, RuleKind, StateLimitExceeded, Trace,
    classify_nf, classify_wcf_nf, normalize_dw, reachable_graph, redexes,
    step_at, trace_profile,
)
from .qtypes import BaseVar, Arrow, mult
from .system_u import (
    Derivation, Untypable, check_derivation_u, infer_u, mk_abs, mk_app, mk_ax,
    mk_bg, mk_dr, reduce_derivation_u, size_u,
)
from .system_e import (
    DerivationE, check_derivation_e, infer_tight, is_tight,
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
    sz = size_u(phi0)
    ok = check_derivation_u(phi0) is None and sz == 8 and sz >= 2 + 3 + 1
    return ok, f"size={sz} check={check_derivation_u(phi0)}"


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


def criterion_4_exactness_sweep(seed: int = 0) -> CriterionResult:
    corpus = _normalizing_bang_corpus(seed, 500)
    for t, trace in corpus:
        d = infer_tight(t, 500)
        if not isinstance(d, DerivationE):
            return False, f"inference failed on {print_term(t)}"
        expected = (trace.b, trace.e, w_size(trace.final))
        if d.counters != expected:
            return False, (f"{print_term(t)}: counters {d.counters}, "
                           f"measured {expected}")
        if not is_tight(d) or check_derivation_e(d) is not None:
            return False, f"{print_term(t)}: produced derivation is broken"
    return True, f"{len(corpus)} terms, all counters exact"


def criterion_5_diamond_equal_length(seed: int = 0) -> CriterionResult:
    rng = random.Random(seed + 1)
    done = 0
    while done < 300:
        t = rand_bang_term(rng, rng.randint(2, 8))
        try:
            graph = reachable_graph(t, max_states=200)
        except StateLimitExceeded:
            continue
        # equal length and equal counters over all complete traces
        has_nf = any(not succs for succs in graph.edges.values())
        if has_nf and trace_profile(graph) is None:
            return False, f"trace lengths disagree from {print_term(t)}"
        # one-step diamond with swapped kinds
        for key, succs in graph.edges.items():
            for i in range(len(succs)):
                for j in range(i + 1, len(succs)):
                    _, k1, key1 = succs[i]
                    _, k2, key2 = succs[j]
                    t1, t2 = graph.terms[key1], graph.terms[key2]
                    if t1 == t2:
                        continue
                    ok1 = {canon_key(step_at(t1, p, k)) for p, k in redexes(t1) if k == k2}
                    ok2 = {canon_key(step_at(t2, p, k)) for p, k in redexes(t2) if k == k1}
                    if not (ok1 & ok2):
                        return False, (f"diamond fails from {print_term(graph.terms[key])} "
                                       f"via {k1}/{k2}")
        done += 1
    return True, f"{done} state graphs checked"


def criterion_6_wsr_monotonic(seed: int = 0) -> CriterionResult:
    corpus = _normalizing_bang_corpus(seed + 2, 200)
    checked = 0
    for t, trace in corpus:
        d = infer_u(t, 500)
        if not isinstance(d, Derivation):
            return False, f"inference failed on {print_term(t)}"
        prev = size_u(d)
        cur = d
        for st in trace.steps:
            cur = reduce_derivation_u(cur, (st.position, st.rule))
            if check_derivation_u(cur) is not None:
                return False, f"reduction broke the derivation on {print_term(t)}"
            if size_u(cur) >= prev:
                return False, f"size did not decrease on {print_term(t)}"
            prev = size_u(cur)
        checked += 1
    return True, f"{checked} typable terms, strict decrease everywhere"


def criterion_7_clash_filtering(seed: int = 0) -> CriterionResult:
    r = parse_term(R_TEXT)
    if not redexes(r):
        return False, "example term is not reducible"
    trace = normalize_dw(r, 100)
    nf = trace.final
    untypable = isinstance(infer_u(r, 100), Untypable)
    ok = classify_nf(nf).normal and not classify_wcf_nf(nf).memberships and untypable
    return ok, f"nf={print_term(nf)} untypable={untypable}"


def _lambda_corpus(seed: int, count: int) -> list[Term]:
    rng = random.Random(seed + 3)
    return [rand_lambda_term(rng, rng.randint(2, 8)) for _ in range(count)]


def _one_w_step_to(image: Term, target: Term) -> bool:
    return any(alpha_eq(step_at(image, p, k), target) for p, k in redexes(image))


def criterion_8_embedding(seed: int = 0) -> CriterionResult:
    corpus = _lambda_corpus(seed, 300)
    for t in corpus:
        cls = classify_lambda_nf(t)
        if cls.n_normal and redexes(embed_cbn(t)):
            return False, f"cbn image of n-normal {print_term(t)} is not w-normal"
        if cls.v_normal and redexes(embed_cbv(t)):
            return False, f"cbv image of v-normal {print_term(t)} is not w-normal"
        # simulation along the strategies (bounded)
        cur, hops = t, 0
        while hops < 30 and (r := step_n(cur)) is not None:
            nxt = r[2]
            if not _one_w_step_to(embed_cbn(cur), embed_cbn(nxt)):
                return False, f"cbn step not simulated in one w-step at {print_term(cur)}"
            cur, hops = nxt, hops + 1
        cur, hops = t, 0
        while hops < 30 and (r := step_v(cur)) is not None:
            nxt = r[2]
            img, tgt = embed_cbv(cur), embed_cbv(nxt)
            if not _one_w_step_to(img, tgt):
                # two steps, the second being d!
                two = False
                for p, k in redexes(img):
                    mid = step_at(img, p, k)
                    if any(k2 is RuleKind.DBANG and alpha_eq(step_at(mid, p2, k2), tgt)
                           for p2, k2 in redexes(mid)):
                        two = True
                        break
                if not two:
                    return False, f"cbv step not simulated in <=2 w-steps at {print_term(cur)}"
            cur, hops = nxt, hops + 1
    return True, f"{len(corpus)} lambda terms"


def criterion_9_translation_round_trips(seed: int = 0) -> CriterionResult:
    done = {"N": 0, "V": 0}
    for t in _lambda_corpus(seed + 4, 300):
        for name, infer, check, to_u, from_u in (
                ("N", infer_n, check_derivation_n, translate_n_to_u, translate_u_to_n),
                ("V", infer_v, check_derivation_v, translate_v_to_u, translate_u_to_v)):
            d = infer(t, 400)
            if not isinstance(d, Derivation):
                continue
            if check(d) is not None:
                return False, f"bad {name} derivation for {print_term(t)}"
            du = to_u(d)  # the image the inference kept
            if check_derivation_u(du) is not None:
                return False, f"bad translated U derivation for {print_term(t)}"
            # a copy without the image is walked, to the same derivation
            if to_u(Derivation(d.rule, d.context, d.subject, d.type, d.premises)) != du:
                return False, f"{name} kept image is not the translation of {print_term(t)}"
            back = from_u(du, t)
            if check(back) is not None or \
                    (back.context, back.subject, back.type) != (d.context, d.subject, d.type):
                return False, f"{name} round trip broke the judgement for {print_term(t)}"
            done[name] += 1
    return True, f"{done['N']} CBN and {done['V']} CBV round trips"


def criterion_10_quantitative_cbn_cbv(seed: int = 0) -> CriterionResult:
    done = {"CBN": 0, "CBV": 0}
    for t in _lambda_corpus(seed + 5, 300):
        for name, infer, normalize, size, term_size in (
                ("CBN", infer_n, normalize_n, size_n, n_size),
                ("CBV", infer_v, normalize_v, size_v, v_size)):
            d = infer(t, 400)
            if isinstance(d, Derivation):
                tr = normalize(t, 400)
                if size(d) < tr.b + tr.e + term_size(tr.final):
                    return False, f"{name} bound fails on {print_term(t)}"
                done[name] += 1
    return True, f"{done['CBN']} CBN and {done['CBV']} CBV bounds hold"


def criterion_11_tight_meta(seed: int = 0) -> CriterionResult:
    produced = []
    for t, _ in _normalizing_bang_corpus(seed, 300):
        d = infer_tight(t, 500)
        if isinstance(d, DerivationE):
            produced.append(d)
    extra = [type_normal_form_tight(parse_term(s))
             for s in (r"\z.z", "x !y", "x", r"x[x \ y]")]
    for d in produced + extra:
        normal = classify_nf(d.subject).normal
        if is_tight(d):
            if (d.b == 0 and d.e == 0) != normal:
                return False, f"b=e=0 characterisation fails on {print_term(d.subject)}"
            if d.b == 0 and d.e == 0 and d.s != w_size(d.subject):
                return False, f"tight size fails on {print_term(d.subject)}"
        if not _spreading_everywhere(d):
            return False, f"tight spreading fails inside {print_term(d.subject)}"
    return True, f"{len(produced) + len(extra)} derivations swept"


def _spreading_everywhere(d: DerivationE) -> bool:
    return tight_spreading_check(d) and all(_spreading_everywhere(p) for p in d.premises)


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
