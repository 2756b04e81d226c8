#!/usr/bin/env python3
"""Benchmark of bangcalc: one client in a closed loop, one process, no
threads.

    python3 bench/run.py --workload church|sweep|typecheck --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports bangcalc from `src/` and
writes only under `.bench_out/`.  The seed makes the inputs; the same
seed gives the same inputs.  Every answer is checked (see workloads.py)
and a digest of the answers to a fixed golden set must equal the one in
golden.json, recorded with `--record-golden`.

A run sends whole rounds of the workload's mix, as many as fill S seconds
at the time a round takes on a 2-vCPU 2.1 GHz Xeon VM (`Workload.round_s`).
The count is fixed, not timed, so that every run of a workload sends the
same number of requests and counts its failures against the same number
attempted.  `--trace 0` reports the end-to-end metrics over every timed
request in reference time (see `Speed`), and the same figures in wall
time in the details line.  `--trace 1` runs one fixed round of requests
repeatedly, as many times untraced as fill S/2 seconds and as many times
again traced, and reports per-layer self times and counts per round, the
tracing overhead, and the growth exponents of four layers on church(n)
for n = 10 .. 320.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds details
(tail percentile and sample count, failures, per-size medians).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

SETUP_PROBES = 5
TAIL_LADDER = (50, 90, 99)     # tail = highest of these with >= 10 samples above
SCALING_NS = (10, 20, 40, 80, 160, 320)
SCALING_METRICS = ("reduction.normalize_s", "system_u.replay_s", "system_e.replay_s",
                   "system_u.check_s")
MIN_GROUP = 5                  # samples a size needs to enter the growth fit
REQUEST_TIMEOUT_S = 30.0       # a request still running then has failed
REF_EVERY_S = 0.05             # busy time between two runs of the reference work
REF_NEAR = 15                  # reference runs on each side that scale a request
REF_PROBE = 15                 # reference runs before each set-up probe


def load():
    """Import the benchmark modules and, through them, bangcalc."""
    if not (SRC / "bangcalc" / "__init__.py").is_file():
        sys.exit(f"bench: no bangcalc sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import tracer
    import workloads
    return workloads, tracer


# ---------------------------------------------------------------------------
# Statistics

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples above it) for the highest ladder
    percentile that has at least ten samples above it (nearest rank)."""
    xs = sorted(latencies)
    ranks = [(p, max(0, math.ceil(p / 100 * len(xs)) - 1)) for p in TAIL_LADDER]
    usable = [(p, k) for p, k in ranks if len(xs) - (k + 1) >= 10] or ranks[:1]
    p, k = usable[-1]
    return p, xs[k], len(xs) - (k + 1)


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx if sxx else 0.0


def growth(samples: list[tuple[int, str, float]]) -> tuple[float, dict]:
    """Slope of median latency against request size, over the sizes with
    at least MIN_GROUP samples.  A size's median is the median over its
    inputs of each input's median latency: where a size holds an even
    number of inputs of unlike cost, the median of the raw samples falls in
    the gap between the two middle inputs and jumps with every slow or fast
    sample on either side of it."""
    groups: dict[int, dict[str, list[float]]] = {}
    for size, key, dt in samples:
        if size > 0:
            groups.setdefault(size, {}).setdefault(key, []).append(dt)
    medians = {s: statistics.median(statistics.median(v) for v in by_key.values())
               for s, by_key in sorted(groups.items())
               if sum(map(len, by_key.values())) >= MIN_GROUP}
    return slope(list(medians.items())), medians


def reference_work() -> float:
    """Seconds one run of a fixed piece of pure-Python work takes: build
    and walk trees of tuples and fill dicts, about 1 ms on a 2-vCPU
    2.1 GHz Xeon VM.  It calls nothing in bangcalc, and the cyclic
    collector is off while it runs, so its time does not depend on the
    program's code or heap."""
    def build(d):
        return (d,) if d == 0 else (build(d - 1), d, build(d - 1))

    def walk(t):
        return t[0] if len(t) == 1 else walk(t[0]) + t[1] + walk(t[2])

    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            walk(build(9))
            {str(j): j for j in range(400)}
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Speed:
    """The machine's speed over a run, read from runs of `reference_work`
    between requests.

    This machine is a share of a host whose other tenants change how fast
    it runs: the same work takes up to 1.6 times as long from one minute
    to the next, in phases longer than a run, so wall-clock figures of
    identical runs spread by more than any useful bound.  Each request's
    time is therefore also given in reference time: its wall time over
    the median time of the REF_NEAR reference runs on each side of it,
    times one millisecond.  Reference work and requests slow down
    together, so the quotient keeps the program's own cost, its slow
    requests included, and drops most of the host's."""

    def __init__(self):
        self.at: list[int] = []        # requests sent before each reference run
        self.took: list[float] = []
        self.since = 0.0

    def sample(self, sent: int) -> None:
        self.at.append(sent)
        self.took.append(reference_work())
        self.since = 0.0

    def after(self, sent: int, dt: float) -> None:
        """Note a request of `dt` seconds; sample when REF_EVERY_S of busy
        time has passed since the last sample."""
        self.since += dt
        if self.since >= REF_EVERY_S:
            self.sample(sent)

    def scale(self, index: int, dt: float) -> float:
        """Reference time of the request sent `index`-th (from 0)."""
        p = bisect.bisect_right(self.at, index)
        near = self.took[max(0, p - REF_NEAR):p + REF_NEAR]
        return dt * 1e-3 / statistics.median(near)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


# ---------------------------------------------------------------------------
# Running requests

class RequestTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RequestTimeout(f"no answer within {REQUEST_TIMEOUT_S} s")


def run_one(wl, req, workloads):
    """`wl.run(req)` under a time limit; running out of it is a crash."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
    try:
        return wl.run(req)
    except RequestTimeout as ex:
        return workloads.Outcome("crash", f"timeout: {ex}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Checker:
    """Checks every answer and keeps the golden outputs.  An answer equal
    to one already checked for the same input is correct without a second
    check, because bangcalc is deterministic."""

    def __init__(self, wl, workloads):
        self.wl = wl
        self.workloads = workloads
        self.attempted = 0
        self.crashed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.golden_keys = {r.key for r in wl.golden()}
        self.checked: dict[str, str] = {}    # key -> answer that passed

    def record(self, req, out) -> None:
        self.attempted += 1
        known = self.checked.get(req.key)
        if known is not None and out.output == known:
            return
        errors = self.wl.verify(req, out)
        if known is not None and not errors:
            errors = [f"{req.key}: answer differs from an earlier one"]
        if out.status == "crash":
            self.crashed += 1
        elif errors:
            self.wrong += 1
        self.errors.extend(errors[:1] if len(self.errors) < 20 else [])
        if out.status == "ok" and not errors:
            self.checked[req.key] = out.output

    def run_untimed(self) -> None:
        for req in self.wl.untimed():
            self.record(req, run_one(self.wl, req, self.workloads))

    def golden_digest(self) -> str:
        """Digest of the golden set's answers; requests the run did not
        reach are run here, untimed."""
        for req in self.wl.golden():
            if req.key not in self.checked:
                self.record(req, run_one(self.wl, req, self.workloads))
        keys = sorted(self.golden_keys)
        return self.workloads.digest(f"{k}\n{self.checked.get(k, 'missing')}" for k in keys)

    def finish(self, details: dict) -> tuple[bool, int]:
        """(correct, failed): correct when no answer was wrong and the
        golden digest matches the recorded one."""
        self.run_untimed()
        got = self.golden_digest()
        want = json.loads(GOLDEN.read_text()).get(self.wl.name) if GOLDEN.is_file() else None
        if got != want:
            self.wrong += 1
            self.errors.append(f"golden digest {got} != recorded {want}")
        details.update(attempted=self.attempted, crashed=self.crashed, wrong=self.wrong,
                       error_rate=(self.crashed + self.wrong) / max(1, self.attempted),
                       errors=self.errors)
        return self.wrong == 0, self.crashed + self.wrong


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Time from starting a fresh interpreter to its first request being
    ready, in wall time and in reference time (see `Speed`), scaled by the
    median of REF_PROBE reference runs just before it."""
    ref = statistics.median(reference_work() for _ in range(REF_PROBE))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--workload", workload, "--seed", str(seed), "--setup-probe"],
                          cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120)
    if proc.returncode != 0:
        sys.exit(f"bench: set-up probe failed: {proc.stderr.decode()[-2000:]}")
    wall = time.perf_counter() - t0
    return wall, wall * 1e-3 / ref


def run_untraced(args, workloads) -> dict:
    # setup_s is the median of SETUP_PROBES probes spread evenly over the
    # run, between requests, so that they meet the machine as it varies.
    setup_times = [setup_probe(args.workload, args.seed)]
    wl = workloads.make(args.workload, args.seed)
    checker = Checker(wl, workloads)
    timed: list[tuple[int, str, float, bool]] = []   # (size, key, latency, answered)
    speed = Speed()
    clock = time.perf_counter
    total = wl.rounds(args.seconds) * wl.round_size
    speed.sample(0)
    for req in itertools.islice(wl.stream(), total):
        t0 = clock()
        out = run_one(wl, req, workloads)
        dt = clock() - t0
        timed.append((req.size, req.key, dt, out.status != "crash"))
        speed.after(len(timed), dt)
        checker.record(req, out)
        if len(setup_times) < SETUP_PROBES and \
                len(timed) >= len(setup_times) * total / SETUP_PROBES:
            setup_times.append(setup_probe(args.workload, args.seed))
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(args.workload, args.seed))
    speed.sample(len(timed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def figures(times: list[float]) -> dict:
        """Throughput, p50, tail and growth over the timed requests, whose
        latencies are `times`; the throughput counts answered requests
        over all the time spent."""
        answered = [(size, key, dt) for (size, key, _, ok), dt in zip(timed, times) if ok]
        latencies = [dt for _, _, dt in answered]
        pct, tail_s, beyond = tail(latencies)
        exp, medians = growth(answered)
        return {"throughput_rps": len(latencies) / sum(times),
                "latency_p50_ms": statistics.median(latencies) * 1e3,
                "latency_tail_ms": tail_s * 1e3, "tail_percentile": pct,
                "tail_samples_beyond": beyond, "samples": len(latencies), "growth_exp": exp,
                "median_ms_by_size": {s: m * 1e3 for s, m in medians.items()}}

    wall = figures([dt for _, _, dt, _ in timed])
    ref = figures([speed.scale(i, dt) for i, (_, _, dt, _) in enumerate(timed)])
    wall["setup_s"] = statistics.median(w for w, _ in setup_times)
    ref["setup_s"] = statistics.median(r for _, r in setup_times)
    details = {"reference_time": ref, "wall_time": wall, "sent": len(timed),
               "reference_ms": {"median": statistics.median(speed.took) * 1e3,
                                "least": min(speed.took) * 1e3,
                                "most": max(speed.took) * 1e3, "runs": len(speed.took)}}
    correct, failed = checker.finish(details)
    metrics = {
        "setup_s": (ref["setup_s"], "s"),
        "throughput_rps": (ref["throughput_rps"], "1/s"),
        "latency_p50_ms": (ref["latency_p50_ms"], "ms"),
        "latency_tail_ms": (ref["latency_tail_ms"], "ms"),
        "growth_exp": (ref["growth_exp"], "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return result(correct, checker.attempted, failed, metrics, details)


def run_traced(args, workloads, tracer_mod) -> dict:
    wl = workloads.make(args.workload, args.seed)
    checker = Checker(wl, workloads)
    rnd = wl.traced_round()
    rounds = wl.rounds(args.seconds / 2)
    clock = time.perf_counter

    untraced = []
    for _ in range(rounds):
        t_round = 0.0
        for req in rnd:
            t0 = clock()
            out = run_one(wl, req, workloads)
            t_round += clock() - t0
            checker.record(req, out)
        untraced.append(t_round)

    traced, self_s, counts, out_bytes = [], [], [], []
    first = None
    for _ in range(rounds):
        tr = tracer_mod.Tracer(namespaces=(workloads,))
        outs = []
        t_round = 0.0
        with tr:
            for i, req in enumerate(rnd):
                tr.request = i
                t0 = clock()
                outs.append(run_one(wl, req, workloads))
                t_round += clock() - t0
        for req, out in zip(rnd, outs):
            checker.record(req, out)
        traced.append(t_round)
        self_s.append(tr.self_s)
        counts.append(dict(tr.counts))
        out_bytes.append(sum(len(o.output.encode()) for o in outs))
        first = first or tr

    exps, scaling = scaling_sweep(workloads, tracer_mod, checker)
    OUT.mkdir(exist_ok=True)
    first.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")

    details = {"rounds_untraced": len(untraced), "rounds_traced": len(traced),
               "round_requests": len(rnd),
               "counts_repeat": all(c == counts[0] for c in counts),
               "scaling_self_s": scaling}
    correct, failed = checker.finish(details)
    if not details["counts_repeat"] or len(set(out_bytes)) != 1:
        correct = False
        checker.errors.append("counts differ between identical traced rounds")
    metrics = {}
    for m in tracer_mod.SPAN_METRICS:
        metrics[m] = (statistics.median(s.get(m, 0.0) for s in self_s), "s")
    for m in tracer_mod.COUNT_METRICS:
        metrics[m] = (counts[0].get(m, 0), "count")
    metrics["serialize.out_bytes"] = (out_bytes[0], "bytes")
    for m in SCALING_METRICS:
        metrics[m + ".exp"] = (exps[m], "1")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    metrics["src.lines"] = (src_lines(), "lines")
    return result(correct, checker.attempted, failed, metrics, details)


def scaling_sweep(workloads, tracer_mod, checker) -> tuple[dict, dict]:
    """Self time of four layers on the CBN image of church(n), spans only,
    and the log-log slope of each against n.  A call that raises, as
    infer_u on church(320) overflows the stack, is a failed request, and
    its layers leave that n out of the fit."""
    w = workloads
    per_n = {}
    for n in SCALING_NS:
        image = w.embed_cbn(w.church_term(n))
        tr = tracer_mod.Tracer(namespaces=(w,), counters=False)
        got = {}
        with tr:
            for name, call in (("trace", lambda: w.normalize_dw(image, 100000)),
                               ("u", lambda: w.infer_u(image, 100000)),
                               ("e", lambda: w.infer_tight(image, 100000)),
                               ("check", lambda: w.check_derivation_u(got["u"]))):
                if name == "check" and "u" not in got:
                    continue
                checker.attempted += 1
                try:
                    got[name] = call()
                except Exception as ex:
                    checker.crashed += 1
                    checker.errors.append(f"scaling n={n}: {name}: {type(ex).__name__}")
        trace, d_e = got.get("trace"), got.get("e")
        if (trace is not None and len(trace.steps) != 2 * n + 4) or \
                (trace is not None and d_e is not None
                 and d_e.counters != (trace.b, trace.e, w.w_size(trace.final))) or \
                got.get("check") is not None:
            checker.wrong += 1
            checker.errors.append(f"scaling n={n}: wrong answer")
        made = {"reduction.normalize_s": "trace", "system_u.replay_s": "u",
                "system_e.replay_s": "e", "system_u.check_s": "check"}
        per_n[n] = {m: tr.self_s.get(m, 0.0) for m, name in made.items() if name in got}
    exps = {m: slope([(n, v[m]) for n, v in per_n.items() if m in v])
            for m in SCALING_METRICS}
    return exps, per_n


def result(correct, attempted, failed, metrics, details) -> dict:
    return {"details": details,
            "result": {"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}}}


def record_golden(workloads) -> None:
    digests = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, 0)
        checker = Checker(wl, workloads)
        digests[name] = checker.golden_digest()
        if checker.wrong or checker.crashed:
            sys.exit(f"bench: golden set of {name} has failures: {checker.errors}")
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("church", "sweep", "typecheck"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up the workload, make its first request and exit")
    ap.add_argument("--record-golden", action="store_true",
                    help="write the golden digests of this checkout to golden.json")
    args = ap.parse_args()
    workloads, tracer_mod = load()
    if args.record_golden:
        record_golden(workloads)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        next(iter(workloads.make(args.workload, args.seed).stream()))
        sys.stdout.flush()
        os._exit(0)
    if args.trace:
        out = run_traced(args, workloads, tracer_mod)
    else:
        out = run_untraced(args, workloads)
    print(json.dumps(out["details"], sort_keys=True, default=str))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
