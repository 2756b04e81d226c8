"""The three benchmark workloads: `church`, `sweep` and `typecheck`.

A workload is built from a seed by `make(name, seed)`.  It hands the
runner requests, runs one request (`run`, the timed part) and checks its
answer (`verify`, untimed).  Every request is a `Request`; `key`
identifies its input, `size` is the size measure that `growth_exp` fits
latency against (church n, or term size; 0 leaves a request out of the
fit).

Calls into bangcalc go through the names imported below, so that the
tracer can wrap them in this module too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field

from bangcalc import cli
from bangcalc.cbn_cbv import (
    check_derivation_n, check_derivation_v, classify_lambda_nf, embed_cbn,
    embed_cbv, infer_n, infer_v, normalize_n, normalize_v, translate_n_to_u,
    translate_v_to_u,
)
from bangcalc.gen import rand_bang_term, rand_lambda_term
from bangcalc.reduction import (
    FuelExhausted, StateLimitExceeded, classify_nf, classify_wcf_nf,
    detect_clash, normalize_dw, reachable_graph, trace_profile,
)
from bangcalc.serialize import (
    derivation_from_json, derivation_to_json, dump_records, trace_records,
)
from bangcalc.syntax import (
    Abs, App, Bang, Der, Sub, Var, parse_term, print_term, w_size,
)
from bangcalc.system_e import DerivationE, check_derivation_e, infer_tight, is_tight
from bangcalc.system_u import Derivation, Untypable, check_derivation_u, infer_u

WORKLOADS = ("church", "sweep", "typecheck")


@dataclass
class Request:
    key: str
    size: int
    payload: object = None
    expect: object = None


@dataclass
class Outcome:
    """What one request produced: `status` is "ok" or "crash"; `output` is
    the answer as text, `detail` what `verify` needs to check it."""
    status: str
    output: str
    detail: object = field(default=None, repr=False)


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def term_size(t) -> int:
    match t:
        case Var(_):
            return 1
        case App(f, a):
            return 1 + term_size(f) + term_size(a)
        case Abs(_, b) | Bang(b) | Der(b):
            return 1 + term_size(b)
        case Sub(b, _, a):
            return 1 + term_size(b) + term_size(a)
    raise TypeError(t)


def run_cli(argv: list[str]) -> Outcome:
    """`cli.main` in this process, stdout captured.  The output is the
    exit code and stdout; an exception escaping `main` is a crash."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as ex:  # an escaped traceback is a failed request
        return Outcome("crash", f"{type(ex).__name__}: {ex}")
    return Outcome("ok", f"{code}\n{out.getvalue()}", code)


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()[1:] if line]


# ---------------------------------------------------------------------------
# church: cli.main on church(n) (\y.y) z and its CBN image

def church_term(n: int):
    """church(n) (\\y.y) z, built directly so that no parser depth limit
    applies."""
    body = Var("x")
    for _ in range(n):
        body = App(Var("f"), body)
    numeral = Abs("f", Abs("x", body))
    return App(App(numeral, Abs("y", Var("y"))), Var("z"))


# Sessions of each n per cycle: 20 requests, so that the median falls in
# the middle of the n=40 class and p90 inside the n=80 class, each among
# commands of like cost, not on the step between two.
CHURCH_MIX = {20: 1, 40: 2, 80: 1}
CHURCH_COMMANDS = ("trace", "tight", "infer", "infer-cbn", "translate-cbv")


class Workload:
    name = ""
    round_size = 0
    round_s = 1.0   # seconds a round takes on a 2-vCPU 2.1 GHz Xeon VM

    def rounds(self, seconds: float) -> int:
        """Whole rounds that fill `seconds` at `round_s` each.  The count
        depends on `seconds` alone, so that every run sends the same
        requests."""
        return max(1, round(seconds / self.round_s))

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def stream(self):
        """Requests in closed-loop order, without end: `self.requests`
        shuffled anew for every cycle."""
        while True:
            order = list(self.requests)
            self.rng.shuffle(order)
            yield from order

    def traced_round(self) -> list[Request]:
        """The fixed requests one traced round runs."""
        out = []
        for req in self.stream():
            out.append(req)
            if len(out) == self.round_size:
                return out
        return out

    def golden(self) -> list[Request]:
        return []

    def untimed(self) -> list[Request]:
        """Requests each run sends once, outside the timed loop."""
        return []


class Church(Workload):
    name = "church"
    round_s = 1.5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.requests = []
        self.expected = {}
        for n, weight in CHURCH_MIX.items():
            lam = church_term(n)
            lam_text = print_term(lam)
            img_text = print_term(embed_cbn(lam))
            argvs = {
                "trace": ["trace", img_text],
                "tight": ["tight", img_text],
                "infer": ["infer", img_text],
                "infer-cbn": ["infer", "--calculus", "cbn", lam_text],
                "translate-cbv": ["translate", "--calculus", "cbv", lam_text],
            }
            for cmd in CHURCH_COMMANDS:
                req = Request(f"{cmd}/{n}", n, argvs[cmd] + ["--output", "machine"])
                self.requests.extend([req] * weight)
        self.round_size = len(self.requests)

    def run(self, req: Request) -> Outcome:
        return run_cli(req.payload)

    def golden(self) -> list[Request]:
        return list({r.key: r for r in self.requests}.values())

    def _measured(self, n: int):
        """(steps, b, e, s) of the dw trace of the CBN image."""
        if n not in self.expected:
            trace = normalize_dw(embed_cbn(church_term(n)), 100000)
            self.expected[n] = (len(trace.steps), trace.b, trace.e, w_size(trace.final))
        return self.expected[n]

    def verify(self, req: Request, out: Outcome) -> list[str]:
        if out.status != "ok":
            return [f"{req.key}: {out.output}"]
        n = req.size
        cmd = req.key.split("/")[0]
        if out.detail != 0:
            return [f"{req.key}: exit {out.detail}"]
        recs = _records(out.output)
        steps, b, e, s = self._measured(n)
        errors = []
        if steps != 2 * n + 4:
            errors.append(f"{req.key}: dw length {steps}, expected {2 * n + 4}")
        if cmd == "trace":
            footer = recs[-1]
            if (footer["steps"], footer["b"], footer["e"]) != (steps, b, e) \
                    or footer["term"] != "z" or len(recs) != steps + 2:
                errors.append(f"{req.key}: footer {footer}")
            return errors
        rec = recs[0]
        subject = print_term(embed_cbn(church_term(n)))
        if cmd == "tight":
            d = derivation_from_json(rec["derivation"])
            if tuple(rec["counters"]) != (b, e, s) or d.counters != (b, e, s):
                errors.append(f"{req.key}: counters {rec['counters']}, measured {(b, e, s)}")
            checks = [(d, check_derivation_e, subject)]
        elif cmd == "infer":
            checks = [(derivation_from_json(rec["derivation"]), check_derivation_u, subject)]
        elif cmd == "infer-cbn":
            checks = [(derivation_from_json(rec["derivation"]), check_derivation_n,
                       print_term(church_term(n)))]
        else:
            checks = [(derivation_from_json(rec["source"]), check_derivation_v,
                       print_term(church_term(n))),
                      (derivation_from_json(rec["image"]), check_derivation_u,
                       print_term(embed_cbv(church_term(n))))]
        for d, check, subj in checks:
            if check(d) is not None or print_term(d.subject) != subj:
                errors.append(f"{req.key}: emitted derivation fails {check.__name__}")
        return errors


# ---------------------------------------------------------------------------
# sweep: the library pipeline on a seeded corpus of small terms

SWEEP_MAX_SIZE = 24
SWEEP_TERMS = 1600         # bang terms in the corpus, and as many lambda terms
SWEEP_FUEL = 50
SWEEP_GRAPH_SIZE = 8       # terms up to this size are checked against the graph
# Some divergent, growing lambda terms overflow the interpreter stack
# before fuel DEEP_FUEL runs out, as this one does under CBV.  Each run
# sends it, and every lambda term of the corpus whose CBN or CBV
# normalization runs out of SWEEP_FUEL, once more, untimed, to that
# normalizer with DEEP_FUEL; a RecursionError counts as a failed request.
DEEP_FUEL = 2000
DEEP_KNOWN = ((r"(x x)[x \ f[x \ g (u v)]] (y y)[y \ \x. g (x x)]", "v"),)
DEEP_NORMALIZERS = {"n": normalize_n, "v": normalize_v}
# A lambda term on which infer_v raises IllFormed ("expansion did not
# rebuild the stated term"); each run sends it once more, untimed, through
# the whole pipeline, so that the defect counts as a failed request.
SWEEP_KNOWN_FAILURES = (
    r"(\y. x)[x \ \z. (y y)[w \ f]][y \ (w (w (\z. w)))[y \ w][w \ \x. z[w \ x][z \ x]]]",
)


class Sweep(Workload):
    """One fixed corpus, sent over and over in an order the seed shuffles.
    A run ends at the end of a pass over the corpus, so that every run
    times the same requests: the cost of random terms is heavy-tailed (one
    term in a few thousand can take as long as all the others together),
    and a corpus drawn per seed, or a run cut inside a pass, would make
    throughput depend on whether such a term is in it."""
    name = "sweep"
    round_s = 7.0

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random("sweep/corpus")
        self.requests = []
        for _ in range(SWEEP_TERMS):
            for lam, gen in ((False, rand_bang_term), (True, rand_lambda_term)):
                t = gen(rng, rng.randint(1, SWEEP_MAX_SIZE))
                self.requests.append(_sweep_request(t, lam, SWEEP_FUEL))
        self.round_size = len(self.requests)

    def golden(self) -> list[Request]:
        rng = random.Random("sweep/golden")
        out = []
        for _ in range(20):
            for lam, gen in ((False, rand_bang_term), (True, rand_lambda_term)):
                out.append(_sweep_request(gen(rng, rng.randint(1, 12)), lam, SWEEP_FUEL))
        return out

    def untimed(self) -> list[Request]:
        out = [_sweep_request(parse_term(text), True, SWEEP_FUEL)
               for text in SWEEP_KNOWN_FAILURES]
        out += [_deep_request(parse_term(text), how) for text, how in DEEP_KNOWN]
        lams = {r.key: r for r in self.requests if r.payload[1]}
        for req in lams.values():
            for how, norm in DEEP_NORMALIZERS.items():
                try:
                    norm(req.expect, SWEEP_FUEL)
                except FuelExhausted:
                    out.append(_deep_request(req.expect, how))
        return out

    def run(self, req: Request) -> Outcome:
        if req.key.startswith("deep"):
            return _run_deep(req)
        text, lam, fuel = req.payload
        parts = []
        got = {}
        try:
            t = parse_term(text)
            got["term"] = t
            cls, wcf, clash = classify_nf(t), classify_wcf_nf(t), detect_clash(t)
            parts.append(f"{sorted(cls.memberships)} {sorted(wcf.memberships)} {clash.clash_free}")
            try:
                trace = normalize_dw(t, fuel)
                got["trace"] = trace
                parts.append(dump_records(trace_records(trace)))
            except FuelExhausted:
                parts.append("fuel")
            for name, infer in (("e", infer_tight), ("u", infer_u)):
                got[name] = infer(t, fuel)
                parts.append(_result_text(name, got))
            if lam:
                for norm in (normalize_n, normalize_v):
                    try:
                        parts.append(print_term(norm(t, fuel).final))
                    except FuelExhausted:
                        parts.append("fuel")
                for name, infer, translate in (("n", infer_n, translate_n_to_u),
                                               ("v", infer_v, translate_v_to_u)):
                    d = got[name] = infer(t, fuel)
                    parts.append(_result_text(name, got))
                    if isinstance(d, Derivation):
                        got[name + "_image"] = translate(d)
                        parts.append(_result_text(name + "_image", got))
        except Exception as ex:  # an escaped exception is a failed request
            return Outcome("crash", f"{type(ex).__name__}: {ex}", got)
        return Outcome("ok", "\n".join(parts), got)

    def verify(self, req: Request, out: Outcome) -> list[str]:
        if out.status != "ok":
            return [f"{req.key}: {out.output}"]
        if req.key.startswith("deep"):
            return _deep_errors(req, out)
        got, key = out.detail, req.key
        errors = []
        if got["term"] != req.expect:
            errors.append(f"{key}: parse of the printed term differs")
        trace = got.get("trace")
        for name, d in got.items():
            if name not in _CHECKERS:
                continue
            if isinstance(d, FuelExhausted):
                # e and u normalize with the same strategy and fuel as the trace
                if trace is not None and name in ("e", "u"):
                    errors.append(f"{key}: {name} ran out of fuel on a normalizing term")
            elif isinstance(d, Untypable):
                if detect_clash(d.normal_form).clash_free:
                    errors.append(f"{key}: {name} untypable without a clash")
            else:
                errors += _reparse_errors(key, name, d, got[name + "_json"])
        if trace is not None:
            clash = not detect_clash(trace.final).clash_free
            for name in ("e", "u"):
                if isinstance(got[name], Untypable) != clash:
                    errors.append(f"{key}: {name} untypable={not clash} but clash={clash}")
            d = got["e"]
            if isinstance(d, DerivationE) and (
                    d.counters != (trace.b, trace.e, w_size(trace.final)) or not is_tight(d)):
                errors.append(f"{key}: counters {d.counters} differ from the trace")
            if req.size <= SWEEP_GRAPH_SIZE:
                try:
                    profile = trace_profile(reachable_graph(req.expect, 400))
                except StateLimitExceeded:
                    profile = None
                if profile is not None and profile != (len(trace.steps), trace.b, trace.e):
                    errors.append(f"{key}: dw trace {len(trace.steps)} steps, graph {profile}")
        return errors


def _sweep_request(t, lam: bool, fuel: int) -> Request:
    text = print_term(t)
    return Request(("lam:" if lam else "bang:") + text, term_size(t), (text, lam, fuel), t)


def _deep_request(t, how: str) -> Request:
    return Request(f"deep-{how}:{print_term(t)}", term_size(t), how, t)


def _run_deep(req: Request) -> Outcome:
    try:
        final = DEEP_NORMALIZERS[req.payload](req.expect, DEEP_FUEL).final
    except FuelExhausted:
        return Outcome("ok", "fuel")
    except Exception as ex:
        return Outcome("crash", f"{type(ex).__name__}: {ex}")
    return Outcome("ok", print_term(final), final)


def _deep_errors(req: Request, out: Outcome) -> list[str]:
    """Running out of fuel is a correct verdict; a final term must be
    normal for the strategy."""
    if out.detail is None:
        return []
    cls = classify_lambda_nf(out.detail)
    if not (cls.n_normal if req.payload == "n" else cls.v_normal):
        return [f"{req.key}: {out.output} is not normal"]
    return []


_CHECKERS = {"e": check_derivation_e, "u": check_derivation_u, "n": check_derivation_n,
             "v": check_derivation_v, "n_image": check_derivation_u,
             "v_image": check_derivation_u}


def _result_text(name: str, got: dict) -> str:
    """The answer `got[name]` as text; a derivation is written as JSON,
    kept in `got` for the check, and checked."""
    d = got[name]
    if isinstance(d, FuelExhausted):
        return "fuel"
    if isinstance(d, Untypable):
        return "untypable " + print_term(d.normal_form)
    text = got[name + "_json"] = json.dumps(derivation_to_json(d), sort_keys=True)
    violation = _CHECKERS[name](d)
    return text if violation is None else f"{text} violation {violation}"


def _reparse_errors(key: str, name: str, d, text: str) -> list[str]:
    """The emitted JSON parses back to the derivation, which passes its
    own checker."""
    check = _CHECKERS[name]
    back = derivation_from_json(json.loads(text))
    if back != d or check(back) is not None:
        return [f"{key}: {name} derivation fails {check.__name__} after a JSON round trip"]
    return []


# ---------------------------------------------------------------------------
# typecheck: cli.main typecheck on derivation JSON built during set-up

# (n, system, copies per cycle) of church derivations; each is also sent
# tampered.  A cycle has 540 requests: 512 of small corpus derivations, so
# that the median falls among them, and 8 of the heavy class (n=80 in
# systems E and U), so that p99, the tail percentile once a run has two
# cycles, falls inside it.  The small derivations are many, so that the
# median depends little on which ones a seed draws.
TYPECHECK_CHURCH = (
    (80, "e", 2), (80, "u", 2), (80, "n", 1), (80, "v", 1),
    (40, "e", 1), (40, "u", 1), (40, "n", 1), (40, "v", 1),
    (20, "e", 1), (20, "u", 1), (20, "n", 1), (20, "v", 1),
)
TYPECHECK_SMALL = 256         # corpus derivations
TYPECHECK_SMALL_COPIES = 2    # copies of each per cycle


def tamper(obj: dict, rng: random.Random | None = None) -> dict:
    """A copy whose node (the last in pre-order, or one drawn by `rng`)
    has a fresh base type: no typing rule admits it, so the checker must
    report a violation."""
    obj = json.loads(json.dumps(obj))
    nodes = []

    def walk(node):
        nodes.append(node)
        for p in node["premises"]:
            walk(p)
    walk(obj)
    node = nodes[-1] if rng is None else rng.choice(nodes)
    node["type"] = "o999"
    return obj


class Typecheck(Workload):
    name = "typecheck"
    round_s = 5.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.requests = []
        terms = {}
        for n, system, copies in TYPECHECK_CHURCH:
            if n not in terms:
                terms[n] = (church_term(n), embed_cbn(church_term(n)))
            lam, img = terms[n]
            obj = self._infer(system, lam if system in ("n", "v") else img, 100000)
            for verdict, body in ((0, obj), (1, tamper(obj))):
                key = f"church{n}/{system}/{'bad' if verdict else 'ok'}"
                self.requests.extend([self._request(key, n, system, body, verdict)] * copies)
        self.church_keys = {r.key for r in self.requests}
        rng = self.rng
        small = 0
        while small < TYPECHECK_SMALL:
            lam = small % 2 == 1
            t = (rand_lambda_term if lam else rand_bang_term)(rng, rng.randint(2, 12))
            system = rng.choice(("n", "v") if lam else ("e", "u"))
            obj = self._infer(system, t, SWEEP_FUEL)
            if obj is None:
                continue
            verdict = 1 if rng.random() < 0.25 else 0
            body = tamper(obj, rng) if verdict else obj
            key = f"small{small}/{system}:{print_term(t)}{'/bad' if verdict else ''}"
            self.requests.extend([self._request(key, 0, system, body, verdict)]
                                 * TYPECHECK_SMALL_COPIES)
            small += 1
        self.round_size = len(self.requests)

    @staticmethod
    def _infer(system, t, fuel):
        infer = {"e": infer_tight, "u": infer_u, "n": infer_n, "v": infer_v}[system]
        d = infer(t, fuel)
        if isinstance(d, (Untypable, FuelExhausted)):
            return None
        return derivation_to_json(d)

    @staticmethod
    def _request(key, n, system, obj, verdict) -> Request:
        text = json.dumps(obj, sort_keys=True)
        argv = ["typecheck", "--system", system, "--output", "machine", text]
        return Request(key, n, argv, verdict)

    def run(self, req: Request) -> Outcome:
        return run_cli(req.payload)

    def golden(self) -> list[Request]:
        return list({r.key: r for r in self.requests if r.key in self.church_keys}.values())

    def verify(self, req: Request, out: Outcome) -> list[str]:
        if out.status != "ok":
            return [f"{req.key}: {out.output}"]
        if out.detail != req.expect:
            return [f"{req.key}: exit {out.detail}, expected {req.expect}"]
        rec = json.loads(out.output.splitlines()[1])
        if rec["ok"] != (req.expect == 0):
            return [f"{req.key}: verdict {rec}"]
        return []


def make(name: str, seed: int) -> Workload:
    return {"church": Church, "sweep": Sweep, "typecheck": Typecheck}[name](seed)
