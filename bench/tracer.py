"""Spans and counters for the traced run, installed from outside `src/`.

`Tracer.install()` replaces functions of the bangcalc modules with
wrappers and `Tracer.uninstall()` puts the originals back.  A call to a
layer's public entry point opens a span (name, start, end, parent,
request); hot recursive functions only bump a counter.  Spans are kept in
memory and written out by `write_spans` when the run ends.

A layer's self time is its spans' duration minus the time covered by
their child spans, summed per metric name.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import bangcalc
from bangcalc import (
    cbn_cbv, cli, qtypes, reduction, serialize, syntax, system_e, system_u,
)

MODULES = (syntax, reduction, qtypes, system_u, system_e, cbn_cbv, serialize, cli)

# (module, function, metric, wrapped inside its own module too).  A
# function whose own module calls it recursively or from a hot inner loop
# is wrapped only where other modules (and the benchmark) call it, so that
# the span marks the layer boundary.
SPANS = (
    (syntax, "parse_term", "syntax.parse_s", True),
    (syntax, "print_term", "syntax.print_s", False),
    (reduction, "normalize_dw", "reduction.normalize_s", True),
    (reduction, "classify_nf", "reduction.classify_s", False),
    (reduction, "classify_wcf_nf", "reduction.classify_s", False),
    (reduction, "detect_clash", "reduction.classify_s", False),
    (system_u, "type_normal_form_u", "system_u.nf_typing_s", True),
    (system_u, "replay_expansion_u", "system_u.replay_s", True),
    (system_u, "check_derivation_u", "system_u.check_s", True),
    (system_e, "type_normal_form_tight", "system_e.nf_typing_s", True),
    (system_e, "replay_expansion_e", "system_e.replay_s", True),
    (system_e, "check_derivation_e", "system_e.check_s", True),
    (cbn_cbv, "embed_cbn", "cbn_cbv.embed_s", True),
    (cbn_cbv, "embed_cbv", "cbn_cbv.embed_s", True),
    (cbn_cbv, "normalize_n", "cbn_cbv.normalize_s", True),
    (cbn_cbv, "normalize_v", "cbn_cbv.normalize_s", True),
    (cbn_cbv, "translate_n_to_u", "cbn_cbv.translate_s", False),
    (cbn_cbv, "translate_v_to_u", "cbn_cbv.translate_s", False),
    (cbn_cbv, "translate_u_to_n", "cbn_cbv.translate_s", True),
    (cbn_cbv, "translate_u_to_v", "cbn_cbv.translate_s", True),
    (cbn_cbv, "check_derivation_n", "cbn_cbv.check_s", True),
    (cbn_cbv, "check_derivation_v", "cbn_cbv.check_s", True),
    (serialize, "derivation_to_json", "serialize.to_json_s", False),
    (serialize, "trace_records", "serialize.to_json_s", True),
    (serialize, "dump_records", "serialize.to_json_s", True),
    (serialize, "classification_json", "serialize.to_json_s", True),
    (serialize, "derivation_from_json", "serialize.from_json_s", False),
    (cli, "main", "cli.self_s", True),
)

# Hot functions that get a call counter and no span.
COUNTERS = (
    (syntax, "free_vars", "syntax.free_vars.calls"),
    (syntax, "subst_meta", "syntax.subst_meta.calls"),
    (reduction, "step_dw", "reduction.step_dw.calls"),
    (qtypes, "sort_key", "qtypes.sort_key.calls"),
    (qtypes, "ctx_union", "qtypes.ctx_union.calls"),
    (system_u, "size_u", "system_u.size_u.calls"),
)

SPAN_METRICS = tuple(dict.fromkeys(m for _, _, m, _ in SPANS))
COUNT_METRICS = tuple(m for _, _, m in COUNTERS) + (
    "syntax.fresh_name.renames", "reduction.steps_db", "reduction.steps_sbang",
    "reduction.steps_dbang", "system_u.nodes", "system_e.nodes",
)

_STEP_METRIC = {
    reduction.RuleKind.DB: "reduction.steps_db",
    reduction.RuleKind.SBANG: "reduction.steps_sbang",
    reduction.RuleKind.DBANG: "reduction.steps_dbang",
}


class Tracer:
    """Records spans and counters while installed.

    `namespaces` are the caller's modules whose imported bangcalc names
    are wrapped too.  With `counters=False` only spans are recorded,
    which keeps the call depth of recursive functions unchanged."""

    def __init__(self, namespaces=(), counters: bool = True):
        self.namespaces = tuple(namespaces)
        self.counters_on = counters
        self.spans: list[tuple] = []      # (id, parent, name, start, end, request)
        self.self_s: Counter = Counter()  # metric -> seconds
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[list] = []      # [id, metric, child seconds]
        self._next_id = 0
        self._saved: list[tuple] = []     # (namespace or dict, key, original)
        self._classes: list[tuple] = []   # (class, original __init__)

    # -- spans ---------------------------------------------------------

    def span(self, metric: str, fn, *args, **kwargs):
        stack = self._stack
        if stack and stack[-1][1] == metric:
            return fn(*args, **kwargs)  # recursive entry: one span only
        self._next_id += 1
        entry = [self._next_id, metric, 0.0]
        parent = stack[-1][0] if stack else 0
        stack.append(entry)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.self_s[metric] += dur - entry[2]
            if stack:
                stack[-1][2] += dur
            self.spans.append((entry[0], parent, metric, start, end, self.request))

    def _span_wrapper(self, metric: str, fn):
        span = self.span

        def wrapper(*args, **kwargs):
            return span(metric, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, metric: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _normalize_wrapper(self, fn):
        """Counts the steps of every dw trace by rule, complete or not."""
        counts = self.counts

        def count(trace):
            for step in trace.steps:
                counts[_STEP_METRIC[step.rule]] += 1

        def wrapper(t, fuel):
            try:
                trace = fn(t, fuel)
            except reduction.FuelExhausted as ex:
                count(ex.trace)
                raise
            count(trace)
            return trace
        return wrapper

    def _fresh_name_wrapper(self, fn):
        counts = self.counts

        def wrapper(base, avoid):
            name = fn(base, avoid)
            if name != base:
                counts["syntax.fresh_name.renames"] += 1
            return name
        return wrapper

    def _init_wrapper(self, metric: str, init):
        counts = self.counts

        def wrapper(obj, *args, **kwargs):
            counts[metric] += 1
            init(obj, *args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------

    def _replace(self, owner, name: str, orig, new, own_module: bool) -> None:
        """Point every module attribute bound to `orig` at `new`, and every
        value of a module-level dict (a dispatch table) that is `orig`."""
        targets = [m for m in MODULES + (bangcalc,) + self.namespaces
                   if m is not owner or own_module]
        for mod in targets:
            ns = vars(mod)
            if ns.get(name) is orig:
                self._saved.append((ns, name, orig))
                ns[name] = new
            for table in [v for v in ns.values() if type(v) is dict]:
                for key, value in table.items():
                    if value is orig:
                        self._saved.append((table, key, orig))
                        table[key] = new

    def install(self) -> None:
        if self.counters_on:
            # Counters first, so that span wrappers call through them.
            for mod, name, metric in COUNTERS:
                fn = getattr(mod, name)
                self._replace(mod, name, fn, self._count_wrapper(metric, fn), True)
            fn = syntax.fresh_name
            self._replace(syntax, "fresh_name", fn, self._fresh_name_wrapper(fn), True)
            for cls, metric in ((system_u.Derivation, "system_u.nodes"),
                                (system_e.DerivationE, "system_e.nodes")):
                self._classes.append((cls, cls.__init__))
                cls.__init__ = self._init_wrapper(metric, cls.__init__)
            fn = reduction.normalize_dw
            self._replace(reduction, "normalize_dw", fn, self._normalize_wrapper(fn), True)
        for mod, name, metric, own in SPANS:
            fn = getattr(mod, name)
            self._replace(mod, name, fn, self._span_wrapper(metric, fn), own)

    def uninstall(self) -> None:
        while self._saved:
            table, key, orig = self._saved.pop()
            table[key] = orig
        while self._classes:
            cls, init = self._classes.pop()
            cls.__init__ = init

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, req in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "request": req}))
                fh.write("\n")
