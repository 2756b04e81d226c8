"""Smoke test of the benchmark: one smallest request per workload, traced
and untraced, with every metric name checked against BENCHMARK.json.  It
sets no timing bound.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads, tracer = run.load()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _smallest_round(self):
    return [min(self.requests, key=lambda r: r.size)]


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "SCALING_NS", (10, 20))
    monkeypatch.setattr(run, "OUT", BENCH.parent / ".bench_out" / "smoke")
    monkeypatch.setattr(workloads.Sweep, "untimed", lambda self: [])
    for cls in (workloads.Church, workloads.Sweep, workloads.Typecheck):
        monkeypatch.setattr(cls, "traced_round", _smallest_round)
        monkeypatch.setattr(cls, "stream", lambda self: iter(_smallest_round(self)))
    run.OUT.parent.mkdir(exist_ok=True)


def _check(out: dict, specs: list[dict]) -> dict:
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in specs} == \
        {name: m["unit"] for name, m in metrics.items()}
    json.dumps(result, allow_nan=False)
    return metrics


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_metrics_match_spec(small, workload):
    args = SimpleNamespace(workload=workload, seed=0, seconds=0.0, trace=0)
    _check(run.run_untraced(args, workloads), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_metrics_match_spec_and_counts_repeat(small, workload):
    args = SimpleNamespace(workload=workload, seed=0, seconds=0.0, trace=1)
    first = _check(run.run_traced(args, workloads, tracer), SPEC["per_layer"])
    second = _check(run.run_traced(args, workloads, tracer), SPEC["per_layer"])
    for name, m in first.items():
        if m["unit"] in ("count", "bytes", "lines"):
            assert second[name] == m, name
