"""The cyclic collector: `cli.main` pauses it while a command runs, and the
engine builds no reference cycles, which is what makes the pause safe."""

import contextlib
import gc
import io
import json

import pytest

from bangcalc import cli
from bangcalc.cbn_cbv import (
    check_derivation_n, check_derivation_v, embed_cbn, infer_n, infer_v, normalize_n, normalize_v,
    translate_n_to_u, translate_v_to_u,
)
from bangcalc.reduction import normalize_dw
from bangcalc.serialize import derivation_from_json, derivation_to_json, dump_records, \
    record_text, trace_records
from bangcalc.syntax import parse_term, print_term
from bangcalc.system_e import check_derivation_e, infer_tight
from bangcalc.system_u import check_derivation_u, infer_u

from conftest import church_term

T0 = r"der(!(\x.\y.x)) !(\z.z) !((\x.x x) (\x.x x))"
AXIOM = {"rule": "ax", "context": {"x": "[o0]"}, "term": "x", "type": "o0"}


@contextlib.contextmanager
def _collector(enabled):
    """The collector enabled or disabled for the block, as it was after."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, code", [
    (["infer", T0], 0),
    (["typecheck", "--system", "u", json.dumps(AXIOM | {"type": "o1"})], 1),
    (["parse", "((x"], 2),
    (["trace", "x", "--seed", "5"], 2),
    (["reduce", "--fuel", "20", r"(\x. x !x) !(\x. x !x)"], 3),
    (["infer", r"der((\y.\x.z) (der(y) y))"], 4),
    (["selftest"], 5),
], ids=["ok", "violation", "parse-error", "usage-error", "fuel", "untypable", "internal"])
def test_main_leaves_the_collector_as_it_found_it(monkeypatch, argv, code, enabled):
    collecting = []  # as the failing command found the collector

    def failing_command(args):
        collecting.append(gc.isenabled())
        raise RuntimeError("a command that fails")
    monkeypatch.setattr(cli, "cmd_selftest", failing_command)
    with _collector(enabled), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == code
        assert gc.isenabled() is enabled
    assert collecting == ([False] if code == 5 else [])


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("error, code", [(BrokenPipeError, 141), (KeyboardInterrupt, 130)],
                         ids=["closed-stdout", "interrupted"])
def test_main_leaves_the_collector_as_it_found_it_when_stopped(
        monkeypatch, tmp_path, error, code, enabled):
    def stopped_command(args):
        raise error()
    monkeypatch.setattr(cli, "cmd_selftest", stopped_command)
    # a closed stdout is pointed at devnull, which needs a file descriptor
    with _collector(enabled), open(tmp_path / "out", "w") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["selftest"]) == code
        assert gc.isenabled() is enabled


def _command_work(bang, lam):
    """Everything the term and typecheck commands run, on the bang term
    `bang` and, if given, the lambda term `lam`; what it builds is dropped
    when it returns."""
    t = parse_term(bang)
    traces = [normalize_dw(t, 10_000)]
    derivations = [(infer_u(t, 10_000), check_derivation_u),
                   (infer_tight(t, 10_000), check_derivation_e)]
    if lam is not None:
        t = parse_term(lam)
        traces += [normalize_n(t, 10_000), normalize_v(t, 10_000)]
        d_n, d_v = infer_n(t, 10_000), infer_v(t, 10_000)
        derivations += [(d_n, check_derivation_n), (d_v, check_derivation_v),
                        (translate_n_to_u(d_n), check_derivation_u),
                        (translate_v_to_u(d_v), check_derivation_u)]
    for trace in traces:
        dump_records(trace_records(trace))
    for d, check in derivations:
        record_text({"record": "derivation", "derivation": d})
        assert check(derivation_from_json(derivation_to_json(d))) is None
        assert check(d) is None


@pytest.mark.parametrize("bang, lam", [
    (T0, None),
    (print_term(embed_cbn(church_term(20))), print_term(church_term(20))),
], ids=["T0", "church20"])
def test_the_engine_builds_no_reference_cycles(bang, lam):
    # Reference counting alone frees all of it, so the collector finds no
    # garbage.  Selftest is left out: its exploration closures do form small
    # cycles (reduction.trace_profile's `go`, which names itself, say),
    # which the collector frees once the command has returned.
    gc.collect()
    with _collector(False):
        _command_work(bang, lam)
        assert gc.collect() == 0
