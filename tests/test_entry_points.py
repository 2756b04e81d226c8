"""The command line as a process: `python -m bangcalc`, a stdout closed
before the output is written, and SIGINT each end in a documented exit
code with no traceback."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from bangcalc.cli import EXIT_INTERRUPTED, EXIT_PIPE

SRC = str(Path(__file__).resolve().parent.parent / "src")


def spine(n):
    """The redex spine x R R ... R, n copies of R = (\\y. der y) !a."""
    return "x" + r" ((\y. der y) !a)" * n


def bangcalc(*argv, **popen):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.Popen([sys.executable, "-m", "bangcalc", *argv], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen)


def test_python_m_bangcalc_runs_the_cli():
    with bangcalc("parse", r"(\x. x) !y") as proc:
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (0, "(\\x. x) !y\n", "")


def test_a_closed_stdout_exits_quietly():
    # 200 spine redexes write about 1.4 MB of trace records, more than a
    # pipe holds, so the writer meets the closed end
    with bangcalc("trace", "--output", "machine", spine(200)) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_PIPE == 141
    assert err == ""


def test_sigint_exits_with_one_line():
    # reducing 1,500 spine redexes takes seconds, long after the start-up
    with bangcalc("reduce", spine(1500)) as proc:
        time.sleep(1.0)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_INTERRUPTED == 130
    assert (out, err) == ("", "interrupted\n")
