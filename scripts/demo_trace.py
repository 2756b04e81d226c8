#!/usr/bin/env python3
"""Walk the running example end to end: trace, plain typing, tight typing,
and the per-step counter decrements."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bangcalc.syntax import parse_term, print_term, w_size
from bangcalc.reduction import normalize_dw
from bangcalc.system_u import infer_u, size_u, subject_reduction
from bangcalc.system_e import infer_tight

T0 = r"der(!(\x.\y.x)) !(\z.z) !((\x.x x) (\x.x x))"


def main() -> None:
    t0 = parse_term(T0)
    print(f"term      {print_term(t0)}")
    trace = normalize_dw(t0, 100)
    for i, step in enumerate(trace.steps):
        print(f"  step {i}: {step.rule.value:3} -> {print_term(step.result)}")
    print(f"counters  b={trace.b} e={trace.e} |nf|={w_size(trace.final)}")

    du = infer_u(t0, 100)
    print(f"\nplain     {du.judgement()}   size {size_u(du)}")
    sizes = [size_u(du)]
    for step in trace.steps:
        du = subject_reduction(du, (step.position, step.rule))
        sizes.append(size_u(du))
    print(f"          sizes along the trace: {sizes}")

    de = infer_tight(t0, 100)
    print(f"\ntight     {de.judgement()}")
    counters = [de.counters]
    for step in trace.steps:
        de = subject_reduction(de, (step.position, step.rule))
        counters.append(de.counters)
    print(f"          counters along the trace: {counters}")


if __name__ == "__main__":
    main()
