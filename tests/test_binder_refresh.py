"""Subject reduction and expansion where a binder must be refreshed.

When a substitution would capture a free variable of what it substitutes,
`subst_meta` renames the binder, and the derivation transformers must
rename it the same way.  Each case below needs such a refresh; after each
dw step the derivation's subject is exactly the reduct `step_at` gives,
binder names included, and it passes its system's checker."""

import pytest

from bangcalc.reduction import normalize_dw, step_at
from bangcalc.syntax import parse_term, print_term
from bangcalc.system_e import check_derivation_e, infer_tight, reduce_derivation_e
from bangcalc.system_u import check_derivation_u, infer_u, reduce_derivation_u

# term -> its reducts along the dw trace
CASES = {
    # s! substitutes y under the binder y (`system_u._subst_under`)
    r"(\y. x)[x \ !y]": [r"\y0. y"],
    # dB through a closure whose binder is free in the argument (`fire_spine_d`)
    r"((\x. z)[y \ !w]) y": [r"z[x \ y][y0 \ !w]", r"z[x \ y]"],
    # the refresh of y renames the inner binder y0 as well, below an
    # application or a dereliction, and below a bang: the expansion that
    # inference replays puts the inner binder back (`_rebind`)
    r"(\y. (\y0. y) x)[x \ !y]": [r"\y0. (\y1. y0) y", r"\y0. y0[y1 \ y]"],
    r"(\y. der ((\y0. y) x))[x \ !y]": [r"\y0. der((\y1. y0) y)", r"\y0. der(y0[y1 \ y])"],
    r"(\y. der (!(\y0. y x)))[x \ !y]": [r"\y0. der(!(\y1. y0 y))", r"\y0. \y1. y0 y"],
}

SYSTEMS = {
    "u": (infer_u, reduce_derivation_u, check_derivation_u),
    "e": (infer_tight, reduce_derivation_e, check_derivation_e),
}


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("text", CASES)
def test_each_step_types_the_reduct_exactly(text, system):
    infer, reduce_derivation, check = SYSTEMS[system]
    t = parse_term(text)
    d = infer(t, 100)
    assert d.subject == t and check(d) is None
    reducts = []
    for step in normalize_dw(t, 100).steps:
        t = step_at(t, step.position, step.rule)
        d = reduce_derivation(d, (step.position, step.rule))
        assert d.subject == t and check(d) is None
        reducts.append(print_term(t))
    assert reducts == CASES[text]
