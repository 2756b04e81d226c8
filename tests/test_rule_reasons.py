"""The checkers' first violation for single-fault mutations of one node
per rule, built by that rule's maker.  Each mutation changes one thing at
the root: the conclusion type, one context entry, a counter (system E),
one premise's subject or type, the rule name or the node class.  The
table pins the `(path, reason)` the system's checker reports first, so a
change to how a node is checked cannot move a reason unnoticed.

To re-record after an intended change of a reason, run this file as a
script: `PYTHONPATH=src python tests/test_rule_reasons.py` prints the table.
"""

from dataclasses import replace

import pytest

from bangcalc.cbn_cbv import (
    check_derivation_n, check_derivation_v, mk_abs_n, mk_abs_v, mk_app_n, mk_app_v,
    mk_ax_n, mk_ax_v, mk_es_n, mk_es_v,
)
from bangcalc.qtypes import Arrow, BaseVar, TIGHT_ABS, TIGHT_NEUTRAL, mult
from bangcalc.syntax import Var
from bangcalc.system_e import (
    DerivationE, check_derivation_e, mk_ae_d, mk_ae_t, mk_ai_d, mk_ai_t, mk_ax_e,
    mk_bg_d, mk_bg_t, mk_dr_d, mk_dr_t, mk_es_d, mk_es_t,
)
from bangcalc.system_u import (
    RULES, Derivation, check_derivation_u, mk_abs, mk_app, mk_ax, mk_bg, mk_dr, mk_es,
)

O1, O2, O9 = BaseVar(1), BaseVar(2), BaseVar(9)
N, A = TIGHT_NEUTRAL, TIGHT_ABS


def m(*types):
    return mult(types)


def _u_fx():
    """f !x, typed with x : [o1]."""
    return mk_app(mk_ax("f", Arrow(m(O1), O2)), mk_bg(Var("x"), (mk_ax("x", O1),)))


def _e_fx():
    return mk_ae_d(mk_ax_e("f", Arrow(m(N), N)), mk_bg_d(Var("x"), (mk_ax_e("x", N),)))


def _e_xy():
    """x y, persistent, typed n with x : [n]."""
    return mk_ae_t(mk_ax_e("x", N), mk_ax_e("y", N))


def _n_fx():
    return mk_app_n(mk_ax_n("f", Arrow(m(O1), O2)), Var("x"), (mk_ax_n("x", O1),))


# system -> (checker, rule names, sample name -> node built by the makers)
SYSTEMS = {
    "u": (check_derivation_u, ("ax", "app", "abs", "bg", "dr", "es"), {
        "ax": lambda: mk_ax("x", O1),
        "app": _u_fx,
        "abs": lambda: mk_abs("x", _u_fx()),
        "bg": lambda: mk_bg(Var("y"), (mk_ax("y", O2), mk_ax("y", O1))),
        "bg nullary": lambda: mk_bg(Var("y"), ()),
        "dr": lambda: mk_dr(mk_ax("x", m(O1))),
        "es": lambda: mk_es("x", _u_fx(), mk_ax("z", m(O1))),
    }),
    "e": (check_derivation_e, ("ax", "ae_d", "ai_d", "bg_d", "dr_d", "es_d",
                               "ae_t", "ai_t", "bg_t", "dr_t", "es_t"), {
        "ax": lambda: mk_ax_e("x", N),
        "ae_d": _e_fx,
        "ai_d": lambda: mk_ai_d("x", _e_fx()),
        "bg_d": lambda: mk_bg_d(Var("y"), (mk_ax_e("y", N), mk_ax_e("y", A))),
        "bg_d nullary": lambda: mk_bg_d(Var("y"), ()),
        "dr_d": lambda: mk_dr_d(mk_ax_e("x", m(N))),
        "es_d": lambda: mk_es_d("x", _e_fx(), mk_ax_e("z", m(N))),
        "ae_t n": lambda: mk_ae_t(mk_ax_e("f", N), mk_bg_t(Var("y"))),
        "ae_t arrow": lambda: mk_ae_t(mk_ax_e("f", Arrow(m(N), A)), mk_ax_e("y", N)),
        "ae_t arrow to n": lambda: mk_ae_t(mk_ax_e("f", Arrow(m(N, N), N)), _e_xy()),
        "ai_t": lambda: mk_ai_t("x", _e_xy()),
        "bg_t": lambda: mk_bg_t(Var("y")),
        "dr_t": lambda: mk_dr_t(_e_xy()),
        "es_t": lambda: mk_es_t("x", _e_xy(), mk_ax_e("z", N)),
    }),
    "n": (check_derivation_n, ("ax_n", "abs_n", "app_n", "es_n"), {
        "ax_n": lambda: mk_ax_n("x", O1),
        "abs_n": lambda: mk_abs_n("x", _n_fx()),
        "app_n": lambda: mk_app_n(mk_ax_n("f", Arrow(m(O1, O2), O2)), Var("y"),
                                  (mk_ax_n("y", O2), mk_ax_n("y", O1))),
        "app_n nullary": lambda: mk_app_n(mk_ax_n("f", Arrow(m(), O2)), Var("y"), ()),
        "es_n": lambda: mk_es_n("x", _n_fx(), Var("z"), (mk_ax_n("z", O1),)),
    }),
    "v": (check_derivation_v, ("ax_v", "abs_v", "app_v", "es_v"), {
        "ax_v": lambda: mk_ax_v("x", m(O1)),
        "ax_v empty": lambda: mk_ax_v("x", m()),
        "abs_v": lambda: mk_abs_v("x", Var("x"), (mk_ax_v("x", m(O1)), mk_ax_v("x", m(O2)))),
        "app_v": lambda: mk_app_v(mk_ax_v("f", m(Arrow(m(O1), O2))), mk_ax_v("y", m(O1))),
        "es_v": lambda: mk_es_v("x", mk_ax_v("x", m(O1)), mk_ax_v("z", m(O1))),
    }),
}


def _with_class(d, system):
    if system == "e":
        return Derivation(d.rule, d.context, d.subject, d.type, d.premises)
    return DerivationE(d.rule, d.context, d.subject, d.type, (0, 0, 0), d.premises)


def _with_premise(d, i, **change):
    ps = list(d.premises)
    ps[i] = replace(ps[i], **change)
    return replace(d, premises=tuple(ps))


def mutations(system: str, d) -> dict:
    """Mutation name -> the node with that one fault."""
    out = {f"type {name}": replace(d, type=ty)
           for name, ty in (("o9", O9), ("n", N), ("[]", m()))}
    for x in d.context:
        for name, mset in (("[o9]", m(O9)), ("[]", m())):
            out[f"context {x}={name}"] = replace(d, context={**d.context, x: mset})
        out[f"context {x} dropped"] = replace(
            d, context={y: mset for y, mset in d.context.items() if y != x})
    out["context w=[o9] added"] = replace(d, context={**d.context, "w": m(O9)})
    if system == "e":
        for k, name in enumerate("bes"):
            counters = list(d.counters)
            counters[k] += 1
            out[f"counter {name}+1"] = replace(d, counters=tuple(counters))
    for i in range(len(d.premises)):
        out[f"premise {i} subject"] = _with_premise(d, i, subject=Var("w"))
        out[f"premise {i} type"] = _with_premise(d, i, type=O9)
    for rule in SYSTEMS[system][1] + ("bogus",):
        if rule != d.rule:
            out[f"rule {rule}"] = replace(d, rule=rule)
    out["class"] = _with_class(d, system)
    return {name: node for name, node in out.items() if node != d}


def first_violation(system: str, sample: str, mutation: str) -> str:
    check, _, samples = SYSTEMS[system]
    d = samples[sample]()
    assert check(d) is None, (system, sample)
    v = check(mutations(system, d)[mutation])
    return "ok" if v is None else f"{list(v.path)} {v.reason}"


def cases(system: str, sample: str) -> list[str]:
    return [" / ".join((system, sample, mutation))
            for mutation in mutations(system, SYSTEMS[system][2][sample]())]


SAMPLES = [(system, sample) for system, (_, _, samples) in SYSTEMS.items() for sample in samples]


REASONS = {
    "u / ax / type o9": "[] ax context must be exactly the singleton for its variable",
    "u / ax / type n": "[] tight constants do not belong to this system",
    "u / ax / type []": "[] ax context must be exactly the singleton for its variable",
    "u / ax / context x=[o9]": "[] ax context must be exactly the singleton for its variable",
    "u / ax / context x=[]": "[] context stores an empty multiset entry",
    "u / ax / context x dropped": "[] ax context must be exactly the singleton for its variable",
    "u / ax / context w=[o9] added": "[] ax context must be exactly the singleton for its variable",
    "u / ax / rule app": "[] app must type an application from two premises",
    "u / ax / rule abs": "[] abs must type an abstraction from one premise",
    "u / ax / rule bg": "[] bg must type a bang",
    "u / ax / rule dr": "[] dr must type a dereliction from one premise",
    "u / ax / rule es": "[] es must type a closure from two premises",
    "u / ax / rule bogus": "[] unknown rule 'bogus'",
    "u / ax / class": "[] system U nodes must not carry counters",
    "u / app / type o9": "[] app conclusion must be the arrow codomain",
    "u / app / type n": "[] tight constants do not belong to this system",
    "u / app / type []": "[] app conclusion must be the arrow codomain",
    "u / app / context f=[o9]": "[] app context must be the union of the premise contexts",
    "u / app / context f=[]": "[] context stores an empty multiset entry",
    "u / app / context f dropped": "[] app context must be the union of the premise contexts",
    "u / app / context x=[o9]": "[] app context must be the union of the premise contexts",
    "u / app / context x=[]": "[] context stores an empty multiset entry",
    "u / app / context x dropped": "[] app context must be the union of the premise contexts",
    "u / app / context w=[o9] added": "[] app context must be the union of the premise contexts",
    "u / app / premise 0 subject": "[] app premise subjects must be the application parts",
    "u / app / premise 0 type": "[] app function premise must have an arrow type",
    "u / app / premise 1 subject": "[] app premise subjects must be the application parts",
    "u / app / premise 1 type": "[] app argument premise must match the arrow domain",
    "u / app / rule ax": "[] ax must type a variable with no premises",
    "u / app / rule abs": "[] abs must type an abstraction from one premise",
    "u / app / rule bg": "[] bg must type a bang",
    "u / app / rule dr": "[] dr must type a dereliction from one premise",
    "u / app / rule es": "[] es must type a closure from two premises",
    "u / app / rule bogus": "[] unknown rule 'bogus'",
    "u / app / class": "[] system U nodes must not carry counters",
    "u / abs / type o9": "[] abs conclusion must move the binder multiset into the arrow",
    "u / abs / type n": "[] tight constants do not belong to this system",
    "u / abs / type []": "[] abs conclusion must move the binder multiset into the arrow",
    "u / abs / context f=[o9]": "[] abs context must drop the binder",
    "u / abs / context f=[]": "[] context stores an empty multiset entry",
    "u / abs / context f dropped": "[] abs context must drop the binder",
    "u / abs / context w=[o9] added": "[] abs context must drop the binder",
    "u / abs / premise 0 subject": "[] abs premise subject must be the body",
    "u / abs / premise 0 type": "[] abs conclusion must move the binder multiset into the arrow",
    "u / abs / rule ax": "[] ax must type a variable with no premises",
    "u / abs / rule app": "[] app must type an application from two premises",
    "u / abs / rule bg": "[] bg must type a bang",
    "u / abs / rule dr": "[] dr must type a dereliction from one premise",
    "u / abs / rule es": "[] es must type a closure from two premises",
    "u / abs / rule bogus": "[] unknown rule 'bogus'",
    "u / abs / class": "[] system U nodes must not carry counters",
    "u / bg / type o9": "[] bg conclusion must collect the premise types",
    "u / bg / type n": "[] tight constants do not belong to this system",
    "u / bg / type []": "[] bg conclusion must collect the premise types",
    "u / bg / context y=[o9]": "[] bg context must be the union of the premise contexts",
    "u / bg / context y=[]": "[] context stores an empty multiset entry",
    "u / bg / context y dropped": "[] bg context must be the union of the premise contexts",
    "u / bg / context w=[o9] added": "[] bg context must be the union of the premise contexts",
    "u / bg / premise 0 subject": "[] bg premise subjects must be the bang body",
    "u / bg / premise 0 type": "[] bg conclusion must collect the premise types",
    "u / bg / premise 1 subject": "[] bg premise subjects must be the bang body",
    "u / bg / premise 1 type": "[] bg conclusion must collect the premise types",
    "u / bg / rule ax": "[] ax must type a variable with no premises",
    "u / bg / rule app": "[] app must type an application from two premises",
    "u / bg / rule abs": "[] abs must type an abstraction from one premise",
    "u / bg / rule dr": "[] dr must type a dereliction from one premise",
    "u / bg / rule es": "[] es must type a closure from two premises",
    "u / bg / rule bogus": "[] unknown rule 'bogus'",
    "u / bg / class": "[] system U nodes must not carry counters",
    "u / bg nullary / type o9": "[] bg conclusion must collect the premise types",
    "u / bg nullary / type n": "[] tight constants do not belong to this system",
    "u / bg nullary / context w=[o9] added": "[] bg context must be the union of the premise contexts",
    "u / bg nullary / rule ax": "[] ax must type a variable with no premises",
    "u / bg nullary / rule app": "[] app must type an application from two premises",
    "u / bg nullary / rule abs": "[] abs must type an abstraction from one premise",
    "u / bg nullary / rule dr": "[] dr must type a dereliction from one premise",
    "u / bg nullary / rule es": "[] es must type a closure from two premises",
    "u / bg nullary / rule bogus": "[] unknown rule 'bogus'",
    "u / bg nullary / class": "[] system U nodes must not carry counters",
    "u / dr / type o9": "[] dr premise must be the singleton of the conclusion type",
    "u / dr / type n": "[] tight constants do not belong to this system",
    "u / dr / type []": "[] dr premise must be the singleton of the conclusion type",
    "u / dr / context x=[o9]": "[] dr must not change the context",
    "u / dr / context x=[]": "[] context stores an empty multiset entry",
    "u / dr / context x dropped": "[] dr must not change the context",
    "u / dr / context w=[o9] added": "[] dr must not change the context",
    "u / dr / premise 0 subject": "[] dr premise subject must be the body",
    "u / dr / premise 0 type": "[] dr premise must be the singleton of the conclusion type",
    "u / dr / rule ax": "[] ax must type a variable with no premises",
    "u / dr / rule app": "[] app must type an application from two premises",
    "u / dr / rule abs": "[] abs must type an abstraction from one premise",
    "u / dr / rule bg": "[] bg must type a bang",
    "u / dr / rule es": "[] es must type a closure from two premises",
    "u / dr / rule bogus": "[] unknown rule 'bogus'",
    "u / dr / class": "[] system U nodes must not carry counters",
    "u / es / type o9": "[] es conclusion must keep the body type",
    "u / es / type n": "[] tight constants do not belong to this system",
    "u / es / type []": "[] es conclusion must keep the body type",
    "u / es / context f=[o9]": "[] es context must recombine the premise contexts",
    "u / es / context f=[]": "[] context stores an empty multiset entry",
    "u / es / context f dropped": "[] es context must recombine the premise contexts",
    "u / es / context z=[o9]": "[] es context must recombine the premise contexts",
    "u / es / context z=[]": "[] context stores an empty multiset entry",
    "u / es / context z dropped": "[] es context must recombine the premise contexts",
    "u / es / context w=[o9] added": "[] es context must recombine the premise contexts",
    "u / es / premise 0 subject": "[] es premise subjects must be the closure parts",
    "u / es / premise 0 type": "[] es conclusion must keep the body type",
    "u / es / premise 1 subject": "[] es premise subjects must be the closure parts",
    "u / es / premise 1 type": "[] es argument premise must be typed with the binder multiset",
    "u / es / rule ax": "[] ax must type a variable with no premises",
    "u / es / rule app": "[] app must type an application from two premises",
    "u / es / rule abs": "[] abs must type an abstraction from one premise",
    "u / es / rule bg": "[] bg must type a bang",
    "u / es / rule dr": "[] dr must type a dereliction from one premise",
    "u / es / rule bogus": "[] unknown rule 'bogus'",
    "u / es / class": "[] system U nodes must not carry counters",
    "e / ax / type o9": "[] ax context must be exactly the singleton for its variable",
    "e / ax / type []": "[] ax context must be exactly the singleton for its variable",
    "e / ax / context x=[o9]": "[] ax context must be exactly the singleton for its variable",
    "e / ax / context x=[]": "[] context stores an empty multiset entry",
    "e / ax / context x dropped": "[] ax context must be exactly the singleton for its variable",
    "e / ax / context w=[o9] added": "[] ax context must be exactly the singleton for its variable",
    "e / ax / counter b+1": "[] ax counters must be zero",
    "e / ax / counter e+1": "[] ax counters must be zero",
    "e / ax / counter s+1": "[] ax counters must be zero",
    "e / ax / rule ae_d": "[] application rules need two premises on an application",
    "e / ax / rule ai_d": "[] abstraction rules need one premise on an abstraction",
    "e / ax / rule bg_d": "[] bg_d must type a bang",
    "e / ax / rule dr_d": "[] dereliction rules need one premise on a dereliction",
    "e / ax / rule es_d": "[] closure rules need two premises on a closure",
    "e / ax / rule ae_t": "[] application rules need two premises on an application",
    "e / ax / rule ai_t": "[] abstraction rules need one premise on an abstraction",
    "e / ax / rule bg_t": "[] bg_t must type a bang with no premises",
    "e / ax / rule dr_t": "[] dereliction rules need one premise on a dereliction",
    "e / ax / rule es_t": "[] closure rules need two premises on a closure",
    "e / ax / rule bogus": "[] unknown rule 'bogus'",
    "e / ax / class": "[] system E nodes must carry counters",
    "e / ae_d / type o9": "[] ae_d conclusion must be the arrow codomain",
    "e / ae_d / type []": "[] ae_d conclusion must be the arrow codomain",
    "e / ae_d / context f=[o9]": "[] application context must be the union of the premise contexts",
    "e / ae_d / context f=[]": "[] context stores an empty multiset entry",
    "e / ae_d / context f dropped": "[] application context must be the union of the premise contexts",
    "e / ae_d / context x=[o9]": "[] application context must be the union of the premise contexts",
    "e / ae_d / context x=[]": "[] context stores an empty multiset entry",
    "e / ae_d / context x dropped": "[] application context must be the union of the premise contexts",
    "e / ae_d / context w=[o9] added": "[] application context must be the union of the premise contexts",
    "e / ae_d / counter b+1": "[] ae_d counters must add the premise counters",
    "e / ae_d / counter e+1": "[] ae_d counters must add the premise counters",
    "e / ae_d / counter s+1": "[] ae_d counters must add the premise counters",
    "e / ae_d / premise 0 subject": "[] application premise subjects must be the parts",
    "e / ae_d / premise 0 type": "[] ae_d function premise must have an arrow type",
    "e / ae_d / premise 1 subject": "[] application premise subjects must be the parts",
    "e / ae_d / premise 1 type": "[] ae_d argument premise must match the arrow domain",
    "e / ae_d / rule ax": "[] ax must type a variable with no premises",
    "e / ae_d / rule ai_d": "[] abstraction rules need one premise on an abstraction",
    "e / ae_d / rule bg_d": "[] bg_d must type a bang",
    "e / ae_d / rule dr_d": "[] dereliction rules need one premise on a dereliction",
    "e / ae_d / rule es_d": "[] closure rules need two premises on a closure",
    "e / ae_d / rule ae_t": "[] ae_t over an arrow needs an n-typed argument",
    "e / ae_d / rule ai_t": "[] abstraction rules need one premise on an abstraction",
    "e / ae_d / rule bg_t": "[] bg_t must type a bang with no premises",
    "e / ae_d / rule dr_t": "[] dereliction rules need one premise on a dereliction",
    "e / ae_d / rule es_t": "[] closure rules need two premises on a closure",
    "e / ae_d / rule bogus": "[] unknown rule 'bogus'",
    "e / ae_d / class": "[] system E nodes must carry counters",
    "e / ai_d / type o9": "[] ai_d conclusion must move the binder multiset into the arrow",
    "e / ai_d / type n": "[] ai_d conclusion must move the binder multiset into the arrow",
    "e / ai_d / type []": "[] ai_d conclusion must move the binder multiset into the arrow",
    "e / ai_d / context f=[o9]": "[] abstraction context must drop the binder",
    "e / ai_d / context f=[]": "[] context stores an empty multiset entry",
    "e / ai_d / context f dropped": "[] abstraction context must drop the binder",
    "e / ai_d / context w=[o9] added": "[] abstraction context must drop the binder",
    "e / ai_d / counter b+1": "[] ai_d must add exactly one to the multiplicative counter",
    "e / ai_d / counter e+1": "[] ai_d must add exactly one to the multiplicative counter",
    "e / ai_d / counter s+1": "[] ai_d must add exactly one to the multiplicative counter",
    "e / ai_d / premise 0 subject": "[] abstraction premise subject must be the body",
    "e / ai_d / premise 0 type": "[] ai_d conclusion must move the binder multiset into the arrow",
    "e / ai_d / rule ax": "[] ax must type a variable with no premises",
    "e / ai_d / rule ae_d": "[] application rules need two premises on an application",
    "e / ai_d / rule bg_d": "[] bg_d must type a bang",
    "e / ai_d / rule dr_d": "[] dereliction rules need one premise on a dereliction",
    "e / ai_d / rule es_d": "[] closure rules need two premises on a closure",
    "e / ai_d / rule ae_t": "[] application rules need two premises on an application",
    "e / ai_d / rule ai_t": "[] ai_t conclusion must be a",
    "e / ai_d / rule bg_t": "[] bg_t must type a bang with no premises",
    "e / ai_d / rule dr_t": "[] dereliction rules need one premise on a dereliction",
    "e / ai_d / rule es_t": "[] closure rules need two premises on a closure",
    "e / ai_d / rule bogus": "[] unknown rule 'bogus'",
    "e / ai_d / class": "[] system E nodes must carry counters",
    "e / bg_d / type o9": "[] bg_d conclusion must collect the premise types",
    "e / bg_d / type n": "[] bg_d conclusion must collect the premise types",
    "e / bg_d / type []": "[] bg_d conclusion must collect the premise types",
    "e / bg_d / context y=[o9]": "[] bg_d context must be the union of the premise contexts",
    "e / bg_d / context y=[]": "[] context stores an empty multiset entry",
    "e / bg_d / context y dropped": "[] bg_d context must be the union of the premise contexts",
    "e / bg_d / context w=[o9] added": "[] bg_d context must be the union of the premise contexts",
    "e / bg_d / counter b+1": "[] bg_d must add exactly one to the exponential counter",
    "e / bg_d / counter e+1": "[] bg_d must add exactly one to the exponential counter",
    "e / bg_d / counter s+1": "[] bg_d must add exactly one to the exponential counter",
    "e / bg_d / premise 0 subject": "[] bg_d premise subjects must be the bang body",
    "e / bg_d / premise 0 type": "[] bg_d conclusion must collect the premise types",
    "e / bg_d / premise 1 subject": "[] bg_d premise subjects must be the bang body",
    "e / bg_d / premise 1 type": "[] bg_d conclusion must collect the premise types",
    "e / bg_d / rule ax": "[] ax must type a variable with no premises",
    "e / bg_d / rule ae_d": "[] application rules need two premises on an application",
    "e / bg_d / rule ai_d": "[] abstraction rules need one premise on an abstraction",
    "e / bg_d / rule dr_d": "[] dereliction rules need one premise on a dereliction",
    "e / bg_d / rule es_d": "[] closure rules need two premises on a closure",
    "e / bg_d / rule ae_t": "[] application rules need two premises on an application",
    "e / bg_d / rule ai_t": "[] abstraction rules need one premise on an abstraction",
    "e / bg_d / rule bg_t": "[] bg_t must type a bang with no premises",
    "e / bg_d / rule dr_t": "[] dereliction rules need one premise on a dereliction",
    "e / bg_d / rule es_t": "[] closure rules need two premises on a closure",
    "e / bg_d / rule bogus": "[] unknown rule 'bogus'",
    "e / bg_d / class": "[] system E nodes must carry counters",
    "e / bg_d nullary / type o9": "[] bg_d conclusion must collect the premise types",
    "e / bg_d nullary / type n": "[] bg_d conclusion must collect the premise types",
    "e / bg_d nullary / context w=[o9] added": "[] bg_d context must be the union of the premise contexts",
    "e / bg_d nullary / counter b+1": "[] bg_d must add exactly one to the exponential counter",
    "e / bg_d nullary / counter e+1": "[] bg_d must add exactly one to the exponential counter",
    "e / bg_d nullary / counter s+1": "[] bg_d must add exactly one to the exponential counter",
    "e / bg_d nullary / rule ax": "[] ax must type a variable with no premises",
    "e / bg_d nullary / rule ae_d": "[] application rules need two premises on an application",
    "e / bg_d nullary / rule ai_d": "[] abstraction rules need one premise on an abstraction",
    "e / bg_d nullary / rule dr_d": "[] dereliction rules need one premise on a dereliction",
    "e / bg_d nullary / rule es_d": "[] closure rules need two premises on a closure",
    "e / bg_d nullary / rule ae_t": "[] application rules need two premises on an application",
    "e / bg_d nullary / rule ai_t": "[] abstraction rules need one premise on an abstraction",
    "e / bg_d nullary / rule bg_t": "[] bg_t must conclude b with empty context and zero counters",
    "e / bg_d nullary / rule dr_t": "[] dereliction rules need one premise on a dereliction",
    "e / bg_d nullary / rule es_t": "[] closure rules need two premises on a closure",
    "e / bg_d nullary / rule bogus": "[] unknown rule 'bogus'",
    "e / bg_d nullary / class": "[] system E nodes must carry counters",
    "e / dr_d / type o9": "[] dr_d premise must be the singleton of the conclusion type",
    "e / dr_d / type []": "[] dr_d premise must be the singleton of the conclusion type",
    "e / dr_d / context x=[o9]": "[] dereliction must not change the context",
    "e / dr_d / context x=[]": "[] context stores an empty multiset entry",
    "e / dr_d / context x dropped": "[] dereliction must not change the context",
    "e / dr_d / context w=[o9] added": "[] dereliction must not change the context",
    "e / dr_d / counter b+1": "[] dr_d counters must copy the premise counters",
    "e / dr_d / counter e+1": "[] dr_d counters must copy the premise counters",
    "e / dr_d / counter s+1": "[] dr_d counters must copy the premise counters",
    "e / dr_d / premise 0 subject": "[] dereliction premise subject must be the body",
    "e / dr_d / premise 0 type": "[] dr_d premise must be the singleton of the conclusion type",
    "e / dr_d / rule ax": "[] ax must type a variable with no premises",
    "e / dr_d / rule ae_d": "[] application rules need two premises on an application",
    "e / dr_d / rule ai_d": "[] abstraction rules need one premise on an abstraction",
    "e / dr_d / rule bg_d": "[] bg_d must type a bang",
    "e / dr_d / rule es_d": "[] closure rules need two premises on a closure",
    "e / dr_d / rule ae_t": "[] application rules need two premises on an application",
    "e / dr_d / rule ai_t": "[] abstraction rules need one premise on an abstraction",
    "e / dr_d / rule bg_t": "[] bg_t must type a bang with no premises",
    "e / dr_d / rule dr_t": "[] dr_t premise and conclusion must be typed n",
    "e / dr_d / rule es_t": "[] closure rules need two premises on a closure",
    "e / dr_d / rule bogus": "[] unknown rule 'bogus'",
    "e / dr_d / class": "[] system E nodes must carry counters",
    "e / es_d / type o9": "[] closure conclusion must keep the body type",
    "e / es_d / type []": "[] closure conclusion must keep the body type",
    "e / es_d / context f=[o9]": "[] closure context must recombine the premise contexts",
    "e / es_d / context f=[]": "[] context stores an empty multiset entry",
    "e / es_d / context f dropped": "[] closure context must recombine the premise contexts",
    "e / es_d / context z=[o9]": "[] closure context must recombine the premise contexts",
    "e / es_d / context z=[]": "[] context stores an empty multiset entry",
    "e / es_d / context z dropped": "[] closure context must recombine the premise contexts",
    "e / es_d / context w=[o9] added": "[] closure context must recombine the premise contexts",
    "e / es_d / counter b+1": "[] es_d counters must add the premise counters",
    "e / es_d / counter e+1": "[] es_d counters must add the premise counters",
    "e / es_d / counter s+1": "[] es_d counters must add the premise counters",
    "e / es_d / premise 0 subject": "[] closure premise subjects must be the parts",
    "e / es_d / premise 0 type": "[] closure conclusion must keep the body type",
    "e / es_d / premise 1 subject": "[] closure premise subjects must be the parts",
    "e / es_d / premise 1 type": "[] es_d argument premise must be typed with the binder multiset",
    "e / es_d / rule ax": "[] ax must type a variable with no premises",
    "e / es_d / rule ae_d": "[] application rules need two premises on an application",
    "e / es_d / rule ai_d": "[] abstraction rules need one premise on an abstraction",
    "e / es_d / rule bg_d": "[] bg_d must type a bang",
    "e / es_d / rule dr_d": "[] dereliction rules need one premise on a dereliction",
    "e / es_d / rule ae_t": "[] application rules need two premises on an application",
    "e / es_d / rule ai_t": "[] abstraction rules need one premise on an abstraction",
    "e / es_d / rule bg_t": "[] bg_t must type a bang with no premises",
    "e / es_d / rule dr_t": "[] dereliction rules need one premise on a dereliction",
    "e / es_d / rule es_t": "[] es_t argument must be typed n",
    "e / es_d / rule bogus": "[] unknown rule 'bogus'",
    "e / es_d / class": "[] system E nodes must carry counters",
    "e / ae_t n / type o9": "[] ae_t conclusion must be n",
    "e / ae_t n / type []": "[] ae_t conclusion must be n",
    "e / ae_t n / context f=[o9]": "[] application context must be the union of the premise contexts",
    "e / ae_t n / context f=[]": "[] context stores an empty multiset entry",
    "e / ae_t n / context f dropped": "[] application context must be the union of the premise contexts",
    "e / ae_t n / context w=[o9] added": "[] application context must be the union of the premise contexts",
    "e / ae_t n / counter b+1": "[] ae_t must add exactly one to the size counter",
    "e / ae_t n / counter e+1": "[] ae_t must add exactly one to the size counter",
    "e / ae_t n / counter s+1": "[] ae_t must add exactly one to the size counter",
    "e / ae_t n / premise 0 subject": "[] application premise subjects must be the parts",
    "e / ae_t n / premise 0 type": "[] ae_t function must be typed n or with a tight-domain arrow",
    "e / ae_t n / premise 1 subject": "[] application premise subjects must be the parts",
    "e / ae_t n / premise 1 type": "[] ae_t argument must be a tight constant different from a",
    "e / ae_t n / rule ax": "[] ax must type a variable with no premises",
    "e / ae_t n / rule ae_d": "[] ae_d function premise must have an arrow type",
    "e / ae_t n / rule ai_d": "[] abstraction rules need one premise on an abstraction",
    "e / ae_t n / rule bg_d": "[] bg_d must type a bang",
    "e / ae_t n / rule dr_d": "[] dereliction rules need one premise on a dereliction",
    "e / ae_t n / rule es_d": "[] closure rules need two premises on a closure",
    "e / ae_t n / rule ai_t": "[] abstraction rules need one premise on an abstraction",
    "e / ae_t n / rule bg_t": "[] bg_t must type a bang with no premises",
    "e / ae_t n / rule dr_t": "[] dereliction rules need one premise on a dereliction",
    "e / ae_t n / rule es_t": "[] closure rules need two premises on a closure",
    "e / ae_t n / rule bogus": "[] unknown rule 'bogus'",
    "e / ae_t n / class": "[] system E nodes must carry counters",
    "e / ae_t arrow / type o9": "[] ae_t conclusion must be the arrow codomain",
    "e / ae_t arrow / type n": "[] ae_t conclusion must be the arrow codomain",
    "e / ae_t arrow / type []": "[] ae_t conclusion must be the arrow codomain",
    "e / ae_t arrow / context f=[o9]": "[] application context must be the union of the premise contexts",
    "e / ae_t arrow / context f=[]": "[] context stores an empty multiset entry",
    "e / ae_t arrow / context f dropped": "[] application context must be the union of the premise contexts",
    "e / ae_t arrow / context y=[o9]": "[] application context must be the union of the premise contexts",
    "e / ae_t arrow / context y=[]": "[] context stores an empty multiset entry",
    "e / ae_t arrow / context y dropped": "[] application context must be the union of the premise contexts",
    "e / ae_t arrow / context w=[o9] added": "[] application context must be the union of the premise contexts",
    "e / ae_t arrow / counter b+1": "[] ae_t must add exactly one to the size counter",
    "e / ae_t arrow / counter e+1": "[] ae_t must add exactly one to the size counter",
    "e / ae_t arrow / counter s+1": "[] ae_t must add exactly one to the size counter",
    "e / ae_t arrow / premise 0 subject": "[] application premise subjects must be the parts",
    "e / ae_t arrow / premise 0 type": "[] ae_t function must be typed n or with a tight-domain arrow",
    "e / ae_t arrow / premise 1 subject": "[] application premise subjects must be the parts",
    "e / ae_t arrow / premise 1 type": "[] ae_t over an arrow needs an n-typed argument",
    "e / ae_t arrow / rule ax": "[] ax must type a variable with no premises",
    "e / ae_t arrow / rule ae_d": "[] ae_d argument premise must match the arrow domain",
    "e / ae_t arrow / rule ai_d": "[] abstraction rules need one premise on an abstraction",
    "e / ae_t arrow / rule bg_d": "[] bg_d must type a bang",
    "e / ae_t arrow / rule dr_d": "[] dereliction rules need one premise on a dereliction",
    "e / ae_t arrow / rule es_d": "[] closure rules need two premises on a closure",
    "e / ae_t arrow / rule ai_t": "[] abstraction rules need one premise on an abstraction",
    "e / ae_t arrow / rule bg_t": "[] bg_t must type a bang with no premises",
    "e / ae_t arrow / rule dr_t": "[] dereliction rules need one premise on a dereliction",
    "e / ae_t arrow / rule es_t": "[] closure rules need two premises on a closure",
    "e / ae_t arrow / rule bogus": "[] unknown rule 'bogus'",
    "e / ae_t arrow / class": "[] system E nodes must carry counters",
    "e / ae_t arrow to n / type o9": "[] ae_t conclusion must be the arrow codomain",
    "e / ae_t arrow to n / type []": "[] ae_t conclusion must be the arrow codomain",
    "e / ae_t arrow to n / context f=[o9]": "[] application context must be the union of the premise contexts",
    "e / ae_t arrow to n / context f=[]": "[] context stores an empty multiset entry",
    "e / ae_t arrow to n / context f dropped": "[] application context must be the union of the premise contexts",
    "e / ae_t arrow to n / context x=[o9]": "[] application context must be the union of the premise contexts",
    "e / ae_t arrow to n / context x=[]": "[] context stores an empty multiset entry",
    "e / ae_t arrow to n / context x dropped": "[] application context must be the union of the premise contexts",
    "e / ae_t arrow to n / context y=[o9]": "[] application context must be the union of the premise contexts",
    "e / ae_t arrow to n / context y=[]": "[] context stores an empty multiset entry",
    "e / ae_t arrow to n / context y dropped": "[] application context must be the union of the premise contexts",
    "e / ae_t arrow to n / context w=[o9] added": "[] application context must be the union of the premise contexts",
    "e / ae_t arrow to n / counter b+1": "[] ae_t must add exactly one to the size counter",
    "e / ae_t arrow to n / counter e+1": "[] ae_t must add exactly one to the size counter",
    "e / ae_t arrow to n / counter s+1": "[] ae_t must add exactly one to the size counter",
    "e / ae_t arrow to n / premise 0 subject": "[] application premise subjects must be the parts",
    "e / ae_t arrow to n / premise 0 type": "[] ae_t function must be typed n or with a tight-domain arrow",
    "e / ae_t arrow to n / premise 1 subject": "[] application premise subjects must be the parts",
    "e / ae_t arrow to n / premise 1 type": "[] ae_t over an arrow needs an n-typed argument",
    "e / ae_t arrow to n / rule ax": "[] ax must type a variable with no premises",
    "e / ae_t arrow to n / rule ae_d": "[] ae_d argument premise must match the arrow domain",
    "e / ae_t arrow to n / rule ai_d": "[] abstraction rules need one premise on an abstraction",
    "e / ae_t arrow to n / rule bg_d": "[] bg_d must type a bang",
    "e / ae_t arrow to n / rule dr_d": "[] dereliction rules need one premise on a dereliction",
    "e / ae_t arrow to n / rule es_d": "[] closure rules need two premises on a closure",
    "e / ae_t arrow to n / rule ai_t": "[] abstraction rules need one premise on an abstraction",
    "e / ae_t arrow to n / rule bg_t": "[] bg_t must type a bang with no premises",
    "e / ae_t arrow to n / rule dr_t": "[] dereliction rules need one premise on a dereliction",
    "e / ae_t arrow to n / rule es_t": "[] closure rules need two premises on a closure",
    "e / ae_t arrow to n / rule bogus": "[] unknown rule 'bogus'",
    "e / ae_t arrow to n / class": "[] system E nodes must carry counters",
    "e / ai_t / type o9": "[] ai_t conclusion must be a",
    "e / ai_t / type n": "[] ai_t conclusion must be a",
    "e / ai_t / type []": "[] ai_t conclusion must be a",
    "e / ai_t / context y=[o9]": "[] abstraction context must drop the binder",
    "e / ai_t / context y=[]": "[] context stores an empty multiset entry",
    "e / ai_t / context y dropped": "[] abstraction context must drop the binder",
    "e / ai_t / context w=[o9] added": "[] abstraction context must drop the binder",
    "e / ai_t / counter b+1": "[] ai_t must add exactly one to the size counter",
    "e / ai_t / counter e+1": "[] ai_t must add exactly one to the size counter",
    "e / ai_t / counter s+1": "[] ai_t must add exactly one to the size counter",
    "e / ai_t / premise 0 subject": "[] abstraction premise subject must be the body",
    "e / ai_t / premise 0 type": "[] ai_t body must have a tight constant type",
    "e / ai_t / rule ax": "[] ax must type a variable with no premises",
    "e / ai_t / rule ae_d": "[] application rules need two premises on an application",
    "e / ai_t / rule ai_d": "[] ai_d conclusion must move the binder multiset into the arrow",
    "e / ai_t / rule bg_d": "[] bg_d must type a bang",
    "e / ai_t / rule dr_d": "[] dereliction rules need one premise on a dereliction",
    "e / ai_t / rule es_d": "[] closure rules need two premises on a closure",
    "e / ai_t / rule ae_t": "[] application rules need two premises on an application",
    "e / ai_t / rule bg_t": "[] bg_t must type a bang with no premises",
    "e / ai_t / rule dr_t": "[] dereliction rules need one premise on a dereliction",
    "e / ai_t / rule es_t": "[] closure rules need two premises on a closure",
    "e / ai_t / rule bogus": "[] unknown rule 'bogus'",
    "e / ai_t / class": "[] system E nodes must carry counters",
    "e / bg_t / type o9": "[] bg_t must conclude b with empty context and zero counters",
    "e / bg_t / type n": "[] bg_t must conclude b with empty context and zero counters",
    "e / bg_t / type []": "[] bg_t must conclude b with empty context and zero counters",
    "e / bg_t / context w=[o9] added": "[] bg_t must conclude b with empty context and zero counters",
    "e / bg_t / counter b+1": "[] bg_t must conclude b with empty context and zero counters",
    "e / bg_t / counter e+1": "[] bg_t must conclude b with empty context and zero counters",
    "e / bg_t / counter s+1": "[] bg_t must conclude b with empty context and zero counters",
    "e / bg_t / rule ax": "[] ax must type a variable with no premises",
    "e / bg_t / rule ae_d": "[] application rules need two premises on an application",
    "e / bg_t / rule ai_d": "[] abstraction rules need one premise on an abstraction",
    "e / bg_t / rule bg_d": "[] bg_d conclusion must collect the premise types",
    "e / bg_t / rule dr_d": "[] dereliction rules need one premise on a dereliction",
    "e / bg_t / rule es_d": "[] closure rules need two premises on a closure",
    "e / bg_t / rule ae_t": "[] application rules need two premises on an application",
    "e / bg_t / rule ai_t": "[] abstraction rules need one premise on an abstraction",
    "e / bg_t / rule dr_t": "[] dereliction rules need one premise on a dereliction",
    "e / bg_t / rule es_t": "[] closure rules need two premises on a closure",
    "e / bg_t / rule bogus": "[] unknown rule 'bogus'",
    "e / bg_t / class": "[] system E nodes must carry counters",
    "e / dr_t / type o9": "[] dr_t premise and conclusion must be typed n",
    "e / dr_t / type []": "[] dr_t premise and conclusion must be typed n",
    "e / dr_t / context x=[o9]": "[] dereliction must not change the context",
    "e / dr_t / context x=[]": "[] context stores an empty multiset entry",
    "e / dr_t / context x dropped": "[] dereliction must not change the context",
    "e / dr_t / context y=[o9]": "[] dereliction must not change the context",
    "e / dr_t / context y=[]": "[] context stores an empty multiset entry",
    "e / dr_t / context y dropped": "[] dereliction must not change the context",
    "e / dr_t / context w=[o9] added": "[] dereliction must not change the context",
    "e / dr_t / counter b+1": "[] dr_t must add exactly one to the size counter",
    "e / dr_t / counter e+1": "[] dr_t must add exactly one to the size counter",
    "e / dr_t / counter s+1": "[] dr_t must add exactly one to the size counter",
    "e / dr_t / premise 0 subject": "[] dereliction premise subject must be the body",
    "e / dr_t / premise 0 type": "[] dr_t premise and conclusion must be typed n",
    "e / dr_t / rule ax": "[] ax must type a variable with no premises",
    "e / dr_t / rule ae_d": "[] application rules need two premises on an application",
    "e / dr_t / rule ai_d": "[] abstraction rules need one premise on an abstraction",
    "e / dr_t / rule bg_d": "[] bg_d must type a bang",
    "e / dr_t / rule dr_d": "[] dr_d premise must be the singleton of the conclusion type",
    "e / dr_t / rule es_d": "[] closure rules need two premises on a closure",
    "e / dr_t / rule ae_t": "[] application rules need two premises on an application",
    "e / dr_t / rule ai_t": "[] abstraction rules need one premise on an abstraction",
    "e / dr_t / rule bg_t": "[] bg_t must type a bang with no premises",
    "e / dr_t / rule es_t": "[] closure rules need two premises on a closure",
    "e / dr_t / rule bogus": "[] unknown rule 'bogus'",
    "e / dr_t / class": "[] system E nodes must carry counters",
    "e / es_t / type o9": "[] closure conclusion must keep the body type",
    "e / es_t / type []": "[] closure conclusion must keep the body type",
    "e / es_t / context y=[o9]": "[] closure context must recombine the premise contexts",
    "e / es_t / context y=[]": "[] context stores an empty multiset entry",
    "e / es_t / context y dropped": "[] closure context must recombine the premise contexts",
    "e / es_t / context z=[o9]": "[] closure context must recombine the premise contexts",
    "e / es_t / context z=[]": "[] context stores an empty multiset entry",
    "e / es_t / context z dropped": "[] closure context must recombine the premise contexts",
    "e / es_t / context w=[o9] added": "[] closure context must recombine the premise contexts",
    "e / es_t / counter b+1": "[] es_t must add exactly one to the size counter",
    "e / es_t / counter e+1": "[] es_t must add exactly one to the size counter",
    "e / es_t / counter s+1": "[] es_t must add exactly one to the size counter",
    "e / es_t / premise 0 subject": "[] closure premise subjects must be the parts",
    "e / es_t / premise 0 type": "[] closure conclusion must keep the body type",
    "e / es_t / premise 1 subject": "[] closure premise subjects must be the parts",
    "e / es_t / premise 1 type": "[] es_t argument must be typed n",
    "e / es_t / rule ax": "[] ax must type a variable with no premises",
    "e / es_t / rule ae_d": "[] application rules need two premises on an application",
    "e / es_t / rule ai_d": "[] abstraction rules need one premise on an abstraction",
    "e / es_t / rule bg_d": "[] bg_d must type a bang",
    "e / es_t / rule dr_d": "[] dereliction rules need one premise on a dereliction",
    "e / es_t / rule es_d": "[] es_d argument premise must be typed with the binder multiset",
    "e / es_t / rule ae_t": "[] application rules need two premises on an application",
    "e / es_t / rule ai_t": "[] abstraction rules need one premise on an abstraction",
    "e / es_t / rule bg_t": "[] bg_t must type a bang with no premises",
    "e / es_t / rule dr_t": "[] dereliction rules need one premise on a dereliction",
    "e / es_t / rule bogus": "[] unknown rule 'bogus'",
    "e / es_t / class": "[] system E nodes must carry counters",
    "n / ax_n / type o9": "[] ax_n context must be exactly the singleton for its variable",
    "n / ax_n / type n": "[] tight constants do not belong to this system",
    "n / ax_n / type []": "[] ax_n context must be exactly the singleton for its variable",
    "n / ax_n / context x=[o9]": "[] ax_n context must be exactly the singleton for its variable",
    "n / ax_n / context x=[]": "[] context stores an empty multiset entry",
    "n / ax_n / context x dropped": "[] ax_n context must be exactly the singleton for its variable",
    "n / ax_n / context w=[o9] added": "[] ax_n context must be exactly the singleton for its variable",
    "n / ax_n / rule abs_n": "[] abs_n must type an abstraction from one premise",
    "n / ax_n / rule app_n": "[] app_n must type an application",
    "n / ax_n / rule es_n": "[] es_n must type a closure",
    "n / ax_n / rule bogus": "[] unknown rule 'bogus'",
    "n / ax_n / class": "[] system N nodes must not carry counters",
    "n / abs_n / type o9": "[] abs_n conclusion must move the binder multiset into the arrow",
    "n / abs_n / type n": "[] tight constants do not belong to this system",
    "n / abs_n / type []": "[] abs_n conclusion must move the binder multiset into the arrow",
    "n / abs_n / context f=[o9]": "[] abs_n context must drop the binder",
    "n / abs_n / context f=[]": "[] context stores an empty multiset entry",
    "n / abs_n / context f dropped": "[] abs_n context must drop the binder",
    "n / abs_n / context w=[o9] added": "[] abs_n context must drop the binder",
    "n / abs_n / premise 0 subject": "[] abs_n premise subject must be the body",
    "n / abs_n / premise 0 type": "[] abs_n conclusion must move the binder multiset into the arrow",
    "n / abs_n / rule ax_n": "[] ax_n must type a variable with no premises",
    "n / abs_n / rule app_n": "[] app_n must type an application",
    "n / abs_n / rule es_n": "[] es_n must type a closure",
    "n / abs_n / rule bogus": "[] unknown rule 'bogus'",
    "n / abs_n / class": "[] system N nodes must not carry counters",
    "n / app_n / type o9": "[] app_n conclusion must be the arrow codomain",
    "n / app_n / type n": "[] tight constants do not belong to this system",
    "n / app_n / type []": "[] app_n conclusion must be the arrow codomain",
    "n / app_n / context f=[o9]": "[] app_n context must be the union of the premise contexts",
    "n / app_n / context f=[]": "[] context stores an empty multiset entry",
    "n / app_n / context f dropped": "[] app_n context must be the union of the premise contexts",
    "n / app_n / context y=[o9]": "[] app_n context must be the union of the premise contexts",
    "n / app_n / context y=[]": "[] context stores an empty multiset entry",
    "n / app_n / context y dropped": "[] app_n context must be the union of the premise contexts",
    "n / app_n / context w=[o9] added": "[] app_n context must be the union of the premise contexts",
    "n / app_n / premise 0 subject": "[] app_n head premise must type the function",
    "n / app_n / premise 0 type": "[] app_n function premise must have an arrow type",
    "n / app_n / premise 1 subject": "[] app_n argument premises must type the argument",
    "n / app_n / premise 1 type": "[] app_n argument premises must realize the arrow domain",
    "n / app_n / premise 2 subject": "[] app_n argument premises must type the argument",
    "n / app_n / premise 2 type": "[] app_n argument premises must realize the arrow domain",
    "n / app_n / rule ax_n": "[] ax_n must type a variable with no premises",
    "n / app_n / rule abs_n": "[] abs_n must type an abstraction from one premise",
    "n / app_n / rule es_n": "[] es_n must type a closure",
    "n / app_n / rule bogus": "[] unknown rule 'bogus'",
    "n / app_n / class": "[] system N nodes must not carry counters",
    "n / app_n nullary / type o9": "[] app_n conclusion must be the arrow codomain",
    "n / app_n nullary / type n": "[] tight constants do not belong to this system",
    "n / app_n nullary / type []": "[] app_n conclusion must be the arrow codomain",
    "n / app_n nullary / context f=[o9]": "[] app_n context must be the union of the premise contexts",
    "n / app_n nullary / context f=[]": "[] context stores an empty multiset entry",
    "n / app_n nullary / context f dropped": "[] app_n context must be the union of the premise contexts",
    "n / app_n nullary / context w=[o9] added": "[] app_n context must be the union of the premise contexts",
    "n / app_n nullary / premise 0 subject": "[] app_n head premise must type the function",
    "n / app_n nullary / premise 0 type": "[] app_n function premise must have an arrow type",
    "n / app_n nullary / rule ax_n": "[] ax_n must type a variable with no premises",
    "n / app_n nullary / rule abs_n": "[] abs_n must type an abstraction from one premise",
    "n / app_n nullary / rule es_n": "[] es_n must type a closure",
    "n / app_n nullary / rule bogus": "[] unknown rule 'bogus'",
    "n / app_n nullary / class": "[] system N nodes must not carry counters",
    "n / es_n / type o9": "[] es_n conclusion must keep the body type",
    "n / es_n / type n": "[] tight constants do not belong to this system",
    "n / es_n / type []": "[] es_n conclusion must keep the body type",
    "n / es_n / context f=[o9]": "[] es_n context must recombine the premise contexts",
    "n / es_n / context f=[]": "[] context stores an empty multiset entry",
    "n / es_n / context f dropped": "[] es_n context must recombine the premise contexts",
    "n / es_n / context z=[o9]": "[] es_n context must recombine the premise contexts",
    "n / es_n / context z=[]": "[] context stores an empty multiset entry",
    "n / es_n / context z dropped": "[] es_n context must recombine the premise contexts",
    "n / es_n / context w=[o9] added": "[] es_n context must recombine the premise contexts",
    "n / es_n / premise 0 subject": "[] es_n head premise must type the body",
    "n / es_n / premise 0 type": "[] es_n conclusion must keep the body type",
    "n / es_n / premise 1 subject": "[] es_n argument premises must type the argument",
    "n / es_n / premise 1 type": "[] es_n argument premises must realize the multiset of the bound name",
    "n / es_n / rule ax_n": "[] ax_n must type a variable with no premises",
    "n / es_n / rule abs_n": "[] abs_n must type an abstraction from one premise",
    "n / es_n / rule app_n": "[] app_n must type an application",
    "n / es_n / rule bogus": "[] unknown rule 'bogus'",
    "n / es_n / class": "[] system N nodes must not carry counters",
    "v / ax_v / type o9": "[] ax_v must conclude a multiset type",
    "v / ax_v / type n": "[] tight constants do not belong to this system",
    "v / ax_v / type []": "[] ax_v context must assign the concluded multiset to its variable",
    "v / ax_v / context x=[o9]": "[] ax_v context must assign the concluded multiset to its variable",
    "v / ax_v / context x=[]": "[] context stores an empty multiset entry",
    "v / ax_v / context x dropped": "[] ax_v context must assign the concluded multiset to its variable",
    "v / ax_v / context w=[o9] added": "[] ax_v context must assign the concluded multiset to its variable",
    "v / ax_v / rule abs_v": "[] abs_v must type an abstraction",
    "v / ax_v / rule app_v": "[] app_v must type an application from two premises",
    "v / ax_v / rule es_v": "[] es_v must type a closure from two premises",
    "v / ax_v / rule bogus": "[] unknown rule 'bogus'",
    "v / ax_v / class": "[] system V nodes must not carry counters",
    "v / ax_v empty / type o9": "[] ax_v must conclude a multiset type",
    "v / ax_v empty / type n": "[] tight constants do not belong to this system",
    "v / ax_v empty / context w=[o9] added": "[] ax_v context must assign the concluded multiset to its variable",
    "v / ax_v empty / rule abs_v": "[] abs_v must type an abstraction",
    "v / ax_v empty / rule app_v": "[] app_v must type an application from two premises",
    "v / ax_v empty / rule es_v": "[] es_v must type a closure from two premises",
    "v / ax_v empty / rule bogus": "[] unknown rule 'bogus'",
    "v / ax_v empty / class": "[] system V nodes must not carry counters",
    "v / abs_v / type o9": "[] abs_v conclusion must collect the premise arrows",
    "v / abs_v / type n": "[] tight constants do not belong to this system",
    "v / abs_v / type []": "[] abs_v conclusion must collect the premise arrows",
    "v / abs_v / context w=[o9] added": "[] abs_v context must drop the binder from every premise",
    "v / abs_v / premise 0 subject": "[] abs_v premises must type the body",
    "v / abs_v / premise 0 type": "[] abs_v conclusion must collect the premise arrows",
    "v / abs_v / premise 1 subject": "[] abs_v premises must type the body",
    "v / abs_v / premise 1 type": "[] abs_v conclusion must collect the premise arrows",
    "v / abs_v / rule ax_v": "[] ax_v must type a variable with no premises",
    "v / abs_v / rule app_v": "[] app_v must type an application from two premises",
    "v / abs_v / rule es_v": "[] es_v must type a closure from two premises",
    "v / abs_v / rule bogus": "[] unknown rule 'bogus'",
    "v / abs_v / class": "[] system V nodes must not carry counters",
    "v / app_v / type o9": "[] app_v conclusion must be the arrow codomain",
    "v / app_v / type n": "[] tight constants do not belong to this system",
    "v / app_v / type []": "[] app_v conclusion must be the arrow codomain",
    "v / app_v / context f=[o9]": "[] app_v context must be the union of the premise contexts",
    "v / app_v / context f=[]": "[] context stores an empty multiset entry",
    "v / app_v / context f dropped": "[] app_v context must be the union of the premise contexts",
    "v / app_v / context y=[o9]": "[] app_v context must be the union of the premise contexts",
    "v / app_v / context y=[]": "[] context stores an empty multiset entry",
    "v / app_v / context y dropped": "[] app_v context must be the union of the premise contexts",
    "v / app_v / context w=[o9] added": "[] app_v context must be the union of the premise contexts",
    "v / app_v / premise 0 subject": "[] app_v premise subjects must be the application parts",
    "v / app_v / premise 0 type": "[] app_v function premise must be a singleton arrow multiset",
    "v / app_v / premise 1 subject": "[] app_v premise subjects must be the application parts",
    "v / app_v / premise 1 type": "[] app_v argument premise must match the arrow domain",
    "v / app_v / rule ax_v": "[] ax_v must type a variable with no premises",
    "v / app_v / rule abs_v": "[] abs_v must type an abstraction",
    "v / app_v / rule es_v": "[] es_v must type a closure from two premises",
    "v / app_v / rule bogus": "[] unknown rule 'bogus'",
    "v / app_v / class": "[] system V nodes must not carry counters",
    "v / es_v / type o9": "[] es_v conclusion must keep the body type",
    "v / es_v / type n": "[] tight constants do not belong to this system",
    "v / es_v / type []": "[] es_v conclusion must keep the body type",
    "v / es_v / context z=[o9]": "[] es_v context must recombine the premise contexts",
    "v / es_v / context z=[]": "[] context stores an empty multiset entry",
    "v / es_v / context z dropped": "[] es_v context must recombine the premise contexts",
    "v / es_v / context w=[o9] added": "[] es_v context must recombine the premise contexts",
    "v / es_v / premise 0 subject": "[] es_v premise subjects must be the closure parts",
    "v / es_v / premise 0 type": "[] es_v conclusion must keep the body type",
    "v / es_v / premise 1 subject": "[] es_v premise subjects must be the closure parts",
    "v / es_v / premise 1 type": "[] es_v argument premise must be typed with the binder multiset",
    "v / es_v / rule ax_v": "[] ax_v must type a variable with no premises",
    "v / es_v / rule abs_v": "[] abs_v must type an abstraction",
    "v / es_v / rule app_v": "[] app_v must type an application from two premises",
    "v / es_v / rule bogus": "[] unknown rule 'bogus'",
    "v / es_v / class": "[] system V nodes must not carry counters",
}


def test_every_rule_has_a_sample():
    for system, (_, rules, samples) in SYSTEMS.items():
        assert {s.split()[0] for s in samples} == set(rules), system


def test_the_table_covers_every_case():
    assert sorted(REASONS) == sorted(c for s in SAMPLES for c in cases(*s))


@pytest.mark.parametrize("system, sample", SAMPLES)
def test_first_violations(system, sample):
    got = {c: first_violation(*c.split(" / ")) for c in cases(system, sample)}
    assert got == {c: REASONS.get(c) for c in got}


# A variadic rule's further premises must all type one part of the subject.
# That is checked before any side condition on the premises' types, so a
# further premise that types another term is reported first even when a
# premise also has a wrong type: an app_n node whose head is not typed by
# an arrow, or an es_n node whose argument's type is not the binder's
# multiset, say.
TAIL_SUBJECTS = {
    "bg": "bg premise subjects must be the bang body",
    "bg_d": "bg_d premise subjects must be the bang body",
    "app_n": "app_n argument premises must type the argument",
    "es_n": "es_n argument premises must type the argument",
    "abs_v": "abs_v premises must type the body",
}


def _tail(system, sample):
    d = SYSTEMS[system][2][sample]()
    return d.premises[RULES[system][d.rule].fixed:]


TAILED = [s for s in SAMPLES if _tail(*s)]


def test_every_variadic_rule_is_in_the_tail_table():
    # bg_t takes no premises at all
    assert {tag for rules in RULES.values() for tag, rule in rules.items()
            if rule.rest} == set(TAIL_SUBJECTS) | {"bg_t"}
    assert {SYSTEMS[s][2][sample]().rule for s, sample in TAILED} == set(TAIL_SUBJECTS)


@pytest.mark.parametrize("system, sample", TAILED)
def test_a_wrong_tail_subject_comes_before_a_wrong_premise_type(system, sample):
    check, _, samples = SYSTEMS[system]
    d = samples[sample]()
    for i in range(RULES[system][d.rule].fixed, len(d.premises)):
        for j in range(len(d.premises)):
            bad = _with_premise(_with_premise(d, i, subject=Var("w")), j, type=O9)
            v = check(bad)
            assert (v.path, v.reason) == ((), TAIL_SUBJECTS[d.rule]), (i, j)



if __name__ == "__main__":
    for s in SAMPLES:
        for c in cases(*s):
            print(f'    "{c}": "{first_violation(*c.split(" / "))}",')
