"""The machine writer.  `serialize.derivation_text` and `record_text`
write a derivation in one pass, and are held here to the dict path they
replace, `json.dumps(derivation_to_json(d), sort_keys=True)`; the
class-dispatched `print_type` is held to its `match` form; the writer
writes derivations of any depth, and a record `json` cannot read back
raises RecursionError; and a trace that runs out of fuel prints its
partial records."""

import contextlib
import io
import json
import sys

import pytest

from bangcalc import acceptance, serialize
from bangcalc.cbn_cbv import embed_cbn, infer_n, infer_v, translate_n_to_u, translate_v_to_u
from bangcalc.cli import main
from bangcalc.qtypes import Arrow, BaseVar, Mult, Tight, parse_type, print_type
from bangcalc.reduction import FuelExhausted, normalize_dw
from bangcalc.serialize import (
    CHECKED_DEPTH, derivation_from_json, derivation_text, derivation_to_json, record_text,
    trace_records,
)
from bangcalc.syntax import Abs, Var, parse_term
from bangcalc.system_e import DerivationE, infer_tight
from bangcalc.system_u import Derivation, infer_u

from conftest import church_term, count_calls, ref_print_type
from test_golden_output import CASES, machine_output

FUEL = 500
T0 = r"der(!(\x.\y.x)) !(\z.z) !((\x.x x) (\x.x x))"


def dict_path(d) -> str:
    # `json` nests each node as a dict and its premise list; church(320)
    # and the deep derivations below nest past the default recursion limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:
        return json.dumps(derivation_to_json(d), sort_keys=True)
    finally:
        sys.setrecursionlimit(limit)


def outcome(write, d):
    """What `write` gives for d, or RecursionError where `json` cannot read it."""
    try:
        return write(d)
    except RecursionError:
        return RecursionError


def derived(results):
    return [d for d in results if isinstance(d, (Derivation, DerivationE))]


def corpus_derivations() -> dict[str, list]:
    """Derivations in u, e, n and v of the acceptance corpora, and the U
    images of the n and v ones."""
    tight = acceptance._tight_corpus(0)[:80]  # criterion 4's terms and derivations
    bang = [t for t, _, _ in tight]
    lam = acceptance._lambda_corpus(0, 80)
    out = {"u": derived(infer_u(t, FUEL) for t in bang),
           "e": derived(d for _, _, d in tight),
           "n": derived(infer_n(t, FUEL) for t in lam),
           "v": derived(infer_v(t, FUEL) for t in lam)}
    out["n-image"] = [translate_n_to_u(d) for d in out["n"]]
    out["v-image"] = [translate_v_to_u(d) for d in out["v"]]
    return out


CORPUS = corpus_derivations()


def church_derivations(n: int) -> dict[str, object]:
    t = church_term(n)
    dn, dv = infer_n(t, 100000), infer_v(t, 100000)
    return {"u": infer_u(embed_cbn(t), 100000), "e": infer_tight(embed_cbn(t), 100000),
            "n": dn, "v": dv, "n-image": translate_n_to_u(dn), "v-image": translate_v_to_u(dv)}


# ---------------------------------------------------------------------------
# The writer against the dict path

@pytest.mark.parametrize("system", sorted(CORPUS))
def test_writer_matches_the_dict_path_on_the_acceptance_corpus(system):
    assert CORPUS[system]
    for d in CORPUS[system]:
        assert derivation_text(d) == dict_path(d)


@pytest.mark.parametrize("n", [5, 20, 80, 320])
def test_writer_matches_the_dict_path_on_church(n):
    for system, d in church_derivations(n).items():
        assert derivation_text(d) == dict_path(d), (n, system)


@pytest.mark.parametrize("system", sorted(CORPUS))
def test_writer_matches_the_dict_path_on_derivations_read_back(system):
    # a read gives equal texts one object, so nodes share subjects and types
    ds = CORPUS[system] + [church_derivations(20)[system]]
    for d in ds:
        back = derivation_from_json(derivation_to_json(d))
        assert derivation_text(back) == dict_path(back) == dict_path(d)


def test_records_match_the_dict_path():
    church = church_derivations(20)
    records = [
        {"record": "derivation", "version": 1, "size": 7, "derivation": church["u"]},
        {"record": "derivation", "version": 1, "counters": [1, 2, 3], "tight": True,
         "derivation": church["e"]},
        {"record": "translation", "version": 1, "source": church["v"],
         "image": church["v-image"]},
    ]
    for r in records:
        as_dicts = {k: derivation_to_json(v) if isinstance(v, (Derivation, DerivationE)) else v
                    for k, v in r.items()}
        assert record_text(r) == json.dumps(as_dicts, sort_keys=True)
    plain = {"record": "normal_form", "version": 1, "term": "\\x. x", "steps": 0, "b": 0, "e": 0}
    assert record_text(plain) == json.dumps(plain, sort_keys=True)


def test_plain_records_are_written_as_json_dumps_writes_them():
    """A record without derivation objects goes through one shared encoder:
    the bytes of `json.dumps(r, sort_keys=True)`, on every record of the
    golden machine outputs and on one holding non-ASCII text."""
    records = [json.loads(line) for name in sorted(CASES)
               for line in machine_output(name).splitlines()]
    records.append({"record": "term", "version": 1, "term": "λx. x", "note": "é ü ∀ 😀 \u0000",
                    "nested": {"z": [None, True, 1.5, -0.0], "a": {"ß": "\\"}}})
    assert len(records) > 100
    for r in records:
        assert record_text(r) == json.dumps(r, sort_keys=True)


# ---------------------------------------------------------------------------
# The type printer against its match form

E = parse_type("[o0] -> o0")
TYPES = [
    Mult(()),
    Mult((E,)), Mult((E,) * 5), Mult((BaseVar(1),) * 3), Mult((Tight("n"),) * 4),
    Mult((BaseVar(0), E, E, Tight("a"))), Mult((E, E, parse_type("[o1] -> o0"))),
    Mult((E, parse_type("[o0] -> o0"), E)),  # equal but distinct objects
    Mult(tuple(parse_type("[o0] -> o0") for _ in range(4))),
    parse_type("[[o0] -> o0,[o0] -> o0] -> [o0] -> o0"),
    parse_type("[[[a] -> n] -> [b,b] -> n,o3] -> [[]] -> []"),
]


def nested_arrows(k: int):
    t = BaseVar(0)
    for i in range(k):
        t = Arrow(Mult((t,) * (i % 3)), t)
    return t


@pytest.mark.parametrize("t", TYPES + [nested_arrows(12)], ids=repr)
def test_print_type_matches_its_match_form(t):
    assert print_type(t) == ref_print_type(t)
    memo, ref_memo = {}, {}
    for u in (t, t, Mult((t,) * 3), Mult((t, t, E))):
        assert print_type(u, memo) == ref_print_type(u, ref_memo) == ref_print_type(u)


def test_print_type_matches_its_match_form_on_church_types():
    memo = {}
    for d in church_derivations(20).values():
        stack = [d]
        while stack:
            node = stack.pop()
            stack += node.premises
            for t in (node.type, *node.context.values()):
                assert print_type(t, memo) == ref_print_type(t)


# ---------------------------------------------------------------------------
# Deep derivations

def nested_lambdas(n: int):
    t = Var("x0")
    for i in reversed(range(n)):
        t = Abs(f"x{i}", t)
    return t


def premise_depth(d) -> int:
    deepest, stack = 0, [(d, 0)]
    while stack:
        node, k = stack.pop()
        deepest = max(deepest, k)
        stack += [(p, k + 1) for p in node.premises]
    return deepest


@pytest.mark.parametrize("infer", [infer_u, infer_tight], ids=["u", "e"])
def test_the_writer_writes_a_derivation_deeper_than_json_nests(infer):
    # 600 premises nest 1,200 levels, past what `json` nests at the
    # default recursion limit on Python 3.11
    d = infer(nested_lambdas(600), FUEL)
    assert premise_depth(d) == 600
    assert derivation_text(d) == dict_path(d)


def as_record(d) -> dict:
    return {"record": "derivation", "version": 1, "derivation": d}


@pytest.mark.parametrize("depth", [CHECKED_DEPTH, CHECKED_DEPTH + 1])
def test_a_record_past_the_checked_depth_is_read_back(monkeypatch, depth):
    d = infer_u(nested_lambdas(depth), FUEL)
    assert premise_depth(d) == depth
    want = json.dumps({**as_record(d), "derivation": derivation_to_json(d)}, sort_keys=True)
    reads = []
    monkeypatch.setattr(json, "loads", lambda s, _f=json.loads: reads.append(s) or _f(s))
    assert record_text(as_record(d)) == want
    assert reads == ([want] if depth > CHECKED_DEPTH else [])


def test_a_record_json_cannot_read_back_raises_recursion_error():
    d = infer_u(nested_lambdas(1000), FUEL)
    text = '{"derivation": %s, "record": "derivation", "version": 1}' % derivation_text(d)
    got = outcome(record_text, as_record(d))
    assert got == (RecursionError if outcome(json.loads, text) is RecursionError else text)


@pytest.mark.parametrize("argv", [("infer",), ("infer", "--calculus", "cbn"), ("tight",),
                                  ("translate", "--calculus", "cbn")])
def test_a_record_deeper_than_the_recursion_limit_is_refused_before_printing(monkeypatch, argv):
    # writing 10,000 nested lambdas before the read-back refused them took
    # 2.1 GB: each node restates its subject and type in full
    printed = count_calls(monkeypatch, serialize, "print_term")
    text = "".join(f"\\x{i}. " for i in range(10_000)) + "x0"
    code, out, err = run(*argv, "--output", "machine", text)
    assert (code, out, err) == (2, "", "nested too deeply: recursion limit exceeded\n")
    assert printed == []


# ---------------------------------------------------------------------------
# The partial trace on fuel exhaustion

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_trace_out_of_fuel_prints_its_partial_records():
    code, out, err = run("trace", "--output", "machine", "--fuel", "2", T0)
    assert code == 3 and err == "fuel exhausted\n"
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["record"] for r in records] == ["header", "step", "step", "footer"]
    _, full, _ = run("trace", "--output", "machine", T0)
    assert records[:3] == [json.loads(line) for line in full.splitlines()[:3]]
    footer = records[-1]
    assert footer["completed"] is False and footer["steps"] == 2
    assert (footer["b"], footer["e"]) == (1, 1)  # d! then dB
    assert footer["term"] == records[-2]["result"]


@pytest.mark.parametrize("fuel", ["0", "1", "4"])
def test_partial_trace_is_the_records_of_the_partial_trace(fuel):
    with pytest.raises(FuelExhausted) as ex:
        normalize_dw(parse_term(T0), int(fuel))
    code, out, _ = run("trace", "--output", "machine", "--fuel", fuel, T0)
    assert code == 3
    assert out == "\n".join(json.dumps(r, sort_keys=True) for r in trace_records(ex.value.trace)) + "\n"


def test_trace_out_of_fuel_prints_its_partial_text():
    """The start line and the steps taken, as a completed trace prints
    them, without its summary line."""
    assert run("trace", "--fuel", "2", T0) == (3, (
        "start  der(!(\\x. \\y. x)) !(\\z. z) !((\\x. x x) (\\x. x x))\n"
        "[0] d!  at fun/fun                  -> (\\x. \\y. x) !(\\z. z) !((\\x. x x) (\\x. x x))\n"
        "[1] dB  at fun                      -> (\\y. x)[x \\ !(\\z. z)] !((\\x. x x) (\\x. x x))\n"
    ), "fuel exhausted\n")
    _, full, _ = run("trace", T0)
    assert full.startswith(run("trace", "--fuel", "2", T0)[1])


@pytest.mark.parametrize("argv", [("infer", "--output", "machine"),
                                  ("tight", "--output", "machine"), ("reduce", "--output", "machine")])
def test_other_commands_out_of_fuel_print_nothing(argv):
    assert run(*argv, "--fuel", "2", T0) == (3, "", "fuel exhausted\n")
