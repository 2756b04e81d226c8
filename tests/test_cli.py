import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from bangcalc import cli
from bangcalc.cli import main
from bangcalc.gen import generate_corpus
from bangcalc.serialize import derivation_from_json, derivation_to_json
from bangcalc.syntax import parse_term, print_term, term_eq
from bangcalc.system_u import check_derivation_u, infer_u
from bangcalc.system_e import check_derivation_e, infer_tight

T0 = r"der(!(\x.\y.x)) !(\z.z) !((\x.x x) (\x.x x))"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_trace_text(capsys):
    code, out, _ = run(capsys, "trace", T0)
    assert code == 0
    assert "(b,e)=(2,3)" in out
    steps = [line for line in out.splitlines() if line.startswith("[")]
    assert len(steps) == 5


def test_trace_machine_is_bit_stable(capsys):
    code, out1, _ = run(capsys, "trace", "--output", "machine", T0)
    assert code == 0
    code, out2, _ = run(capsys, "trace", "--output", "machine", T0)
    assert out1 == out2
    records = [json.loads(line) for line in out1.strip().splitlines()]
    assert records[0]["record"] == "header" and records[-1]["record"] == "footer"
    assert records[-1]["b"] == 2 and records[-1]["e"] == 3
    assert [r["rule"] for r in records[1:-1]] == ["d!", "dB", "dB", "s!", "s!"]


def test_tight_counters(capsys):
    code, out, _ = run(capsys, "tight", T0)
    assert code == 0 and "counters=(b=2, e=3, s=1)" in out


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "x")
    assert code == 0 and "'ne'" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "((x")
    assert code == 2 and "parse error" in err


def test_fuel_exit_code(capsys):
    code, _, err = run(capsys, "reduce", "--fuel", "20", r"(\x. x !x) !(\x. x !x)")
    assert code == 3


def test_untypable_exit_code(capsys):
    code, _, err = run(capsys, "infer", r"der((\y.\x.z) (der(y) y))")
    assert code == 4 and "untypable" in err


def test_embed(capsys):
    code, out, _ = run(capsys, "embed", "--calculus", "cbv", "(x y) z")
    assert code == 0 and out.strip() == "der(x !y) !z"


def test_typecheck_roundtrip_u(capsys, monkeypatch):
    d = infer_u(parse_term(T0), 100)
    blob = json.dumps(derivation_to_json(d))
    code, out, _ = run(capsys, "typecheck", "--system", "u", blob)
    assert code == 0 and out.strip() == "ok"


def test_typecheck_roundtrip_e_and_rejection(capsys):
    d = infer_tight(parse_term(T0), 100)
    obj = derivation_to_json(d)
    code, out, _ = run(capsys, "typecheck", "--system", "e", json.dumps(obj))
    assert code == 0
    obj["counters"] = [9, 9, 9]
    code, out, _ = run(capsys, "typecheck", "--system", "e", json.dumps(obj))
    assert code == 1 and "violation" in out


def test_serialized_derivations_reload_identically():
    d = infer_tight(parse_term(T0), 100)
    d2 = derivation_from_json(derivation_to_json(d))
    assert check_derivation_e(d2) is None
    assert (d2.context, d2.subject, d2.type, d2.counters) == \
        (d.context, d.subject, d.type, d.counters)
    du = infer_u(parse_term(T0), 100)
    du2 = derivation_from_json(derivation_to_json(du))
    assert check_derivation_u(du2) is None
    assert (du2.context, du2.subject, du2.type) == (du.context, du.subject, du.type)


def test_infer_machine_output(capsys):
    code, out, _ = run(capsys, "infer", "--output", "machine", "--calculus", "cbn",
                       r"(\x.x) y")
    assert code == 0
    rec = json.loads(out)
    assert rec["record"] == "derivation" and rec["size"] == 4


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "--calculus", "cbn", r"(\x.x) y")
    assert code == 0 and "source:" in out and "image:" in out


def test_flag_choices_are_the_dispatch_tables_keys():
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    calculi = {name: a.choices for name, p in commands.items()
               for a in p._actions if a.dest == "calculus"}
    assert set(calculi) == set(COMMANDS) - {"typecheck"}
    assert all(list(c) == ["bang", "cbn", "cbv"] == list(cli._NORMALIZE)
               for c in calculi.values())
    system = next(a for a in commands["typecheck"]._actions if a.dest == "system")
    assert list(system.choices) == ["u", "e", "n", "v"] == list(cli._CHECKERS)
    assert list(cli._INFER) == list(cli._SIZE) == list(cli._NORMALIZE)
    assert list(cli._EMBED) == list(cli._TO_U) == ["cbn", "cbv"]


def _u_derivation_json():
    return json.dumps(derivation_to_json(infer_u(parse_term(T0), 100)))


def _e_derivation_with_counters(counters):
    obj = derivation_to_json(infer_tight(parse_term(T0), 100))
    obj["counters"] = counters
    return json.dumps(obj)


def _axiom_with_counters(rule, ty):
    """An axiom for x, well formed in its system but for its counters."""
    return json.dumps({"rule": rule, "context": {"x": "[o0]"}, "term": "x", "type": ty,
                       "counters": [0, 0, 0]})


def _axiom(**fields):
    """The U axiom for x, with `fields` set."""
    return json.dumps({"rule": "ax", "context": {"x": "[o0]"}, "term": "x", "type": "o0",
                       **fields})


def _nested_lambdas(n):
    return "".join(f"\\x{i}. " for i in range(n)) + "x0"


def _bad_value(field, kind):
    """A value that no text field of a derivation accepts.  ["x"] is a list
    of one-character strings, which the term lexer can walk like a string."""
    truncated = {"term": r"(\x. x", "type": "[o0] ->", "context": "[o0,"}[field]
    return {"number": 7, "list": ["x"], "null": None, "truncated": truncated}[kind]


def _bad_text(field, kind, repeated):
    """The U derivation of T0 with `field` of its root (and, if `repeated`,
    of the node read first) set to a bad value of `kind`."""
    obj = derivation_to_json(infer_u(parse_term(T0), 100))
    value = _bad_value(field, kind)
    first = obj
    while first["premises"]:
        first = first["premises"][0]
    for node in [first, obj] if repeated else [obj]:
        if field == "context":
            node["context"]["x"] = value
        else:
            node[field] = value
    return json.dumps(obj)


# an E node whose premise carries no counters: the check reaches the
# premise before it sums the premises' counters
E_NODE_OVER_U_NODE = (
    '{"rule":"dr_d","context":{"x":"[[n]]"},"term":"der(x)","type":"[n]","counters":[0,0,0],'
    '"premises":[{"rule":"ax","context":{"x":"[[n]]"},"term":"x","type":"[[n]]","premises":[]}]}')

BAD_TEXT_CASES = [(field, kind, repeated) for field in ("term", "type", "context")
                  for kind in ("number", "list", "null", "truncated")
                  for repeated in (False, True)]


@pytest.mark.parametrize("argv, code, message", [
    (("typecheck", "--system", "u", "not json"), 2, "parse error"),
    (("typecheck", "--system", "u", '{"rule": "ax", "type": "o0"}'), 2, "malformed derivation"),
    (("typecheck", "--system", "u", "[1, 2]"), 2, "malformed derivation"),
    (("typecheck", "--system", "e", _e_derivation_with_counters([1, 2])), 2, "counters"),
    (("typecheck", "--system", "e", _e_derivation_with_counters("abc")), 2, "counters"),
    (("typecheck", "--system", "e", _u_derivation_json()), 1, "violation at []"),
    (("reduce", "--fuel", "-5", "x"), 2, "fuel must not be negative"),
    # the term parser reads any depth (see test_deep_terms_run_from_the_cli)
    # and the type printer prints any arrow depth (see
    # test_ten_thousand_nested_lambdas_type_in_text); the type parser and
    # `json` still recurse
    (("typecheck", "--system", "u", "[" * 5000 + "]" * 5000), 2, "nested too deeply"),
    (("typecheck", "--system", "u", _axiom(type="[o0] -> " * 3000 + "o0")), 2,
     "nested too deeply"),
    # a held innermost multiset: the reader hands the text to the parser
    # after a fixed number of scans of it, not one per level
    (("typecheck", "--system", "u", _axiom(type="[" * 20_000 + "o0" + "]" * 20_000)), 2,
     "nested too deeply"),
    (("embed", "--calculus", "bang", "x"), 2, "embed needs --calculus cbn or cbv"),
    (("translate", "--calculus", "bang", "x"), 2, "translate needs --calculus cbn or cbv"),
    (("typecheck", "--system", "u", _axiom_with_counters("ax", "o0")), 1, "violation at []"),
    (("typecheck", "--system", "n", _axiom_with_counters("ax_n", "o0")), 1, "violation at []"),
    (("typecheck", "--system", "v", _axiom_with_counters("ax_v", "[o0]")), 1, "violation at []"),
    (("typecheck", "--system", "e", E_NODE_OVER_U_NODE), 1,
     "violation at [0]: system E nodes must carry counters"),
    (("trace", "x", "--seed", "5"), 2, "unrecognized arguments: --seed 5"),
    (("classify", "x", "--fuel", "3"), 2, "unrecognized arguments: --fuel 3"),
    (("typecheck", "--system", "u", _u_derivation_json(), "--calculus", "cbv"), 2,
     "unrecognized arguments: --calculus cbv"),
    (("selftest", "--output", "machine"), 2, "unrecognized arguments: --output machine"),
    (("typecheck", "--system", "u", _axiom(premises={})), 2, "malformed derivation"),
    (("typecheck", "--system", "u", _axiom(premises="")), 2, "malformed derivation"),
    (("typecheck", "--system", "u", _axiom(context=[])), 2, "malformed derivation"),
    (("typecheck", "--system", "n", _axiom(rule="ax_n", context={"x": "[a]"}, type="a")), 1,
     "violation at []: tight constants do not belong to this system"),
    (("typecheck", "--system", "v", _axiom(rule="ax_v", context={"x": "[a]"}, type="[a]")), 1,
     "violation at []: tight constants do not belong to this system"),
] + [(("typecheck", "--system", "u", _bad_text(*case)), 2, "malformed derivation")
      for case in BAD_TEXT_CASES],
   ids=["not-json", "missing-field", "not-an-object", "short-counters", "string-counters",
        "u-derivation-in-e", "negative-fuel", "deep-json", "deep-type-text",
        "deep-multisets",
        "embed-bang", "translate-bang", "counters-in-u", "counters-in-n", "counters-in-v",
        "e-node-over-u-node", "seed-on-trace", "fuel-on-classify",
        "calculus-on-typecheck", "output-on-selftest", "premises-object", "premises-string",
        "context-list", "tight-in-n", "tight-in-v"] + [
        f"{field}-{kind}-{'repeated' if repeated else 'once'}"
        for field, kind, repeated in BAD_TEXT_CASES])
def test_bad_input_gets_a_documented_exit_code(capsys, argv, code, message):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert "Traceback" not in err
    if code == 1:
        assert out.startswith(message) and not err
    else:
        assert message in err.strip().splitlines()[-1]


@pytest.mark.parametrize("command", ["infer", "tight"])
def test_deep_nested_lambdas_type_in_text_and_end_cleanly_in_machine_output(capsys, command):
    # the typing and the text output work at 900 levels; `json` may not
    # nest a derivation that deep, which then exits 2 with one line
    code, out, _ = run(capsys, command, _nested_lambdas(900))
    assert code == 0 and ("s=900" if command == "tight" else "size=901") in out
    code, out, err = run(capsys, command, "--output", "machine", _nested_lambdas(900))
    assert "Traceback" not in err
    if code == 0:
        assert json.loads(out.splitlines()[-1])["record"] == "derivation"
    else:
        assert code == 2 and err.count("\n") == 1 and "nested too deeply" in err


DEEP = 10_000  # ten times the default recursion limit
DEEP_TERMS = {
    "parens": "(" * DEEP + "x" + ")" * DEEP,
    "lambdas": _nested_lambdas(DEEP),
    "applications": "x (" * DEEP + "x" + ")" * DEEP,
    "bangs": "!" * DEEP + "x",
    "ders": "der " * DEEP + "x",
}


@pytest.mark.parametrize("shape", DEEP_TERMS)
def test_deep_terms_run_from_the_cli(capsys, shape):
    text = DEEP_TERMS[shape]
    for command in ("parse", "trace", "classify"):
        code, out, err = run(capsys, command, text)
        assert (code, err) == (0, ""), command
        if command == "parse":
            assert term_eq(parse_term(out), parse_term(text))


@pytest.mark.parametrize("argv, tail", [
    (("infer",), "size=10001"),
    (("infer", "--calculus", "cbn"), "size=10001"),
    (("translate", "--calculus", "cbn"), "(size 10001)"),
])
def test_ten_thousand_nested_lambdas_type_in_text(capsys, argv, tail):
    # the type is a 10,000-deep arrow, which the printer walks by loop
    code, out, err = run(capsys, *argv, _nested_lambdas(DEEP))
    assert (code, err) == (0, "") and out.rstrip().endswith(tail)


def test_nested_lambdas_deeper_than_json_reads_exit_2_with_one_line_in_machine_output(capsys):
    code, out, err = run(capsys, "infer", "--output", "machine", _nested_lambdas(1500))
    assert (code, out) == (2, "") and err.count("\n") == 1 and "nested too deeply" in err


# ---------------------------------------------------------------------------
# Random command lines

COMMANDS = ["parse", "reduce", "trace", "classify", "clash", "infer", "tight",
            "typecheck", "embed", "translate"]
# the commands that take --fuel: those that reduce
REDUCING = {"reduce", "trace", "infer", "tight", "translate"}
# each flag's values end with a bad one; --strict and --system belong to
# one command each, --fuel to the reducing ones, --calculus to all but
# typecheck
FLAGS = {
    "--fuel": ["0", "3", "40", "-1"],
    "--calculus": ["bang", "cbn", "cbv", "lambda"],
    "--output": ["text", "machine", "json"],
    "--system": ["u", "e", "n", "v", "w"],
    "--strict": [None],
}
FUZZ_TERMS = [print_term(t) for t in generate_corpus(11, 8, 12)] + [
    print_term(t) for t in generate_corpus(12, 8, 6, lam=True)] + [T0]
FUZZ_DERIVATIONS = [json.dumps(derivation_to_json(d)) for d in (
    infer_u(parse_term(T0), 100), infer_tight(parse_term(T0), 100),
    infer_u(parse_term(r"(\x. x x) !y"), 100))]


def _fuzz_input(data):
    text = data.draw(st.sampled_from(FUZZ_TERMS + FUZZ_DERIVATIONS))
    how = data.draw(st.sampled_from(["keep", "keep", "truncate", "mutate", "junk", "deep"]))
    i = data.draw(st.integers(0, len(text)))
    if how == "truncate":
        return text[:i]
    if how == "mutate":
        return text[:i] + data.draw(st.text(alphabet="\\λ.()[]!x :=,{}\"o0-> é", max_size=3)) + text[i + 1:]
    if how == "junk":
        return data.draw(st.text(max_size=20))
    if how == "deep":
        depth = data.draw(st.sampled_from([30, 300, 1500]))
        return data.draw(st.sampled_from(["(" * depth + "x" + ")" * depth,
                                          "\\x. " * depth + "x", "!" * depth + "x"]))
    return text


@given(st.data())
def test_random_command_lines_get_a_documented_exit_code(data):
    argv = [data.draw(st.sampled_from(COMMANDS))]
    for flag in data.draw(st.lists(st.sampled_from(sorted(FLAGS)), max_size=4, unique=True)):
        value = data.draw(st.sampled_from(FLAGS[flag]))
        argv += [flag] if value is None else [flag, value]
    if argv[0] in REDUCING and "--fuel" not in argv:
        argv += ["--fuel", "40"]
    if argv[0] == "typecheck" and "--system" not in argv:
        argv += ["--system", data.draw(st.sampled_from("uenv"))]
    text = _fuzz_input(data)
    on_stdin = data.draw(st.booleans())
    if not on_stdin:
        argv.append(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(text)):
        code = main(argv)
    assert code in range(6), argv
    assert "Traceback" not in err.getvalue(), argv
