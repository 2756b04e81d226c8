"""Byte-stability of the CLI: sha256 digests of its stdout on a fixed set of
inputs, in machine output (`CASES`) and in text output (`TEXT_CASES`, which
pin stderr and the exit code too), and of its `--help` texts.  A change to
the engine that alters one byte of a trace, a derivation or a violation
report fails here.  The stdout of `bangcalc selftest`, the acceptance gate,
is pinned the same way.

To re-record after an intended format change, run this file as a script:
`PYTHONPATH=src python tests/test_golden_output.py` prints the table.
"""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from bangcalc.cbn_cbv import embed_cbn
from bangcalc.cli import main
from bangcalc.qtypes import parse_type, print_type
from bangcalc.syntax import print_term

from conftest import church_term

T0 = r"der(!(\x.\y.x)) !(\z.z) !((\x.x x) (\x.x x))"
CHURCH5 = print_term(church_term(5))
CHURCH5_CBN = print_term(embed_cbn(church_term(5)))
CHURCH20 = print_term(church_term(20))
CHURCH40_CBN = print_term(embed_cbn(church_term(40)))
CHURCH20_CBN = print_term(embed_cbn(church_term(20)))
CHURCH80_CBN = print_term(embed_cbn(church_term(80)))
LAMBDA_NF = r"\x. x (\y. y) z"  # normal in CBN and CBV
CLASH = r"x ((!y) w)[z \ !u]"  # a clash below the root
TERMS = {"T0": T0, "church5": CHURCH5, "church20-cbn": CHURCH20_CBN,
         "church80-cbn": CHURCH80_CBN}


def run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def run_both(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# system -> the command (and calculus) whose machine output is a
# derivation in that system
INFER = {
    "u": ("infer",),
    "e": ("tight",),
    "n": ("infer", "--calculus", "cbn"),
    "v": ("infer", "--calculus", "cbv"),
}


def _last(node: dict) -> dict:
    while node["premises"]:
        node = node["premises"][-1]
    return node


def _deepest(node: dict) -> dict:
    """The first node in pre-order at the greatest depth."""
    best, depth = node, 0
    stack = [(node, 0)]
    while stack:
        n, k = stack.pop()
        if k > depth:
            best, depth = n, k
        stack.extend((p, k + 1) for p in reversed(n["premises"]))
    return best


def _in_run(obj: dict, how: str) -> None:
    """Tamper with the middle element of a context run: a context entry
    whose text is `[E,...,E]`, one element text E written k >= 3 times.
    The node is the middle one, in pre-order, of the nodes that have such
    an entry.  `how` is `changed` (that element written as `[E]`),
    `dropped` (left out) or `duplicated` (written twice)."""
    found = []
    stack = [obj]
    while stack:
        node = stack.pop()
        for x, text in sorted(node["context"].items()):
            elems = parse_type(text).elements
            e = print_type(elems[0])
            if len(elems) >= 3 and text == "[" + ",".join([e] * len(elems)) + "]":
                found.append((node, x, e, len(elems)))
                break
        stack.extend(reversed(node["premises"]))
    node, x, e, k = found[len(found) // 2]
    elems = [e] * k
    elems[k // 2:k // 2 + 1] = {"changed": [f"[{e}]"], "dropped": [], "duplicated": [e, e]}[how]
    node["context"][x] = "[" + ",".join(elems) + "]"


def tampered(spec: str) -> str:
    """`system:term[:deepest|:run-changed|:run-dropped|:run-duplicated|:intact]`:
    the machine derivation of the named term in `system` with its last node
    in pre-order (or its deepest node) given a base type that no rule
    admits, or with one element of a context run tampered (`_in_run`), or
    left as it is (`intact`)."""
    system, name, *where = spec.split(":")
    code, out = run(*INFER[system], "--output", "machine", TERMS[name])
    assert code == 0
    obj = json.loads(out)["derivation"]
    if where == ["intact"]:
        pass
    elif where and where[0].startswith("run-"):
        _in_run(obj, where[0][4:])
    else:
        (_deepest if where == ["deepest"] else _last)(obj)["type"] = "o999"
    return json.dumps(obj)


CASES = {
    "trace T0": (0, ("trace", T0)),
    "tight T0": (0, ("tight", T0)),
    "infer T0": (0, ("infer", T0)),
    "trace church5-cbn": (0, ("trace", CHURCH5_CBN)),
    "tight church5-cbn": (0, ("tight", CHURCH5_CBN)),
    "infer church5-cbn": (0, ("infer", CHURCH5_CBN)),
    "infer --calculus cbn church5": (0, ("infer", "--calculus", "cbn", CHURCH5)),
    "infer --calculus cbv church5": (0, ("infer", "--calculus", "cbv", CHURCH5)),
    "translate --calculus cbn church5": (0, ("translate", "--calculus", "cbn", CHURCH5)),
    "translate --calculus cbv church5": (0, ("translate", "--calculus", "cbv", CHURCH5)),
    "typecheck --system u tampered T0": (1, ("typecheck", "--system", "u", "@u:T0")),
    "trace church40-cbn": (0, ("trace", CHURCH40_CBN)),
    "tight church40-cbn": (0, ("tight", CHURCH40_CBN)),
    "infer church40-cbn": (0, ("infer", CHURCH40_CBN)),
    "translate --calculus cbv church20": (0, ("translate", "--calculus", "cbv", CHURCH20)),
    "typecheck --system e tampered T0": (1, ("typecheck", "--system", "e", "@e:T0")),
    "typecheck --system n tampered church5": (1, ("typecheck", "--system", "n", "@n:church5")),
    "typecheck --system v tampered church5": (1, ("typecheck", "--system", "v", "@v:church5")),
    "typecheck --system u deepest-tampered church20-cbn":
        (1, ("typecheck", "--system", "u", "@u:church20-cbn:deepest")),
    "typecheck --system e deepest-tampered church20-cbn":
        (1, ("typecheck", "--system", "e", "@e:church20-cbn:deepest")),
    "typecheck --system u run-changed church80-cbn":
        (1, ("typecheck", "--system", "u", "@u:church80-cbn:run-changed")),
    "typecheck --system u run-dropped church80-cbn":
        (1, ("typecheck", "--system", "u", "@u:church80-cbn:run-dropped")),
    "typecheck --system u run-duplicated church80-cbn":
        (1, ("typecheck", "--system", "u", "@u:church80-cbn:run-duplicated")),
    "typecheck --system e run-changed church80-cbn":
        (1, ("typecheck", "--system", "e", "@e:church80-cbn:run-changed")),
    "typecheck --system e run-dropped church80-cbn":
        (1, ("typecheck", "--system", "e", "@e:church80-cbn:run-dropped")),
    "typecheck --system e run-duplicated church80-cbn":
        (1, ("typecheck", "--system", "e", "@e:church80-cbn:run-duplicated")),
    "parse T0": (0, ("parse", T0)),
    "parse --calculus cbn church5": (0, ("parse", "--calculus", "cbn", CHURCH5)),
    "reduce T0": (0, ("reduce", T0)),
    "reduce --calculus cbn church5": (0, ("reduce", "--calculus", "cbn", CHURCH5)),
    "reduce --calculus cbv church5": (0, ("reduce", "--calculus", "cbv", CHURCH5)),
    "trace --calculus cbn church5": (0, ("trace", "--calculus", "cbn", CHURCH5)),
    "trace --calculus cbv church5": (0, ("trace", "--calculus", "cbv", CHURCH5)),
    "classify T0": (0, ("classify", T0)),
    "classify normal": (0, ("classify", "x !y")),
    "classify --calculus cbn normal": (0, ("classify", "--calculus", "cbn", LAMBDA_NF)),
    "classify --calculus cbv normal": (0, ("classify", "--calculus", "cbv", LAMBDA_NF)),
    "classify --calculus cbn church5": (0, ("classify", "--calculus", "cbn", CHURCH5)),
    "classify --calculus cbv church5": (0, ("classify", "--calculus", "cbv", CHURCH5)),
    "clash clash": (0, ("clash", CLASH)),
    "clash T0": (0, ("clash", T0)),
    "embed --calculus cbn church5": (0, ("embed", "--calculus", "cbn", CHURCH5)),
    "embed --calculus cbv church5": (0, ("embed", "--calculus", "cbv", CHURCH5)),
}

DIGESTS = {
    "clash T0": "053caa50d0f0864e8ca1f694403f3cc5104b77cd1162d9823dca3d5c4edeb198",
    "clash clash": "5ef1aa97da6f9e0357c5b867827d46d42b81764be10eb02fc52367a100abc552",
    "classify --calculus cbn church5": "25d76fac17b6003bfc6316fd7f84d08a82fe2aa3fabc54d85318e2593db1519f",
    "classify --calculus cbn normal": "81910d35ddfca63f6e47e4d9bb2527f7b40e98e0025394c4bb564f68cf048fa8",
    "classify --calculus cbv church5": "25d76fac17b6003bfc6316fd7f84d08a82fe2aa3fabc54d85318e2593db1519f",
    "classify --calculus cbv normal": "81910d35ddfca63f6e47e4d9bb2527f7b40e98e0025394c4bb564f68cf048fa8",
    "classify T0": "053caa50d0f0864e8ca1f694403f3cc5104b77cd1162d9823dca3d5c4edeb198",
    "classify normal": "31254430a3d4bd075a3543c8557af2b426eacc4f2d733804536dae8a50568a4d",
    "embed --calculus cbn church5": "01bd41e1437e3e9191362619e2eb00bd6a150ee19311e1074ee97a24f668ae78",
    "embed --calculus cbv church5": "fc4068fdf384f7579c63dcf3af487afca4af53b13f133e050a192ca9d52285dc",
    "infer --calculus cbn church5": "8b91fc287d0809dae3694977b25376d0d67bd5f2d20a3e7405080f5e9999e45b",
    "infer --calculus cbv church5": "b77370e22c71c66da5eed80fda3f9c01062a63117aa82ed379206ad2eb6224aa",
    "infer T0": "d5186486041e2aad6016ef1bb73c1f1872bcaf85562d40686041a34164eb2900",
    "infer church40-cbn": "a9c16b3e02521a4725b1971a9d0ba0fcd4d1bbfecb4ec5d8623b91f1be046685",
    "infer church5-cbn": "f4621a4736ba70a494c70e38ced97dfb4b6a82e54a19dab7c7cf5d63bef17754",
    "parse --calculus cbn church5": "2afec64eab04cf68d05cbb15d8f1b4a9dc7af9e726127c4bca315a830bb54d1a",
    "parse T0": "7e649d1f97193672c58e4901c3170cafe30c2acc165532ad6c527f127a02d6b3",
    "reduce --calculus cbn church5": "bb6941f761a00b97c9f95b748e81b9e17b460ccf437889d66ee4443ac8846a5b",
    "reduce --calculus cbv church5": "bb6941f761a00b97c9f95b748e81b9e17b460ccf437889d66ee4443ac8846a5b",
    "reduce T0": "c8ecbb48dbe1341b5d4973d110e137c82e4741ba3cd1003761b737bb10c1bdde",
    "tight T0": "3fa33a519ef7398e901aaf6b421ab073b3925087614c606c7f0bc6e547fdb91b",
    "tight church40-cbn": "cb3f882322850d2315b45d841fe291344fb078d139163198a08cb5ed5a003baa",
    "tight church5-cbn": "c1715c93321aad96a493b571442ed2be4690a83cadbc5b39972bcc5592fe1909",
    "trace --calculus cbn church5": "f0aa965ae22296837825cbf11af2256d1a156101a9c81dad36d696d067bf7e5a",
    "trace --calculus cbv church5": "6c0b908e6cbe39289b417a15e0c9842fb68dc6581bc46a42932cc5c394d7ca36",
    "trace T0": "3127239d291e581a834bdde560604848a8b14de80e90fac0b1a1ec1353341062",
    "trace church40-cbn": "b59956e53ad377a753381a2cc46bd5b9d2ac388e926a6b7ed521aa3626c5675c",
    "trace church5-cbn": "f85d44659eccdfac29a5af01970129e9a3924ce054d229c20bc071298776a1a4",
    "translate --calculus cbn church5": "575691cb50b8b22b8852ebedc7c190a3cff95504e27085e29cc2527d905efb3e",
    "translate --calculus cbv church20": "eb8a8d2f327f4c2b55a6e9b53f848326082c810c977938f03cede911091bb5f4",
    "translate --calculus cbv church5": "e033721c02dcb0e0e55de9c08fd1585dfe612f1972c91656ea34edb977401291",
    "typecheck --system e deepest-tampered church20-cbn": "ff32bd1e6b08d6ced909b1b5f58f61f162f8fbb40099b31c699d358980ae9034",
    "typecheck --system e run-changed church80-cbn": "ad9ddda9a4f4658680f8c58fdddfb6b47d474c6454a2d764acd9e265ca516092",
    "typecheck --system e run-dropped church80-cbn": "ad9ddda9a4f4658680f8c58fdddfb6b47d474c6454a2d764acd9e265ca516092",
    "typecheck --system e run-duplicated church80-cbn": "ad9ddda9a4f4658680f8c58fdddfb6b47d474c6454a2d764acd9e265ca516092",
    "typecheck --system e tampered T0": "849bcb0352da3e46b55019b10bd3a2020ccea255144f05dfd69528124fad7b55",
    "typecheck --system n tampered church5": "546dbd965068056e6792a2294877ef1303ede5f2cfc3053a17e6e4efa522220b",
    "typecheck --system u deepest-tampered church20-cbn": "9c16b0da85f2ef7b9ea52cd93208f26c9698ccb6e257d62a3eacf7639bd8dadd",
    "typecheck --system u run-changed church80-cbn": "58841067bcc81d28e5fd45f6d6f2aba2cc2afa680c63ee0ce68f49a84a48cd72",
    "typecheck --system u run-dropped church80-cbn": "58841067bcc81d28e5fd45f6d6f2aba2cc2afa680c63ee0ce68f49a84a48cd72",
    "typecheck --system u run-duplicated church80-cbn": "58841067bcc81d28e5fd45f6d6f2aba2cc2afa680c63ee0ce68f49a84a48cd72",
    "typecheck --system u tampered T0": "c4b7801f1bad32363b4af9b34b264344369103c98bcc5565703794c8d5281aa6",
    "typecheck --system v tampered church5": "735991c13bebf20a344e5f50b39daebe4a60c1458c9d9441625082d6c4c787a7",
}

# Text output: the digest is of stdout, then "--- stderr ---", then stderr.
TEXT_CASES = {
    "parse T0": (0, ("parse", T0)),
    "parse --calculus cbn church5": (0, ("parse", "--calculus", "cbn", CHURCH5)),
    "parse --calculus cbn bang": (2, ("parse", "--calculus", "cbn", "!x")),
    "parse --strict unbound": (2, ("parse", "--strict", "x")),
    "reduce T0": (0, ("reduce", T0)),
    "reduce --calculus cbn church5": (0, ("reduce", "--calculus", "cbn", CHURCH5)),
    "reduce --calculus cbv church5": (0, ("reduce", "--calculus", "cbv", CHURCH5)),
    "reduce --fuel 2 T0": (3, ("reduce", "--fuel", "2", T0)),
    "trace T0": (0, ("trace", T0)),
    "trace church5-cbn": (0, ("trace", CHURCH5_CBN)),
    "trace --calculus cbn church5": (0, ("trace", "--calculus", "cbn", CHURCH5)),
    "trace --calculus cbv church5": (0, ("trace", "--calculus", "cbv", CHURCH5)),
    "trace --fuel 2 T0": (3, ("trace", "--fuel", "2", T0)),
    "classify T0": (0, ("classify", T0)),
    "classify normal": (0, ("classify", "x !y")),
    "classify --calculus cbn normal": (0, ("classify", "--calculus", "cbn", LAMBDA_NF)),
    "classify --calculus cbv normal": (0, ("classify", "--calculus", "cbv", LAMBDA_NF)),
    "classify --calculus cbn church5": (0, ("classify", "--calculus", "cbn", CHURCH5)),
    "classify --calculus cbv church5": (0, ("classify", "--calculus", "cbv", CHURCH5)),
    "clash clash": (0, ("clash", CLASH)),
    "clash root": (0, ("clash", "!x y")),
    "clash T0": (0, ("clash", T0)),
    "typecheck --system u T0": (0, ("typecheck", "--system", "u", "@u:T0:intact")),
    "typecheck --system u tampered T0": (1, ("typecheck", "--system", "u", "@u:T0")),
    "typecheck --system v tampered church5": (1, ("typecheck", "--system", "v", "@v:church5")),
    "typecheck bad json": (2, ("typecheck", "--system", "e", "{")),
    "infer T0": (0, ("infer", T0)),
    "infer --calculus cbn church5": (0, ("infer", "--calculus", "cbn", CHURCH5)),
    "infer --calculus cbv church5": (0, ("infer", "--calculus", "cbv", CHURCH5)),
    "infer untypable": (4, ("infer", "!x y")),
    "tight T0": (0, ("tight", T0)),
    "tight church5-cbn": (0, ("tight", CHURCH5_CBN)),
    "embed --calculus cbn church5": (0, ("embed", "--calculus", "cbn", CHURCH5)),
    "embed --calculus cbv church5": (0, ("embed", "--calculus", "cbv", CHURCH5)),
    "embed church5": (0, ("embed", CHURCH5)),
    "embed --calculus bang": (2, ("embed", "--calculus", "bang", "x")),
    "translate --calculus cbn church5": (0, ("translate", "--calculus", "cbn", CHURCH5)),
    "translate --calculus cbv church5": (0, ("translate", "--calculus", "cbv", CHURCH5)),
    "translate --calculus bang": (2, ("translate", "--calculus", "bang", "x")),
    "translate --fuel 3 church5": (3, ("translate", "--fuel", "3", CHURCH5)),
}

TEXT_DIGESTS = {
    "clash T0": "3621cb265ee6c041e2aec9018b7b0a1467b0b8ebff0830af44acfdbdedc0c4cb",
    "clash clash": "8a89dd385d2a9391befad1c6eeed814cd5a9652161d2f462b87eb07ac0ed65c4",
    "clash root": "0f375b0ece9b4ae36f66384460051393c00247beaeb9e87d34beeea972617b2c",
    "classify --calculus cbn church5": "b75fe283d9ee49906778031bef0dc4f71c5c9fb759d8d4cde5b4e4f0b5336425",
    "classify --calculus cbn normal": "110a60218cb07bbc01a1fe47c3606908b7a5fbf808d181738a56878e51bab623",
    "classify --calculus cbv church5": "b75fe283d9ee49906778031bef0dc4f71c5c9fb759d8d4cde5b4e4f0b5336425",
    "classify --calculus cbv normal": "110a60218cb07bbc01a1fe47c3606908b7a5fbf808d181738a56878e51bab623",
    "classify T0": "4a418502cab72806947b1c8944ec2b8f4557114825880d1d817240497797a155",
    "classify normal": "dcc2ea44ed1b7fbb21a3f78fea4e23d69c24b9438b9200fc516ad0d69ba70aa1",
    "embed --calculus bang": "30c23dc7af79bc44470a79615296ca635dc41a86c44ac0c920a9291f367e89af",
    "embed --calculus cbn church5": "86878af31d2789c689936986e8c56d5c923f30b7bce72abc00a9cf9c0a2138fd",
    "embed --calculus cbv church5": "23d3275501434da96b1b1f55d391ad89c70936c8d15641e891543e2be13146dc",
    "embed church5": "86878af31d2789c689936986e8c56d5c923f30b7bce72abc00a9cf9c0a2138fd",
    "infer --calculus cbn church5": "63f91c89eed09302d83b9e7c507362feedba95cdb3e5ff461aba972a122e332a",
    "infer --calculus cbv church5": "9717201810ebe5657ced94bc3542bc010fd3ce784187b66306674d0aa6912f68",
    "infer T0": "cd53b1afd230032f1b747d279807dd6d498f60a03187801a4045f305adef50ee",
    "infer untypable": "99bc6fadf94a2079df7943c993a4f5cb75f9f0b60362ef6bd0a7ccc8dabb575a",
    "parse --calculus cbn bang": "5bf966e4fdfd1218237e9adb151856a58397fdb077f8f57826150fbf7298e711",
    "parse --calculus cbn church5": "87810f553939b3abeef0b86ed9efe37fd2070a4e7e1368effb6825e9d4a97e4f",
    "parse --strict unbound": "09370d7d3c5737b447d2218292ffe3e3ec93f91e97188a75ecafc9f491048a31",
    "parse T0": "d348f1593ec8e737b439cca0da7ceea9430c27cb0534a0b24713edfea1c9b6a9",
    "reduce --calculus cbn church5": "32bde21ea1e6303249fd1c9134dabad364fadc29a50a98b5f68fb8158159580c",
    "reduce --calculus cbv church5": "32bde21ea1e6303249fd1c9134dabad364fadc29a50a98b5f68fb8158159580c",
    "reduce --fuel 2 T0": "1ca2d96828a86bde429c86688cd4d2a76c3097d2de1afaad5e3b01e98ea6cda6",
    "reduce T0": "bbcc10c1c4839d4942c6da4a18fc5afab0bd0f6490f8cfcb060c0d4ecb474b88",
    "tight T0": "f813f98cea5e5b00ad829cea312479c96b2cc6f62650bdb25d72db43ae78d3fd",
    "tight church5-cbn": "ccba45c6eea251ea33b744834f0fd36691e2c68d0b38373908b6f67e40298df3",
    "trace --calculus cbn church5": "807d004dd10accc04e17e2fc53f409d94d90fb2e7dee54640a5f124015406f59",
    "trace --calculus cbv church5": "da0ad0ee0bfcf50dc0b605a5097f6b7b283401b7d074d958e7f8a6bc3b1b6500",
    "trace --fuel 2 T0": "94d20b4cdd6333239053f781e1984892f7825f5128f20e91110872b9f7ba5b28",
    "trace T0": "c08f2ab1159f4cafd489a55f471b4367c80acff0e14c533d7bdd284e8d9339d3",
    "trace church5-cbn": "c38c3a797ccdf0b30d7bb569a131a6a186f3fe86133f3723bc3d3953b69c60d7",
    "translate --calculus bang": "d261b5eb6ef118506e9e2971394ea7b402e7d51bf822e8ba365c64286fcdc572",
    "translate --calculus cbn church5": "d58230de8482b2117ab5f4caaa23dc0217758338e3dd0d8d66cd07c242da2e88",
    "translate --calculus cbv church5": "4f18260581d7e76bca7a3286d38a7c2b265a38058fe3d5e76de83253d04f4ee9",
    "translate --fuel 3 church5": "1ca2d96828a86bde429c86688cd4d2a76c3097d2de1afaad5e3b01e98ea6cda6",
    "typecheck --system u T0": "8b9a60da215f2b79da78d3c3ac3285a23899448a2d9bcd3243966ef5c4e71a97",
    "typecheck --system u tampered T0": "7f51793569f4a78a2636306ab573787759203dc9f44eac975ac67c59bd8fcedb",
    "typecheck --system v tampered church5": "1893434f1f6019c6dd1fac236677cc759a0f696f00fe3641fd7d3c92b4d463e0",
    "typecheck bad json": "5e50195545c033ae478e9b13517605fc210420b0b61be9b4f1ede6ca3493d33b",
}

COMMANDS = ("parse", "reduce", "trace", "classify", "clash", "typecheck", "infer",
            "tight", "embed", "translate", "selftest")

# argparse lays help out differently from one Python version to the next,
# so the `--help` digests are kept per version, at COLUMNS=80.
HELP_DIGESTS = {
    "3.11": {
        "": "6d3378250c60d93fe7635c92bb994e2c987321d6a0c1a2ea6f3061e44913c97d",
        "parse": "7203937b5744ede044efc2f7d38f7d8292c06c52e6997ac81f5ad4af55dd8f67",
        "reduce": "e891a1679a6d5e3c211ec1ca4fcfa8029babf1b8518492ba3c450be76db5245c",
        "trace": "bd29e11150b0a0ef55fe32d022c4627a232283b6a7925a2fd6922a9421debfb6",
        "classify": "3c0ccb81789f550b4775a79e8d2f9c07370e38f11967f81bfa2f9cf96a0f6918",
        "clash": "bde26bc4bd8cc51fb769b70ff26f1e5831938b1ad8c07b3d6c1b859970527f8c",
        "typecheck": "732c08982f8934700f87333cc5bad9fb303b4341d0885782eabd99200cc0a8fc",
        "infer": "32264bf8fe80b8cbb88a21decdf996974d73c03cf13a8e96a5f549151462533c",
        "tight": "6877369cb42dc65b9b5a6c53ce1bc3a6a5da59d75febdf23024f4ae074087bce",
        "embed": "98691578d3f9e25b05e72058a596ac0f1dd7db50be27ddfd38a8c910a613038e",
        "translate": "d117a4e5ab09b6df29f70018bcce7afd05ce6e54b0d85c5f32e9b7f0457e180a",
        "selftest": "b09cf69f6f9124b3b57a9f902c5e3d7ade3a8ae6b58a8e729cafef8e321ea876",
    },
}

SELFTEST_DIGEST = "fcb0c3a5d8336f376ffd0b0c442e1ce9c282d51a83cd3d8c957fcfe9c19a07da"


def machine_output(name: str) -> str:
    want_code, argv = CASES[name]
    *head, last = argv
    if last.startswith("@"):
        last = tampered(last[1:])
    code, out = run(*head, "--output", "machine", last)
    assert code == want_code, (name, code)
    return out


def text_output(name: str) -> str:
    want_code, argv = TEXT_CASES[name]
    *head, last = argv
    if last.startswith("@"):
        last = tampered(last[1:])
    code, out, err = run_both(*head, last)
    assert code == want_code, (name, code)
    return f"{out}--- stderr ---\n{err}"


def help_output(command: str) -> str:
    code, out = run(*([command] if command else []), "--help")
    assert code == 0
    return out


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_machine_output_digest(name):
    assert sha(machine_output(name)) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_text_output_digest(name):
    assert sha(text_output(name)) == TEXT_DIGESTS[name]


@pytest.mark.parametrize("command", ("",) + COMMANDS)
def test_help_digest(command, monkeypatch):
    digests = HELP_DIGESTS.get(f"{sys.version_info[0]}.{sys.version_info[1]}")
    if digests is None:
        pytest.skip("no --help digests recorded for this Python version")
    monkeypatch.setenv("COLUMNS", "80")
    assert sha(help_output(command)) == digests[command]


def test_selftest_output_digest():
    code, out = run("selftest")
    assert code == 0
    assert sha(out) == SELFTEST_DIGEST


if __name__ == "__main__":
    import os
    os.environ["COLUMNS"] = "80"
    print("DIGESTS = {")
    for name in sorted(CASES):
        print(f'    "{name}": "{sha(machine_output(name))}",')
    print("}\n\nTEXT_DIGESTS = {")
    for name in sorted(TEXT_CASES):
        print(f'    "{name}": "{sha(text_output(name))}",')
    print(f'}}\n\nHELP_DIGESTS = {{\n    "{sys.version_info[0]}.{sys.version_info[1]}": {{')
    for command in ("",) + COMMANDS:
        print(f'        "{command}": "{sha(help_output(command))}",')
    print("    },\n}")
    print(f'SELFTEST_DIGEST = "{sha(run("selftest")[1])}"')
