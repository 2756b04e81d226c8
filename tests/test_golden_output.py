"""Byte-stability of `--output machine`: sha256 digests of the CLI's stdout
on a fixed set of inputs.  A change to the engine that alters one byte of
a trace, a derivation or a violation report fails here.

To re-record after an intended format change, run this file as a script:
`PYTHONPATH=src python tests/test_golden_output.py` prints the table.
"""

import contextlib
import hashlib
import io
import json

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
TERMS = {"T0": T0, "church5": CHURCH5, "church20-cbn": CHURCH20_CBN,
         "church80-cbn": CHURCH80_CBN}


def run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


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
    """`system:term[:deepest|:run-changed|:run-dropped|:run-duplicated]`:
    the machine derivation of the named term in `system` with its last node
    in pre-order (or its deepest node) given a base type that no rule
    admits, or with one element of a context run tampered (`_in_run`)."""
    system, name, *where = spec.split(":")
    code, out = run(*INFER[system], "--output", "machine", TERMS[name])
    assert code == 0
    obj = json.loads(out)["derivation"]
    if where and where[0].startswith("run-"):
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
}

DIGESTS = {
    "infer --calculus cbn church5": "8b91fc287d0809dae3694977b25376d0d67bd5f2d20a3e7405080f5e9999e45b",
    "infer --calculus cbv church5": "b77370e22c71c66da5eed80fda3f9c01062a63117aa82ed379206ad2eb6224aa",
    "infer T0": "d5186486041e2aad6016ef1bb73c1f1872bcaf85562d40686041a34164eb2900",
    "infer church40-cbn": "a9c16b3e02521a4725b1971a9d0ba0fcd4d1bbfecb4ec5d8623b91f1be046685",
    "infer church5-cbn": "f4621a4736ba70a494c70e38ced97dfb4b6a82e54a19dab7c7cf5d63bef17754",
    "tight T0": "3fa33a519ef7398e901aaf6b421ab073b3925087614c606c7f0bc6e547fdb91b",
    "tight church40-cbn": "cb3f882322850d2315b45d841fe291344fb078d139163198a08cb5ed5a003baa",
    "tight church5-cbn": "c1715c93321aad96a493b571442ed2be4690a83cadbc5b39972bcc5592fe1909",
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


def machine_output(name: str) -> str:
    want_code, argv = CASES[name]
    *head, last = argv
    if last.startswith("@"):
        last = tampered(last[1:])
    code, out = run(*head, "--output", "machine", last)
    assert code == want_code, (name, code)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_machine_output_digest(name):
    out = machine_output(name)
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        out = machine_output(name)
        print(f'    "{name}": "{hashlib.sha256(out.encode()).hexdigest()}",')
