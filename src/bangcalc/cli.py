"""Command-line front end.

Exit codes: 0 success, 1 failed check, 2 bad input (a parse error,
malformed derivation JSON, a calculus the command does not take, input
nested too deeply to read) or machine output nested deeper than `json`
can read back, 3 fuel exhausted, 4 untypable, 5 internal invariant violation.
`main` returns one of them for every input and lets no exception escape.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .syntax import ParseError, Term, is_lambda_term, parse_term, print_term, w_size
from .reduction import (
    FuelExhausted, classify_nf, classify_wcf_nf, detect_clash, normalize_dw,
)
from .system_u import Untypable, check_derivation_u, infer_u, size_u
from .system_e import check_derivation_e, infer_tight, is_tight
from .cbn_cbv import (
    check_derivation_n, check_derivation_v, classify_lambda_nf, embed_cbn,
    embed_cbv, infer_n, infer_v, normalize_n, normalize_v, size_n, size_v,
    translate_n_to_u, translate_v_to_u,
)
from .serialize import (
    FORMAT_VERSION, MalformedDerivation, classification_json,
    derivation_from_json, dump_records, record_text, trace_records,
)
from . import acceptance

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_FUEL = 3
EXIT_UNTYPABLE = 4
EXIT_INTERNAL = 5


class UntypableTerm(Exception):
    pass


def _read_input(args) -> str:
    if args.term is not None:
        return args.term
    return sys.stdin.read()


def _parse(args) -> Term:
    t = parse_term(_read_input(args), strict=getattr(args, "strict", False))
    if args.calculus in ("cbn", "cbv") and not is_lambda_term(t):
        raise ParseError("bang/der are not part of the lambda fragment", 0)
    return t


def _machine(args) -> bool:
    return args.output == "machine"


def _emit_record(obj) -> None:
    print(record_text(obj))


def cmd_parse(args) -> int:
    t = _parse(args)
    if _machine(args):
        _emit_record({"record": "term", "version": FORMAT_VERSION, "term": print_term(t)})
    else:
        print(print_term(t))
    return EXIT_OK


def _normalize_for(args, t: Term):
    if args.calculus == "cbn":
        return normalize_n(t, args.fuel)
    if args.calculus == "cbv":
        return normalize_v(t, args.fuel)
    return normalize_dw(t, args.fuel)


def cmd_reduce(args) -> int:
    t = _parse(args)
    trace = _normalize_for(args, t)
    if _machine(args):
        _emit_record({"record": "normal_form", "version": FORMAT_VERSION,
                      "term": print_term(trace.final), "steps": len(trace.steps),
                      "b": trace.b, "e": trace.e})
    else:
        print(print_term(trace.final))
        print(f"steps={len(trace.steps)} b={trace.b} e={trace.e}")
    return EXIT_OK


def cmd_trace(args) -> int:
    t = _parse(args)
    try:
        trace = _normalize_for(args, t)
    except FuelExhausted as ex:
        if _machine(args):  # the steps taken before the fuel ran out
            print(dump_records(trace_records(ex.trace)))
        raise
    if _machine(args):
        print(dump_records(trace_records(trace)))
    else:
        print(f"start  {print_term(t)}")
        for i, step in enumerate(trace.steps):
            pos = "/".join(s.value for s in step.position) or "root"
            print(f"[{i}] {step.rule.value:3} at {pos:24} -> {print_term(step.result)}")
        cls = classify_nf(trace.final)
        print(f"(b,e)=({trace.b},{trace.e})  normal={cls.normal}  "
              f"classes={sorted(cls.memberships)}  w-size={w_size(trace.final)}")
    return EXIT_OK


def cmd_classify(args) -> int:
    t = _parse(args)
    if args.calculus in ("cbn", "cbv"):
        cls = classify_lambda_nf(t)
        if _machine(args):
            _emit_record({"record": "classification", "cbn": sorted(cls.cbn),
                          "cbv": sorted(cls.cbv)})
        else:
            print(f"cbn: {sorted(cls.cbn) or 'not normal'}")
            print(f"cbv: {sorted(cls.cbv) or 'not normal'}")
        return EXIT_OK
    cls, wcf, clash = classify_nf(t), classify_wcf_nf(t), detect_clash(t)
    if _machine(args):
        _emit_record(classification_json(cls, wcf, clash))
    else:
        print(f"normal={cls.normal}  classes={sorted(cls.memberships)}")
        print(f"wcf classes={sorted(wcf.memberships)}  clash_free={clash.clash_free}")
    return EXIT_OK


def cmd_clash(args) -> int:
    t = _parse(args)
    report = detect_clash(t)
    if _machine(args):
        _emit_record(classification_json(classify_nf(t), classify_wcf_nf(t), report))
    elif report.clash_free:
        print("clash free")
    else:
        pos, kind = report.witness
        print(f"clash {kind.value} at {'/'.join(s.value for s in pos) or 'root'}")
    return EXIT_OK


_CHECKERS = {
    "u": check_derivation_u,
    "e": check_derivation_e,
    "n": check_derivation_n,
    "v": check_derivation_v,
}


def cmd_typecheck(args) -> int:
    obj = json.loads(_read_input(args))
    d = derivation_from_json(obj)
    violation = _CHECKERS[args.system](d)
    if violation is None:
        print("ok" if not _machine(args) else json.dumps({"record": "check", "ok": True}))
        return EXIT_OK
    if _machine(args):
        _emit_record({"record": "check", "ok": False,
                      "path": list(violation.path), "reason": violation.reason})
    else:
        print(f"violation at {list(violation.path)}: {violation.reason}")
    return EXIT_CHECK_FAILED


def _derived(res):
    """The derivation an inference returned; a failure is raised instead,
    for `main` to report."""
    if isinstance(res, FuelExhausted):
        raise res
    if isinstance(res, Untypable):
        raise UntypableTerm(f"normal form {print_term(res.normal_form)} has a clash")
    return res


def _report_inference(args, res, size_fn) -> int:
    res = _derived(res)
    if _machine(args):
        _emit_record({"record": "derivation", "version": FORMAT_VERSION,
                      "size": size_fn(res), "derivation": res})
    else:
        print(res.judgement())
        print(f"size={size_fn(res)}")
    return EXIT_OK


def cmd_infer(args) -> int:
    t = _parse(args)
    if args.calculus == "cbn":
        return _report_inference(args, infer_n(t, args.fuel), size_n)
    if args.calculus == "cbv":
        return _report_inference(args, infer_v(t, args.fuel), size_v)
    return _report_inference(args, infer_u(t, args.fuel), size_u)


def cmd_tight(args) -> int:
    res = _derived(infer_tight(_parse(args), args.fuel))
    if _machine(args):
        _emit_record({"record": "derivation", "version": FORMAT_VERSION,
                      "counters": list(res.counters), "tight": is_tight(res),
                      "derivation": res})
    else:
        print(res.judgement())
        print(f"counters=(b={res.b}, e={res.e}, s={res.s})  tight={is_tight(res)}")
    return EXIT_OK


def cmd_embed(args) -> int:
    if args.calculus == "bang":
        print("embed needs --calculus cbn or cbv", file=sys.stderr)
        return EXIT_PARSE
    t = _parse(args)
    image = embed_cbn(t) if args.calculus == "cbn" else embed_cbv(t)
    if _machine(args):
        _emit_record({"record": "term", "version": FORMAT_VERSION, "term": print_term(image)})
    else:
        print(print_term(image))
    return EXIT_OK


def cmd_translate(args) -> int:
    if args.calculus == "bang":
        print("translate needs --calculus cbn or cbv", file=sys.stderr)
        return EXIT_PARSE
    t = _parse(args)
    if args.calculus == "cbn":
        res = infer_n(t, args.fuel)
        translate, size_fn = translate_n_to_u, size_n
    else:
        res = infer_v(t, args.fuel)
        translate, size_fn = translate_v_to_u, size_v
    res = _derived(res)
    translated = translate(res)
    if _machine(args):
        _emit_record({"record": "translation", "version": FORMAT_VERSION,
                      "source": res, "image": translated})
    else:
        print(f"source: {res.judgement()}  (size {size_fn(res)})")
        print(f"image:  {translated.judgement()}  (size {size_u(translated)})")
    return EXIT_OK


def cmd_selftest(args) -> int:
    ok = acceptance.run_all(seed=args.seed)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def fuel(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"fuel must not be negative: {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="bangcalc",
                                  description="bang-calculus interpreter and "
                                              "quantitative type checker")
    sub = top.add_subparsers(dest="command", required=True)

    def term_command(name, fn, reduces, calculus="bang"):
        """A command on a term, with the flags it reads: --fuel if it reduces."""
        p = sub.add_parser(name)
        p.add_argument("term", nargs="?", default=None, help="input term (defaults to stdin)")
        if reduces:
            p.add_argument("--fuel", type=fuel, default=10000)
        p.add_argument("--calculus", choices=("bang", "cbn", "cbv"), default=calculus)
        p.add_argument("--output", choices=("text", "machine"), default="text")
        p.set_defaults(fn=fn)

    for name, fn, reduces in [("parse", cmd_parse, False), ("reduce", cmd_reduce, True),
                              ("trace", cmd_trace, True), ("classify", cmd_classify, False),
                              ("clash", cmd_clash, False), ("infer", cmd_infer, True),
                              ("tight", cmd_tight, True)]:
        term_command(name, fn, reduces)
    sub.choices["parse"].add_argument("--strict", action="store_true",
                                      help="reject unbound names")

    p = sub.add_parser("typecheck", help="check a derivation given as JSON")
    p.add_argument("term", nargs="?", default=None, help="JSON input (defaults to stdin)")
    p.add_argument("--system", choices=("u", "e", "n", "v"), required=True)
    p.add_argument("--output", choices=("text", "machine"), default="text")
    p.set_defaults(fn=cmd_typecheck)

    term_command("embed", cmd_embed, False, calculus="cbn")
    term_command("translate", cmd_translate, True, calculus="cbn")

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_selftest)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as ex:  # argparse has printed its usage message
        return ex.code
    # A command builds only trees, which reference counting frees; the
    # parser's reference cycles are made above, and freed after the pause.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except (ParseError, MalformedDerivation, json.JSONDecodeError) as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        print("nested too deeply: recursion limit exceeded", file=sys.stderr)
        return EXIT_PARSE
    except FuelExhausted:
        print("fuel exhausted", file=sys.stderr)
        return EXIT_FUEL
    except UntypableTerm as ex:
        print(f"untypable: {ex}", file=sys.stderr)
        return EXIT_UNTYPABLE
    except Exception as ex:
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
