"""Command-line front end.

Exit codes: 0 success, 1 failed check, 2 bad input (a parse error, malformed
derivation JSON, a calculus the command does not take, a type or JSON nested too
deeply to read) or output nested too deeply to write, 3 fuel exhausted, 4 untypable,
5 internal error, 130 interrupted, 141 stdout closed.  `main` returns one of them for
every input and lets no exception escape.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
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
    derivation_from_json, dump_records, position_to_json, record_text, trace_records,
)
from . import acceptance

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_FUEL = 3
EXIT_UNTYPABLE = 4
EXIT_INTERNAL = 5
EXIT_INTERRUPTED = 130  # the shell's code for SIGINT
EXIT_PIPE = 141  # the shell's code for SIGPIPE

# What each calculus (`--calculus`) and type system (`--system`) runs; the
# flags' choices are these tables' keys.  The values are the functions
# themselves, so that a tracer that swaps a module's functions finds them.
_NORMALIZE = {"bang": normalize_dw, "cbn": normalize_n, "cbv": normalize_v}
_INFER = {"bang": infer_u, "cbn": infer_n, "cbv": infer_v}
_SIZE = {"bang": size_u, "cbn": size_n, "cbv": size_v}
_EMBED = {"cbn": embed_cbn, "cbv": embed_cbv}
_TO_U = {"cbn": translate_n_to_u, "cbv": translate_v_to_u}
_CHECKERS = {"u": check_derivation_u, "e": check_derivation_e,
             "n": check_derivation_n, "v": check_derivation_v}


class UntypableTerm(Exception):
    pass


def _read_input(args) -> str:
    return sys.stdin.read() if args.term is None else args.term


def _parse(args) -> Term:
    t = parse_term(_read_input(args), strict=getattr(args, "strict", False))
    if args.calculus != "bang" and not is_lambda_term(t):
        raise ParseError("bang/der are not part of the lambda fragment", 0)
    return t


def _emit(args, record, text) -> int:
    """Print `record` in machine output and `text` otherwise.  Either may be
    a function that builds it, called only for its own output."""
    if args.output == "machine":
        print(record_text(record() if callable(record) else record))
    else:
        print(text() if callable(text) else text)
    return EXIT_OK


def _emit_term(args, t: Term) -> int:
    text = print_term(t)
    return _emit(args, {"record": "term", "version": FORMAT_VERSION, "term": text}, text)


def _bang_refused(args) -> bool:
    """Whether a CBN/CBV-only command was given bang, said on stderr if so."""
    if args.calculus == "bang":
        print(f"{args.command} needs --calculus cbn or cbv", file=sys.stderr)
    return args.calculus == "bang"


def _position(pos) -> str:
    return "/".join(position_to_json(pos)) or "root"


def cmd_parse(args) -> int:
    return _emit_term(args, _parse(args))


def cmd_reduce(args) -> int:
    trace = _NORMALIZE[args.calculus](_parse(args), args.fuel)
    final, steps = print_term(trace.final), len(trace.steps)
    return _emit(args, {"record": "normal_form", "version": FORMAT_VERSION, "term": final,
                        "steps": steps, "b": trace.b, "e": trace.e},
                 f"{final}\nsteps={steps} b={trace.b} e={trace.e}")


def cmd_trace(args) -> int:
    try:
        trace, exhausted = _NORMALIZE[args.calculus](_parse(args), args.fuel), None
    except FuelExhausted as ex:  # the steps taken before the fuel ran out are printed
        trace, exhausted = ex.trace, ex
    if args.output == "machine":
        print(dump_records(trace_records(trace)))
    else:
        print(f"start  {print_term(trace.start)}")
        for i, step in enumerate(trace.steps):
            print(f"[{i}] {step.rule.value:3} at {_position(step.position):24} -> "
                  f"{print_term(step.result)}")
        if exhausted is None:
            cls = classify_nf(trace.final)
            print(f"(b,e)=({trace.b},{trace.e})  normal={cls.normal}  "
                  f"classes={sorted(cls.memberships)}  w-size={w_size(trace.final)}")
    if exhausted is not None:
        raise exhausted
    return EXIT_OK


def cmd_classify(args) -> int:
    t = _parse(args)
    if args.calculus != "bang":
        cls = classify_lambda_nf(t)
        cbn, cbv = sorted(cls.cbn), sorted(cls.cbv)
        return _emit(args, {"record": "classification", "cbn": cbn, "cbv": cbv},
                     f"cbn: {cbn or 'not normal'}\ncbv: {cbv or 'not normal'}")
    cls, wcf, clash = classify_nf(t), classify_wcf_nf(t), detect_clash(t)
    return _emit(args, lambda: classification_json(cls, wcf, clash),
                 f"normal={cls.normal}  classes={sorted(cls.memberships)}\n"
                 f"wcf classes={sorted(wcf.memberships)}  clash_free={clash.clash_free}")


def cmd_clash(args) -> int:
    t = _parse(args)
    report = detect_clash(t)
    text = ("clash free" if report.clash_free else
            f"clash {report.witness[1].value} at {_position(report.witness[0])}")
    return _emit(args, lambda: classification_json(classify_nf(t), classify_wcf_nf(t), report),
                 text)


def cmd_typecheck(args) -> int:
    violation = _CHECKERS[args.system](derivation_from_json(json.loads(_read_input(args))))
    if violation is None:
        print('{"record": "check", "ok": true}' if args.output == "machine" else "ok")
        return EXIT_OK
    _emit(args, {"record": "check", "ok": False, "path": list(violation.path),
                 "reason": violation.reason},
          f"violation at {list(violation.path)}: {violation.reason}")
    return EXIT_CHECK_FAILED


def _derived(res):
    """The derivation an inference returned; a failure is raised instead,
    for `main` to report."""
    if isinstance(res, FuelExhausted):
        raise res
    if isinstance(res, Untypable):
        raise UntypableTerm(f"normal form {print_term(res.normal_form)} has a clash")
    return res


def cmd_infer(args) -> int:
    res = _derived(_INFER[args.calculus](_parse(args), args.fuel))
    size = _SIZE[args.calculus](res)
    return _emit(args, {"record": "derivation", "version": FORMAT_VERSION, "size": size,
                        "derivation": res},
                 lambda: f"{res.judgement()}\nsize={size}")


def cmd_tight(args) -> int:
    res = _derived(infer_tight(_parse(args), args.fuel))
    tight = is_tight(res)
    return _emit(args, {"record": "derivation", "version": FORMAT_VERSION,
                        "counters": list(res.counters), "tight": tight, "derivation": res},
                 lambda: f"{res.judgement()}\n"
                         f"counters=(b={res.b}, e={res.e}, s={res.s})  tight={tight}")


def cmd_embed(args) -> int:
    if _bang_refused(args):
        return EXIT_PARSE
    return _emit_term(args, _EMBED[args.calculus](_parse(args)))


def cmd_translate(args) -> int:
    if _bang_refused(args):
        return EXIT_PARSE
    res = _derived(_INFER[args.calculus](_parse(args), args.fuel))
    image = _TO_U[args.calculus](res)
    return _emit(args, {"record": "translation", "version": FORMAT_VERSION,
                        "source": res, "image": image},
                 lambda: f"source: {res.judgement()}  (size {_SIZE[args.calculus](res)})\n"
                         f"image:  {image.judgement()}  (size {size_u(image)})")


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
        p.add_argument("--calculus", choices=_NORMALIZE, default=calculus)
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
    p.add_argument("--system", choices=_CHECKERS, required=True)
    p.add_argument("--output", choices=("text", "machine"), default="text")
    p.set_defaults(fn=cmd_typecheck)

    term_command("embed", cmd_embed, False, calculus="cbn")
    term_command("translate", cmd_translate, True, calculus="cbn")

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_selftest)
    return top


def main(argv=None) -> int:
    # A command builds only trees, which reference counting frees; the
    # parser's reference cycles are freed after the pause.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as ex:  # argparse has printed its usage message
            return ex.code
        try:
            return args.fn(args)
        finally:  # a closed stdout shows here, not in the flush at exit
            sys.stdout.flush()
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
    except BrokenPipeError:  # as Python's notes on SIGPIPE advise, what is left
        # to write goes to devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as ex:
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()
