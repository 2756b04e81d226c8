"""Terms of the bang calculus: syntax, parsing, printing, substitution.

Terms are immutable trees.  Six constructors:

    Var(x)            variable
    App(t, u)         application
    Abs(x, t)         abstraction  \\x. t
    Bang(t)           !t
    Der(t)            der(t)
    Sub(t, x, u)      closure  t[x \\ u]   (x binds in t only)

Lambda terms (for the CBN/CBV fragment) are the Bang/Der-free subset of
the same type; see `is_lambda_term`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import itemgetter
from typing import Any


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Abs:
    binder: str
    body: "Term"


@dataclass(frozen=True)
class Bang:
    body: "Term"


@dataclass(frozen=True)
class Der:
    body: "Term"


@dataclass(frozen=True)
class Sub:
    body: "Term"
    binder: str
    arg: "Term"


Term = Var | App | Abs | Bang | Der | Sub


def free_vars(t: Term) -> frozenset[str]:
    """The free names of t, computed once per node and kept on it.

    The set lives in the node's instance dict, outside the dataclass
    fields, so equality, hashing, repr and pattern matching ignore it.  A
    node whose set equals a child's shares the child's frozenset."""
    try:
        return t._fv  # type: ignore[union-attr]
    except AttributeError:
        pass
    match t:
        case Var(x):
            fv = frozenset((x,))
        case App(f, a):
            fv = _union(free_vars(f), free_vars(a))
        case Abs(x, b):
            fv = _without(free_vars(b), x)
        case Bang(b) | Der(b):
            fv = free_vars(b)
        case Sub(b, x, a):
            fv = _union(_without(free_vars(b), x), free_vars(a))
        case _:
            raise TypeError(t)
    object.__setattr__(t, "_fv", fv)
    return fv


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _without(a: frozenset[str], x: str) -> frozenset[str]:
    return a - {x} if x in a else a


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """Least-suffix fresh name: base itself, else stem0, stem1, ..."""
    if base not in avoid:
        return base
    stem = base.rstrip("0123456789") or base
    k = 0
    while f"{stem}{k}" in avoid:
        k += 1
    return f"{stem}{k}"


def subst_meta(t: Term, x: str, u: Term) -> Term:
    """Capture-avoiding meta-level substitution t{x:=u}.

    Deterministic: bound names are refreshed with `fresh_name` only when
    they would capture a free variable of u.
    """
    if x not in free_vars(t):
        return t
    match t:
        case Var(_):
            return u  # x free in t and t is a variable, so t == Var(x)
        case App(f, a):
            return App(subst_meta(f, x, u), subst_meta(a, x, u))
        case Bang(b):
            return Bang(subst_meta(b, x, u))
        case Der(b):
            return Der(subst_meta(b, x, u))
        case Abs(y, b):
            # x in fv(t) implies y != x
            fvu = free_vars(u)
            if y in fvu:
                y2 = fresh_name(y, fvu | free_vars(b) | {x})
                b = subst_meta(b, y, Var(y2))
                y = y2
            return Abs(y, subst_meta(b, x, u))
        case Sub(b, y, a):
            a2 = subst_meta(a, x, u) if x in free_vars(a) else a
            if x != y and x in free_vars(b):
                fvu = free_vars(u)
                if y in fvu:
                    y2 = fresh_name(y, fvu | free_vars(b) | {x})
                    b = subst_meta(b, y, Var(y2))
                    y = y2
                b = subst_meta(b, x, u)
            return Sub(b, y, a2)
    raise TypeError(t)


def _canon(t: Term, env: dict[str, int], depth: int):
    match t:
        case Var(x):
            return ("b", env[x]) if x in env else ("f", x)
        case App(f, a):
            return ("@", _canon(f, env, depth), _canon(a, env, depth))
        case Abs(x, b):
            return ("\\", _canon(b, {**env, x: depth}, depth + 1))
        case Bang(b):
            return ("!", _canon(b, env, depth))
        case Der(b):
            return ("d", _canon(b, env, depth))
        case Sub(b, x, a):
            return ("s", _canon(b, {**env, x: depth}, depth + 1), _canon(a, env, depth))
    raise TypeError(t)


def canon_key(t: Term):
    """Nameless canonical form; equal keys iff alpha-equivalent terms."""
    return _canon(t, {}, 0)


def alpha_eq(t: Term, u: Term) -> bool:
    return t == u or canon_key(t) == canon_key(u)


def w_size(t: Term) -> int:
    match t:
        case Var(_):
            return 0
        case App(f, a):
            return 1 + w_size(f) + w_size(a)
        case Abs(_, b):
            return 1 + w_size(b)
        case Bang(_):
            return 0
        case Der(b):
            return 1 + w_size(b)
        case Sub(b, _, a):
            return 1 + w_size(b) + w_size(a)
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Closure spines

class ShapeClass(Enum):
    ABS = "abs"
    BANG = "bang"
    OTHER = "other"


@dataclass(frozen=True)
class ListDecomposition:
    """Maximal outer closure spine, outermost first, plus a non-Sub core."""
    spine: tuple[tuple[str, Term], ...]
    core: Term

    def rewrap(self) -> Term:
        t = self.core
        for binder, arg in reversed(self.spine):
            t = Sub(t, binder, arg)
        return t

    @property
    def shape(self) -> ShapeClass:
        return shape_of_core(self.core)


def shape_of_core(core: Term) -> ShapeClass:
    if isinstance(core, Abs):
        return ShapeClass.ABS
    if isinstance(core, Bang):
        return ShapeClass.BANG
    return ShapeClass.OTHER


def decompose_list(t: Term) -> ListDecomposition:
    spine: list[tuple[str, Term]] = []
    while isinstance(t, Sub):
        spine.append((t.binder, t.arg))
        t = t.body
    return ListDecomposition(tuple(spine), t)


def shape_of(t: Term) -> ShapeClass:
    return decompose_list(t).shape


def is_abs_shaped(t: Term) -> bool:
    return shape_of(t) is ShapeClass.ABS


def is_bang_shaped(t: Term) -> bool:
    return shape_of(t) is ShapeClass.BANG


# ---------------------------------------------------------------------------
# Lambda-fragment helpers

def is_lambda_term(t: Term) -> bool:
    """True iff t contains no Bang/Der (the CBN/CBV source fragment)."""
    match t:
        case Var(_):
            return True
        case App(f, a):
            return is_lambda_term(f) and is_lambda_term(a)
        case Abs(_, b):
            return is_lambda_term(b)
        case Sub(b, _, a):
            return is_lambda_term(b) and is_lambda_term(a)
        case _:
            return False


# ---------------------------------------------------------------------------
# Parser

class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at offset {pos})")
        self.pos = pos


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_CONT = _IDENT_START | set("0123456789_'")


_MARKS = {"()": re.compile(r"([()])"), "[]": re.compile(r"([\[\]])")}
_DEPTH = {"(": 1, "[": 1, ")": -1, "]": -1, ",": 0}


def memo_spans(text: str, pair: str, memo: dict,
               inner: bool) -> list[tuple[int, int, Any]]:
    """The outermost bracketed parts of text that the memo holds, as
    (start, end, value) in text order.  `pair` is the brackets, "()" or
    "[]".  With `inner`, a pair is looked up by the text between its
    brackets, otherwise by its whole text.  Nothing inside a hit is looked
    up.  The text is not split when one lookup settles it: when it has one
    opening bracket, whose pair ends at the next closing one; or, with
    `inner`, when the text between the first opening and the last closing
    bracket is a hit, as the memo holds only texts that parsed, whose
    brackets balance: then these two are a pair, and the only outermost one."""
    opener, closer = pair
    o = text.find(opener)
    if o < 0:
        return []
    one = text.find(opener, o + 1) < 0
    if inner or one:
        c = text.find(closer, o) if one else text.rfind(closer)
        hit = memo.get(text[o + 1:c] if inner else text[o:c + 1]) if o < c else None
        if hit is not None or one:
            return [] if hit is None else [(o, c + 1, hit)]
    parts = _MARKS[pair].split(text)
    at = list(accumulate(map(len, parts)))[::2]  # the offset of each mark
    chars = parts[1::2]
    depth = list(accumulate(map(_DEPTH.__getitem__, chars)))  # after each mark
    spans: list[tuple[int, int, Any]] = []
    todo = [(0, len(chars))]  # ranges of marks whose pairs, one level down, to look up
    while todo:
        s, j = todo.pop()
        while s < j:
            if chars[s] != opener:
                s += 1
                continue
            try:  # a pair closes where the depth first falls back below its open's
                e = depth.index(depth[s] - 1, s + 1)
            except ValueError:
                break  # an unclosed pair: the rest lies inside it
            o, c = at[s], at[e]
            hit = memo.get(text[o + 1:c] if inner else text[o:c + 1])
            if hit is not None:
                spans.append((o, c + 1, hit))
            else:
                todo.append((s + 1, e))
            s = e + 1
    spans.sort(key=itemgetter(0))
    return spans


class _Tokens:
    def __init__(self, text: str, memo: "ParseMemo | None" = None):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []  # (kind, value, pos)
        self.memo = memo
        # offset of a "(" -> the term between it and its ")", which the
        # memo holds: the "(" is the one token lexed for that text
        self.hits: dict[int, Term] = {}
        i = 0
        if memo is not None:
            for a, b, t in memo_spans(text, "()", memo, inner=True):
                self._lex(i, a)
                self.toks.append(("(", "(", a))
                self.hits[a] = t
                i = b
        self._lex(i, len(text))
        self.toks.append(("eof", "", len(text)))
        self.i = 0

    def _lex(self, i: int, n: int) -> None:
        s = self.text
        while i < n:
            c = s[i]
            if c.isspace():
                i += 1
                continue
            if c in _IDENT_START:
                j = i + 1
                while j < n and s[j] in _IDENT_CONT:
                    j += 1
                word = s[i:j]
                self.toks.append(("der" if word == "der" else "ident", word, i))
                i = j
            elif s.startswith(":=", i):
                self.toks.append(("sep", ":=", i))
                i += 2
            elif c in "\\!()[].λ":
                kind = {"λ": "lambda", "\\": "backslash"}.get(c, c)
                self.toks.append((kind, c, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {c!r}", i)

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> tuple[str, str, int]:
        k, v, p = self.next()
        if k != kind:
            raise ParseError(f"expected {kind}, found {v!r}", p)
        return k, v, p


# text -> the term it parses to; see `parse_term`
ParseMemo = dict[str, Term]


def parse_term(text: str, strict: bool = False, memo: ParseMemo | None = None) -> Term:
    """Parse surface syntax.

    Grammar (prefix ! / der bind tighter than application, postfix
    closures bind tighter still, application is left-associative, a
    lambda body extends as far right as possible):

        term  := abs | app
        abs   := ("\\" | "λ") ident "." term
        app   := app post | post
        post  := atom { "[" ident ("\\" | ":=") term "]" }
        atom  := ident | "!" atom | "der" atom | "der" "(" term ")"
               | "(" term ")"

    With strict=True, free names are rejected.

    Every call given the same `memo` parses each distinct text once: the
    whole text and the text inside each pair of parentheses are looked up
    first, and stored once they have parsed, so equal texts give the same
    term object and a text the memo holds is not lexed again.  A strict
    parse does not use the memo.
    """
    if strict:
        memo = None
    elif memo is not None:
        hit = memo.get(text)
        if hit is not None:
            return hit
    toks = _Tokens(text, memo)
    t = _parse_term(toks)
    k, v, p = toks.peek()
    if k != "eof":
        raise ParseError(f"trailing input {v!r}", p)
    if strict and free_vars(t):
        names = ", ".join(sorted(free_vars(t)))
        raise ParseError(f"unbound names: {names}", 0)
    if memo is not None:
        memo[text] = t
    return t


def _parse_term(toks: _Tokens) -> Term:
    k, _, _ = toks.peek()
    if k in ("backslash", "lambda"):
        nxt = toks.toks[toks.i + 1]
        # a backslash starts an abstraction only when followed by a binder
        if nxt[0] == "ident":
            toks.next()
            _, x, _ = toks.expect("ident")
            toks.expect(".")
            return Abs(x, _parse_term(toks))
    return _parse_app(toks)


def _parse_app(toks: _Tokens) -> Term:
    t = _parse_post(toks)
    while True:
        k, _, _ = toks.peek()
        if k in ("ident", "!", "der", "("):
            t = App(t, _parse_post(toks))
        else:
            return t


def _parse_post(toks: _Tokens) -> Term:
    t = _parse_atom(toks)
    while toks.peek()[0] == "[":
        toks.next()
        _, x, _ = toks.expect("ident")
        k, v, p = toks.next()
        if k not in ("backslash", "sep"):
            raise ParseError(f"expected \\\\ or := in closure, found {v!r}", p)
        arg = _parse_term(toks)
        toks.expect("]")
        t = Sub(t, x, arg)
    return t


def _parse_atom(toks: _Tokens) -> Term:
    k, v, p = toks.next()
    if k == "ident":
        return Var(v)
    if k == "!":
        return Bang(_parse_atom(toks))
    if k == "der":
        if toks.peek()[0] == "(":
            toks.next()
            return Der(_parse_parens(toks))
        return Der(_parse_atom(toks))
    if k == "(":
        return _parse_parens(toks)
    raise ParseError(f"unexpected token {v!r}", p)


def _parse_parens(toks: _Tokens) -> Term:
    """The term inside a "(" just read, and its ")".  With a memo, a text
    the memo holds was lexed as the "(" alone; one parsed here is stored."""
    p = toks.toks[toks.i - 1][2]
    t = toks.hits.get(p)
    if t is not None:
        return t
    t = _parse_term(toks)
    q = toks.expect(")")[2]
    if toks.memo is not None:
        t = toks.memo.setdefault(toks.text[p + 1:q], t)
    return t


# ---------------------------------------------------------------------------
# Printer

# id(node) -> (node, text); the node is held so that its id stays its own
PrintMemo = dict[int, tuple[Term, str]]


def _atom_str(t: Term, memo: PrintMemo | None) -> str:
    """Render t as an atom, parenthesizing when the grammar requires it."""
    match t:
        case Var(x):
            return x
        case Bang(b):
            return "!" + _atom_str(b, memo)
        case Der(_):
            return print_term(t, memo)
        case _:
            return "(" + print_term(t, memo) + ")"


def print_term(t: Term, memo: PrintMemo | None = None) -> str:
    """Surface syntax of t.  Every call given the same `memo` prints each
    node once: subterms shared between the terms it prints are looked up."""
    if memo is not None:
        hit = memo.get(id(t))
        if hit is not None:
            return hit[1]
    match t:
        case Var(x):
            return x
        case Abs(x, b):
            text = f"\\{x}. {print_term(b, memo)}"
        case App(f, a):
            fs = f"({print_term(f, memo)})" if isinstance(f, Abs) else print_term(f, memo)
            match a:
                case App(_, _) | Abs(_, _):
                    text = f"{fs} ({print_term(a, memo)})"
                case _:
                    text = f"{fs} {print_term(a, memo)}"
        case Bang(b):
            text = "!" + _atom_str(b, memo)
        case Der(b):
            text = f"der({print_term(b, memo)})"
        case Sub(b, x, a):
            match b:
                case Var(_) | Bang(_) | Der(_) | Sub(_, _, _):
                    bs = print_term(b, memo)
                case _:
                    bs = f"({print_term(b, memo)})"
            text = f"{bs}[{x} \\ {print_term(a, memo)}]"
        case _:
            raise TypeError(t)
    if memo is not None:
        memo[id(t)] = (t, text)
    return text
