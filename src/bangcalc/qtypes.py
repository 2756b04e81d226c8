"""Non-idempotent types: base variables, tight constants, multisets, arrows.

One type AST serves every system here.  Plain systems never produce the
tight constants; the tight system never produces base variables.  A
multiset is kept canonically sorted so bag equality is plain equality.
Typing contexts are dicts from names to multisets that never store an
empty entry (absent means empty).
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass

from .syntax import _DEPTH, memo_spans


@dataclass(frozen=True)
class BaseVar:
    index: int


@dataclass(frozen=True)
class Tight:
    constant: str  # "a" | "b" | "n"


@dataclass(frozen=True)
class Mult:
    elements: tuple["Type", ...]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Arrow:
    domain: Mult
    codomain: "Type"


Type = BaseVar | Tight | Mult | Arrow

TIGHT_ABS = Tight("a")
TIGHT_BANG = Tight("b")
TIGHT_NEUTRAL = Tight("n")
# default target type for neutral subjects during inference
OMEGA = BaseVar(0)

_TIGHT_RANK = {"a": 0, "b": 1, "n": 2}


def sort_key(t: Type):
    match t:
        case BaseVar(i):
            return (0, i)
        case Tight(c):
            return (1, _TIGHT_RANK[c])
        case Mult(elems):
            return (2, len(elems), tuple(sort_key(e) for e in elems))
        case Arrow(dom, cod):
            return (3, sort_key(dom), sort_key(cod))
    raise TypeError(t)


def mult(elements) -> Mult:
    """The multiset of elements, sorted.  Elements already in order, as
    `print_type` writes them, are kept: adjacent elements that are one
    object are not keyed, and `sorted` runs only on a pair out of order."""
    es = tuple(elements)
    key = None  # the key of the pair's first element, once computed
    for a, b in zip(es, es[1:]):
        if a is not b:
            a_key = sort_key(a) if key is None else key
            key = sort_key(b)
            if key < a_key:
                return Mult(tuple(sorted(es, key=sort_key)))
    return Mult(es)


EMPTY_MULT = mult([])


def is_tight_mult(m: Mult) -> bool:
    return all(isinstance(e, Tight) for e in m.elements)


def has_tight_constants(t: Type, memo: dict[int, tuple[Type, bool]] | None = None) -> bool:
    """Whether t holds a tight constant.  Every call given the same `memo`
    (id(node) -> (node, answer), as `TypeMemo`) looks into each node once."""
    if memo is not None:
        hit = memo.get(id(t))
        if hit is not None:
            return hit[1]
    match t:
        case Tight(_):
            found = True
        case BaseVar(_):
            found = False
        case Mult(elems):  # a run of one element object is looked at once
            found = any(has_tight_constants(e, memo)
                        for e, before in zip(elems, (None, *elems)) if e is not before)
        case Arrow(dom, cod):
            found = has_tight_constants(dom, memo) or has_tight_constants(cod, memo)
        case _:
            raise TypeError(t)
    if memo is not None:
        memo[id(t)] = (t, found)
    return found


# ---------------------------------------------------------------------------
# Contexts

Context = dict[str, Mult]


def ctx_get(ctx: Context, x: str) -> Mult:
    return ctx.get(x, EMPTY_MULT)


def ctx_union(*ctxs: Context) -> Context:
    names: dict[str, list[Mult]] = {}
    for ctx in ctxs:
        for x, m in ctx.items():
            if m.elements:
                names.setdefault(x, []).append(m)
    # a name bound in one context only keeps that context's multiset
    return {x: ms[0] if len(ms) == 1 else _merge(ms) for x, ms in sorted(names.items())}


def _merge(ms: list[Mult]) -> Mult:
    """The bag union of sorted multisets.  The other bags' elements go into
    the largest by binary search, so its own elements are not keyed again;
    an element that is the last one goes at the end, where `insort` puts it."""
    i = max(range(len(ms)), key=lambda j: len(ms[j]))
    out = list(ms[i].elements)
    for j, m in enumerate(ms):
        if j != i:
            for e in m.elements:
                if e is out[-1]:
                    out.append(e)
                else:
                    insort(out, e, key=sort_key)
    return Mult(tuple(out))


def ctx_remove(ctx: Context, x: str) -> Context:
    return {y: m for y, m in ctx.items() if y != x}


def ctx_is_tight(ctx: Context) -> bool:
    return all(is_tight_mult(m) for m in ctx.values())


# ---------------------------------------------------------------------------
# Surface syntax:  base vars oN, tight constants a/b/n, [s1,s2], M -> s

# id(node) -> (node, text), as syntax.PrintMemo
TypeMemo = dict[int, tuple[Type, str]]


def print_type(t: Type, memo: TypeMemo | None = None) -> str:
    """Surface syntax of t.  As with `syntax.print_term`, every call given
    the same `memo` prints each node once."""
    if memo is not None:
        hit = memo.get(id(t))
        if hit is not None:
            return hit[1]
    match t:
        case BaseVar(i):
            return f"o{i}"
        case Tight(c):
            return c
        case Mult(elems):
            text = "[" + ",".join(print_type(e, memo) for e in elems) + "]"
        case Arrow(dom, cod):
            text = f"{print_type(dom, memo)} -> {print_type(cod, memo)}"
        case _:
            raise TypeError(t)
    if memo is not None:
        memo[id(t)] = (t, text)
    return text


class TypeParseError(ValueError):
    pass


# text -> the type it parses to; see `parse_type`
TypeParseMemo = dict[str, Type]
_TYPE_MARKS = re.compile(r"([\[\],])")


def parse_type(text: str, memo: TypeParseMemo | None = None) -> Type:
    """Parse surface syntax.  As with `syntax.parse_term`, every call given
    the same `memo` parses each distinct text once: the whole text and each
    multiset's text are looked up first, they and each multiset element's
    text are stored once they have parsed, and a text the memo holds is not
    lexed.  Nor is a run `[E,...,E]` of one element text E the memo holds."""
    if memo is not None:
        hit = memo.get(text)
        if hit is None:
            hit = _run(text, memo)
        if hit is not None:
            return hit
    toks = _TypeTokens(text, memo)
    t, i = _parse_type(toks, 0)
    if i != len(toks.toks):
        raise TypeParseError(f"trailing tokens in type {text!r}")
    if memo is not None:
        memo[text] = t
    return t


def _run(text: str, memo: TypeParseMemo) -> Mult | None:
    """The multiset a run `[E,...,E]`, one element text E that the memo
    holds written k times, parses to, stored in the memo; None for any
    other text.  Only E is scanned: the rest is one string comparison.  The
    memo holds only texts that parsed, which have no "," outside brackets,
    so a held E written k times is a run, however E was found."""
    if text[:1] != "[" or text[-1:] != "]":
        return None
    i = text.find(",")
    e = text[1:i] if i > 0 else text[1:-1]  # the first element, unless that "," lies inside it
    if e.count("[") != e.count("]"):
        depth = 0
        for m in _TYPE_MARKS.finditer(text, 1):
            if depth == 0 and m.group() != "[":
                e = text[1:m.start()]
                break
            depth += _DEPTH[m.group()]
    held = memo.get(e)
    k = (len(text) - 1) // (len(e) + 1)
    if held is None or "[" + ",".join([e] * k) + "]" != text:
        return None
    return memo.setdefault(text, Mult((held,) * k))


class _TypeTokens:
    """The tokens of a type text.  With a memo, each part of the text that
    the memo holds is one "[" token, whose type `hits` holds by token
    index, and `at` holds the offset of each other "[", "," and "]"."""

    def __init__(self, text: str, memo: TypeParseMemo | None):
        self.text, self.memo = text, memo
        self.toks: list[str] = []
        self.hits: dict[int, Type] = {}
        self.at: dict[int, int] | None = None
        i = 0
        if memo is not None:
            self.at = {}
            for a, b, t in memo_spans(text, "[]", memo, inner=False):
                self._lex(i, a)
                self.hits[len(self.toks)] = t
                self.toks.append("[")
                i = b
        self._lex(i, len(text))

    def _lex(self, i: int, n: int) -> None:
        text, toks, at = self.text, self.toks, self.at
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
            elif c in "[],":
                if at is not None:
                    at[len(toks)] = i
                toks.append(c)
                i += 1
            elif text.startswith("->", i):
                toks.append("->")
                i += 2
            elif c == "o" and i + 1 < n and text[i + 1].isdigit():
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                toks.append(text[i:j])
                i = j
            elif c in "abn":
                toks.append(c)
                i += 1
            else:
                raise TypeParseError(f"bad character {c!r} in type")

    def keep(self, a: int, b: int, t: Type, inner: bool) -> Type:
        """t, parsed from the text from token a to token b, without them if
        `inner`; with a memo, the first type parsed from that text."""
        if self.at is None:
            return t
        lo, hi = self.at[a], self.at[b]
        text = self.text[lo + 1:hi] if inner else self.text[lo:hi + 1]
        return self.memo.setdefault(text, t)  # type: ignore[union-attr]


def _parse_type(tt: _TypeTokens, i: int) -> tuple[Type, int]:
    toks = tt.toks
    head, i = _parse_type_atom(tt, i)
    if i < len(toks) and toks[i] == "->":
        if not isinstance(head, Mult):
            raise TypeParseError("arrow domain must be a multiset")
        cod, i = _parse_type(tt, i + 1)
        return Arrow(head, cod), i
    return head, i


def _parse_type_atom(tt: _TypeTokens, i: int) -> tuple[Type, int]:
    toks = tt.toks
    if i >= len(toks):
        raise TypeParseError("unexpected end of type")
    tok = toks[i]
    if tok == "[":
        hit = tt.hits.get(i)
        if hit is not None:
            return hit, i + 1
        start, elems = i, []
        if i + 1 < len(toks) and toks[i + 1] == "]":
            return tt.keep(start, i + 1, mult(elems), False), i + 2
        while True:  # i is at the "[" or "," before an element
            t, j = _parse_type(tt, i + 1)
            if j >= len(toks):
                raise TypeParseError("unterminated multiset")
            if toks[j] not in (",", "]"):
                raise TypeParseError(f"unexpected token {toks[j]!r} in multiset")
            elems.append(tt.keep(i, j, t, True))
            if toks[j] == "]":
                return tt.keep(start, j, mult(elems), False), j + 1
            i = j
    if tok in ("a", "b", "n"):
        return Tight(tok), i + 1
    if tok.startswith("o"):
        return BaseVar(int(tok[1:])), i + 1
    raise TypeParseError(f"unexpected token {tok!r} in type")
