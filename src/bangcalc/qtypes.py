"""Non-idempotent types: base variables, tight constants, multisets, arrows.

One type AST serves every system here.  Plain systems never produce the
tight constants; the tight system never produces base variables.  A
multiset is kept canonically sorted so bag equality is plain equality.
Typing contexts are dicts from names to multisets that never store an
empty entry (absent means empty).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass


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
    es = tuple(elements)
    return Mult(es if len(es) < 2 else tuple(sorted(es, key=sort_key)))


EMPTY_MULT = mult([])


def is_tight_mult(m: Mult) -> bool:
    return all(isinstance(e, Tight) for e in m.elements)


def has_tight_constants(t: Type) -> bool:
    match t:
        case Tight(_):
            return True
        case BaseVar(_):
            return False
        case Mult(elems):
            return any(has_tight_constants(e) for e in elems)
        case Arrow(dom, cod):
            return has_tight_constants(dom) or has_tight_constants(cod)
    raise TypeError(t)


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
    the largest by binary search, so its own elements are not keyed again."""
    i = max(range(len(ms)), key=lambda j: len(ms[j]))
    out = list(ms[i].elements)
    for j, m in enumerate(ms):
        if j != i:
            for e in m.elements:
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


def parse_type(text: str) -> Type:
    toks = _lex_type(text)
    t, i = _parse_type(toks, 0)
    if i != len(toks):
        raise TypeParseError(f"trailing tokens in type {text!r}")
    return t


def _lex_type(text: str) -> list[str]:
    toks: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "[],":
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
    return toks


def _parse_type(toks: list[str], i: int) -> tuple[Type, int]:
    head, i = _parse_type_atom(toks, i)
    if i < len(toks) and toks[i] == "->":
        if not isinstance(head, Mult):
            raise TypeParseError("arrow domain must be a multiset")
        cod, i = _parse_type(toks, i + 1)
        return Arrow(head, cod), i
    return head, i


def _parse_type_atom(toks: list[str], i: int) -> tuple[Type, int]:
    if i >= len(toks):
        raise TypeParseError("unexpected end of type")
    tok = toks[i]
    if tok == "[":
        i += 1
        elems: list[Type] = []
        if i < len(toks) and toks[i] == "]":
            return mult(elems), i + 1
        while True:
            t, i = _parse_type(toks, i)
            elems.append(t)
            if i >= len(toks):
                raise TypeParseError("unterminated multiset")
            if toks[i] == ",":
                i += 1
                continue
            if toks[i] == "]":
                return mult(elems), i + 1
            raise TypeParseError(f"unexpected token {toks[i]!r} in multiset")
    if tok in ("a", "b", "n"):
        return Tight(tok), i + 1
    if tok.startswith("o"):
        return BaseVar(int(tok[1:])), i + 1
    raise TypeParseError(f"unexpected token {tok!r} in type")
