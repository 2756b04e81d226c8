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

from .syntax import Lexer, TokenTable


@dataclass(slots=True, unsafe_hash=True)  # not frozen, for the reason given at syntax._Node
class BaseVar:
    index: int


@dataclass(slots=True, unsafe_hash=True)
class Tight:
    constant: str  # "a" | "b" | "n"


@dataclass(slots=True, unsafe_hash=True)
class Mult:
    elements: tuple["Type", ...]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(slots=True, unsafe_hash=True)
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


def is_sorted(types) -> bool:
    """Whether the sequence of types is in `sort_key` order.  Adjacent types
    that are equal are not keyed, and each other type once."""
    key = None  # the key of the pair's first element, once computed
    for a, b in zip(types, types[1:]):
        if a is not b and a != b:  # equal types have one key
            a_key = sort_key(a) if key is None else key
            key = sort_key(b)
            if key < a_key:
                return False
    return True


def mult(elements) -> Mult:
    """The multiset of elements, sorted.  Elements already in order, as
    `print_type` writes them, are kept, and `sorted` runs only on a pair
    out of order."""
    es = tuple(elements)
    return Mult(es if is_sorted(es) else tuple(sorted(es, key=sort_key)))


EMPTY_MULT = mult([])


def is_tight_mult(m: Mult) -> bool:
    return all(isinstance(e, Tight) for e in m.elements)


def has_tight_constants(t: Type, memo: dict[int, tuple[Type, bool]]) -> bool:
    """Whether t holds a tight constant.  Every call given the same `memo`
    (id(node) -> (node, answer), as `TypeMemo`) looks into each node once."""
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    match t:
        case Tight(_):
            found = True
        case BaseVar(_):
            found = False
        # k copies of one element object (a church context entry) are
        # looked at once, without a loop over them
        case Mult(elems) if elems and elems[0] is elems[-1] and elems.count(elems[0]) == len(elems):
            found = has_tight_constants(elems[0], memo)
        case Mult(elems):  # a run of one element object is looked at once
            found = any(has_tight_constants(e, memo)
                        for e, before in zip(elems, (None, *elems)) if e is not before)
        case Arrow(dom, cod):
            found = has_tight_constants(dom, memo) or has_tight_constants(cod, memo)
        case _:
            raise TypeError(t)
    memo[id(t)] = (t, found)
    return found


# ---------------------------------------------------------------------------
# Contexts

Context = dict[str, Mult]


def ctx_get(ctx: Context, x: str) -> Mult:
    return ctx.get(x, EMPTY_MULT)


def ctx_union(*ctxs: Context) -> Context:
    """The union of the contexts: each name's multisets merged, names in
    sorted order, empty entries dropped.  A lone context with no empty
    entry is returned as it is."""
    if len(ctxs) == 2:
        return _union2(*ctxs)
    if len(ctxs) == 1:
        return _lone(ctxs[0])
    live = [ctx for ctx in ctxs if ctx]
    if len(live) <= 1:
        return _lone(live[0]) if live else {}
    names: dict[str, list[Mult]] = {}
    for ctx in ctxs:
        for x, m in ctx.items():
            if m.elements:
                names.setdefault(x, []).append(m)
    # a name bound in one context only keeps that context's multiset
    return {x: ms[0] if len(ms) == 1 else _merge(ms) for x, ms in sorted(names.items())}


def _union2(a: Context, b: Context) -> Context:
    """`ctx_union(a, b)`, the union that application and closure rules
    take, without collecting each name's multisets in lists."""
    if not a or not b:
        return _lone(a or b)
    out = {}
    for x in sorted(a.keys() | b.keys()):
        m, n = a.get(x), b.get(x)
        if m is None or not m.elements:
            if n is not None and n.elements:
                out[x] = n
        elif n is None or not n.elements:
            out[x] = m
        else:
            out[x] = _merge([m, n])
    return out


def _lone(ctx: Context) -> Context:
    """ctx, or its non-empty entries in sorted order when it has an empty one."""
    for m in ctx.values():
        if not m.elements:
            return {x: m for x, m in sorted(ctx.items()) if m.elements}
    return ctx  # nothing to merge, nothing to drop


def _merge(ms: list[Mult]) -> Mult:
    """The bag union of sorted multisets.  The other bags' elements go into
    the largest by binary search, so its own elements are not keyed again.
    An element equal to the last one goes at the end, where `insort` puts
    it, as that last object: a run stays one object and is not keyed."""
    i = max(range(len(ms)), key=lambda j: len(ms[j]))
    out = list(ms[i].elements)
    for j, m in enumerate(ms):
        if j != i:
            for e in m.elements:
                last = out[-1]
                if e is last or e == last:
                    out.append(last)
                else:
                    insort(out, e, key=sort_key)
    return Mult(tuple(out))


def ctx_remove(ctx: Context, x: str) -> Context:
    if x not in ctx:
        return ctx
    return {y: m for y, m in ctx.items() if y != x}


def ctx_is_tight(ctx: Context) -> bool:
    return all(is_tight_mult(m) for m in ctx.values())


# ---------------------------------------------------------------------------
# Surface syntax:  base vars oN, tight constants a/b/n, [s1,s2], M -> s

# id(node) -> (node, text), as syntax.FoldMemo
TypeMemo = dict[int, tuple[Type, str]]


def print_type(t: Type, memo: TypeMemo | None = None) -> str:
    """Surface syntax of t.  Every call given the same `memo` prints each
    node once, but the codomain arrows of a chain, whose text is the chain's."""
    if memo is None:
        memo = {}
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    cls = type(t)
    if cls is Mult:
        texts, before = [], None
        for e in t.elements:  # each run of one element object printed once
            if e is not before:
                e_text, before = print_type(e, memo), e
            texts.append(e_text)
        text = "[" + ",".join(texts) + "]"
    elif cls is Arrow:  # codomains followed by loop to one held or not an arrow
        parts, cod = [print_type(t.domain, memo)], t.codomain
        while type(cod) is Arrow and id(cod) not in memo:
            parts.append(print_type(cod.domain, memo))
            cod = cod.codomain
        text = f"{' -> '.join(parts)} -> {print_type(cod, memo)}"
    elif cls is BaseVar:
        return f"o{t.index}"
    elif cls is Tight:
        return t.constant
    else:
        raise TypeError(t)
    memo[id(t)] = (t, text)
    return text


class TypeParseError(ValueError):
    pass


# text -> the type it parses to; see `parse_type`
TypeParseMemo = dict[str, Type]

TYPE_TOKENS = TokenTable(
    marks={"->": "->", **{c: c for c in "[],"}, **{c: "tight" for c in "abn"}},
    start=frozenset("o"),
    cont=frozenset("0123456789"),
    word=lambda w: "base" if len(w) > 1 else None,  # o and one or more decimal digits
    bad=lambda c, i: TypeParseError(f"bad character {c!r} in type"))


def parse_type(text: str, memo: TypeParseMemo | None = None) -> Type:
    """Parse surface syntax.  Every call given the same `memo` reads each
    distinct text once: a text the memo holds or assembles (see
    `_assembled`) is not lexed, and a parse stores the whole text and each
    multiset's and each element's text, so equal texts give one object."""
    if memo is None:
        memo = {}
    else:
        hit = _assembled(text, memo)
        if hit is not None:
            return hit
    toks = Lexer(text, TYPE_TOKENS)
    t = _parse_type(toks, memo)
    if toks.peek()[0] != "eof":
        raise TypeParseError(f"trailing tokens in type {text!r}")
    return memo.setdefault(text, t)


def _assembled(text: str, memo: TypeParseMemo) -> Type | None:
    """The type of a text the memo holds or that is one step from held
    texts, stored once assembled; None for any other text, which is then
    parsed.  One step is a run `[E,...,E]` of a held E, an arrow `M -> T`
    of a held multiset M and a held T, or a one-element multiset `[T]` of
    a held T or of such an arrow (V's context entry `[[run] -> T]`).  A run
    is first tried with E ending at the first ",", which needs no scan;
    else `_leading` finds the ends of M and of E in one pass.  So a text
    costs at most two scans and a fixed number of lookups.  The memo holds
    only texts that parsed, whose brackets balance, so a held E or M is
    the one the text opens with, a held M is a Mult, and the text parses
    to what it is assembled to.  Nothing here parses."""
    hit = memo.get(text)
    if hit is not None or text[:1] != "[":
        return hit
    hit = _run(text, text.find(","), memo)  # E without a ","
    if hit is None:
        comma, end = _leading(text)
        if end < len(text):
            hit = _arrow(text, end, memo)
        elif comma > 0:  # a run, or nothing
            hit = _run(text, comma, memo)
        else:  # of one element
            e = text[1:-1]
            hit = memo.get(e)
            if hit is None and e[:1] == "[":
                hit = _arrow(e, _leading(e)[1], memo)
            hit = None if hit is None else Mult((hit,))
    if hit is not None:
        memo[text] = hit
    return hit


def _arrow(text: str, end: int, memo: TypeParseMemo) -> Arrow | None:
    """The text as `M -> T`, M held and ending at `end`, T held; or None."""
    dom = memo.get(text[:end]) if end > 0 and text.startswith(" -> ", end) else None
    cod = None if dom is None else memo.get(text[end + 4:])
    return None if cod is None else Arrow(dom, cod)


def _run(text: str, comma: int, memo: TypeParseMemo) -> Mult | None:
    """The text as a run `[E,...,E]` of the held element text E that ends
    at `comma`, or None."""
    e = memo.get(text[1:comma]) if comma > 0 else None
    if e is None:
        return None
    k = (len(text) - 1) // comma
    return Mult((e,) * k) if "[" + ",".join([text[1:comma]] * k) + "]" == text else None


_MARKS = re.compile(r"[][,]")


def _leading(text: str) -> tuple[int, int]:
    """For a text that opens with "[": the index of the first "," between
    the elements of that multiset (-1 if none) and the index just past the
    "]" that closes it (-1 if none)."""
    depth, comma = 0, -1
    for m in _MARKS.finditer(text):
        c = m[0]
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
            if not depth:
                return comma, m.end()
        elif depth == 1 and comma < 0:
            comma = m.start()
    return comma, -1


def _parse_type(toks: Lexer, memo: TypeParseMemo) -> Type:
    head = _parse_type_atom(toks, memo)
    if toks.peek()[0] == "->":
        toks.next()
        if not isinstance(head, Mult):
            raise TypeParseError("arrow domain must be a multiset")
        return Arrow(head, _parse_type(toks, memo))
    return head


def _parse_type_atom(toks: Lexer, memo: TypeParseMemo) -> Type:
    k, v, p = toks.next()
    if k == "[":
        text = toks.text
        if toks.peek()[0] == "]":
            return memo.setdefault(text[p:toks.next()[2] + 1], EMPTY_MULT)
        elems, q = [], p  # q is at the "[" or "," before an element
        while True:
            t = _parse_type(toks, memo)
            k, v, r = toks.next()
            if k not in (",", "]"):
                raise TypeParseError("unterminated multiset" if k == "eof"
                                     else f"unexpected token {v!r} in multiset")
            elems.append(memo.setdefault(text[q + 1:r], t))
            if k == "]":
                return memo.setdefault(text[p:r + 1], mult(elems))
            q = r
    if k == "tight":
        return Tight(v)
    if k == "base":
        return BaseVar(int(v[1:]))
    if k == "eof":
        raise TypeParseError("unexpected end of type")
    raise TypeParseError(f"unexpected token {v!r} in type")
