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

from dataclasses import dataclass
from typing import Any, Callable, Generator


class _Node:
    """The slot a term keeps its free names in (see `free_vars`).  Terms are
    never changed once built, but not frozen: a frozen dataclass sets each
    field through `object.__setattr__`, which made building a node cost
    about three times as much."""
    __slots__ = ("_fv",)


@dataclass(slots=True, unsafe_hash=True)
class Var(_Node):
    name: str


@dataclass(slots=True, unsafe_hash=True)
class App(_Node):
    fun: "Term"
    arg: "Term"


@dataclass(slots=True, unsafe_hash=True)
class Abs(_Node):
    binder: str
    body: "Term"


@dataclass(slots=True, unsafe_hash=True)
class Bang(_Node):
    body: "Term"


@dataclass(slots=True, unsafe_hash=True)
class Der(_Node):
    body: "Term"


@dataclass(slots=True, unsafe_hash=True)
class Sub(_Node):
    body: "Term"
    binder: str
    arg: "Term"


Term = Var | App | Abs | Bang | Der | Sub

# the children of each former, in the order every walk takes them
CHILDREN = {Var: (), App: ("fun", "arg"), Abs: ("body",), Bang: ("body",), Der: ("body",),
            Sub: ("body", "arg")}


def _children(t: Term) -> list[Term]:
    """t's children (see `CHILDREN`); TypeError if t is no term."""
    attrs = CHILDREN.get(type(t))
    if attrs is None:
        raise TypeError(t)
    return [getattr(t, attr) for attr in attrs]


def free_vars(t: Term) -> frozenset[str]:
    """The free names of t.  Each node keeps its set in its `_fv` slot, which
    the dataclass methods ignore; a node whose set equals a child's shares
    that set."""
    fv = getattr(t, "_fv", None)
    return fv if fv is not None else unwind(_free_vars(t))


def _free_vars(t: Term) -> Walk:
    """The walk of free_vars for a t that holds no set: it yields only for
    a child that holds none and is no variable."""
    sets = []
    for child in _children(t):
        fv = getattr(child, "_fv", None)
        if fv is None and type(child) is Var:
            fv = child._fv = frozenset((child.name,))
        sets.append(fv if fv is not None else (yield _free_vars(child)))
    fv = sets[0] if sets else frozenset((t.name,))  # no child: a variable
    if (type(t) is Abs or type(t) is Sub) and t.binder in fv:
        fv = fv - {t.binder}
    if len(sets) == 2 and not sets[1] <= fv:  # else fv is the union, as is
        fv = sets[1] if fv <= sets[1] else fv | sets[1]
    t._fv = fv
    return fv


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """The least-suffix fresh name for base, which is in `avoid`: stem0,
    stem1, ..., where stem is base without its trailing digits."""
    stem = base.rstrip("0123456789") or base
    k = 0
    while f"{stem}{k}" in avoid:
        k += 1
    return f"{stem}{k}"


# ---------------------------------------------------------------------------
# The driver of the recursive walkers

Walk = Generator[Any, Any, Any]  # see unwind


def unwind(walk: Walk) -> Any:
    """The value of `walk`, a generator that yields each sub-walk whose
    value it needs, is sent that value and returns its own.  The waiting
    walks are kept on an explicit stack, so that a deep walk does not
    exhaust the interpreter's: the trampoline of Ganz, Friedman & Wand,
    "Trampolined style" (ICFP 1999).  An exception ends the whole run."""
    waiting: list[Walk] = []
    value = None
    while True:
        try:
            sub = walk.send(value)
        except StopIteration as done:
            if not waiting:
                return done.value
            walk, value = waiting.pop(), done.value
            continue
        waiting.append(walk)
        walk, value = sub, None


def subst_meta(t: Term, x: str, u: Term) -> Term:
    """Capture-avoiding meta-level substitution t{x:=u}.

    Deterministic: bound names are refreshed with `fresh_name` only when
    they would capture a free variable of u.
    """
    return t if x not in free_vars(t) else unwind(_subst_meta(t, x, u))


def _subst_meta(t: Term, x: str, u: Term) -> Walk:
    """The walk of t{x:=u}, for x free in t.  A part without x free is
    kept as it stands, without a walk of its own."""
    match t:
        case Var(_):
            return u  # x free in t and t is a variable, so t == Var(x)
        case App(f, a):
            return App(f if x not in free_vars(f) else (yield _subst_meta(f, x, u)),
                       a if x not in free_vars(a) else (yield _subst_meta(a, x, u)))
        case Bang(b):
            return Bang((yield _subst_meta(b, x, u)))
        case Der(b):
            return Der((yield _subst_meta(b, x, u)))
        case Abs(y, b):  # x in fv(t) implies y != x
            return Abs(*(yield _subst_under(y, b, x, u)))
        case Sub(b, y, a):
            if x != y and x in free_vars(b):
                y, b = yield _subst_under(y, b, x, u)
            return Sub(b, y, a if x not in free_vars(a) else (yield _subst_meta(a, x, u)))
    raise TypeError(t)


def _subst_under(y: str, b: Term, x: str, u: Term) -> Walk:
    """The binder y (not x) and its body b, in which x is free, with u for
    x, y refreshed first when it would capture a free variable of u."""
    fvu = free_vars(u)
    if y in fvu:
        y2 = fresh_name(y, fvu | free_vars(b) | {x})
        y, b = y2, b if y not in free_vars(b) else (yield _subst_meta(b, y, Var(y2)))
    return y, (yield _subst_meta(b, x, u))


_CANON_TAG = {App: "@", Abs: "\\", Bang: "!", Der: "d", Sub: "s"}


def canon_key(t: Term) -> tuple:
    """Nameless canonical form; equal keys iff alpha-equivalent terms.  It is
    t in pre-order, flat, so that it is compared and hashed without
    recursion: a bound variable is "b" and the depth of its binder, a free
    one "f" and its name, any other node its tag."""
    key: list = []
    unwind(_canon_key(t, key, {}, 0))
    return tuple(key)


def _canon_key(t: Term, key: list, env: dict[str, int | None], depth: int) -> Walk:
    """The walk that appends t's key to `key`, under the binders `env` maps
    to their depths (None: free), `depth` of them entered."""
    cls = type(t)
    if cls is Var:
        d = env.get(t.name)
        key += ("f", t.name) if d is None else ("b", d)
        return
    parts = _children(t)
    key.append(_CANON_TAG[cls])
    if cls is Abs or cls is Sub:
        x = t.binder
        outer, env[x] = env.get(x), depth
        yield _canon_key(parts.pop(0), key, env, depth + 1)
        env[x] = outer  # a closure's argument is outside its binder
    for part in parts:
        yield _canon_key(part, key, env, depth)


def term_eq(t: Term, u: Term) -> bool:
    """t == u, walked on `unwind` so that a deep term does not exhaust the
    interpreter's stack; subterms that are one object are not walked."""
    return t is u or unwind(_term_eq(t, u))


def _term_eq(t: Term, u: Term) -> Walk:
    """The walk of t == u for distinct objects: False at the first
    difference, children that are one object taken as equal."""
    cls = type(t)
    if cls is not type(u):
        return False
    if cls is Var:
        return t.name == u.name
    if (cls is Abs or cls is Sub) and t.binder != u.binder:
        return False
    for a, b in zip(_children(t), _children(u)):
        if a is not b and not (yield _term_eq(a, b)):
            return False
    return True


def alpha_eq(t: Term, u: Term) -> bool:
    return term_eq(t, u) or canon_key(t) == canon_key(u)


# ---------------------------------------------------------------------------
# Folds: the measures, grammars, embeddings and printing, bottom-up

# id(node) -> (node, its value under one fold table); the node is held so
# that its id stays its own
FoldMemo = dict[int, tuple[Any, Any]]

_FOLD_DEPTH = 200  # the levels a fold recurses; its callers need that much stack


def fold(t: Term, table: dict, memo: FoldMemo | None = None) -> Any:
    """The value of t under `table`, computed post-order, left child first:
    recursively down to `_FOLD_DEPTH` levels and on `unwind` below them, so
    that a deep term does not exhaust the interpreter's stack.

    `table` maps each former it takes to (the attributes of the children
    it enters, a function of the node and those children's values, in that
    order).  A node of a former that enters no child is valued where it is
    met; every other node's value is kept in `memo`, so every call given
    the same memo computes each such subterm once.  A memo belongs to one
    table.  TypeError on a former the table does not take."""
    if memo is None:
        memo = {}
    return _fold_down(t, table, memo, _FOLD_DEPTH)


def _fold_down(t: Term, table: dict, memo: FoldMemo, depth: int) -> Any:
    entry = table.get(type(t))
    if entry is None or not depth:  # the walk raises the TypeError
        return unwind(_fold_walk(t, table, memo))
    attrs, f = entry
    if not attrs:
        return f(t)
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    depth -= 1
    if len(attrs) == 1:
        value = f(t, _fold_down(getattr(t, attrs[0]), table, memo, depth))
    else:  # arguments are evaluated in order: the first child before the second
        value = f(t, _fold_down(getattr(t, attrs[0]), table, memo, depth),
                  _fold_down(getattr(t, attrs[1]), table, memo, depth))
    memo[id(t)] = (t, value)
    return value


def _fold_walk(t: Term, table: dict, memo: FoldMemo) -> Walk:
    """The walk of `_fold_down` below its depth budget."""
    entry = table.get(type(t))
    if entry is None:
        raise TypeError(t)
    attrs, f = entry
    if not attrs:
        return f(t)
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    values = []
    for attr in attrs:
        values.append((yield _fold_walk(getattr(t, attr), table, memo)))
    value = f(t, *values)
    memo[id(t)] = (t, value)
    return value


_W_SIZE = {
    Var: ((), lambda t: 0), Bang: ((), lambda t: 0),
    App: (("fun", "arg"), lambda t, f, a: 1 + f + a),
    Sub: (("body", "arg"), lambda t, b, a: 1 + b + a),
    Abs: (("body",), lambda t, b: 1 + b), Der: (("body",), lambda t, b: 1 + b),
}


def w_size(t: Term, memo: FoldMemo | None = None) -> int:
    """The nodes of t outside bangs, variables apart.  Every call given the
    same `memo` sizes each subterm once."""
    return fold(t, _W_SIZE, memo)


# ---------------------------------------------------------------------------
# Closure spines

def spine_core(t: Term) -> Term:
    """The core of t's maximal outer closure spine: t = L<core>, the core
    not a closure."""
    while isinstance(t, Sub):
        t = t.body
    return t


def is_abs_shaped(t: Term) -> bool:
    return isinstance(spine_core(t), Abs)


def is_bang_shaped(t: Term) -> bool:
    return isinstance(spine_core(t), Bang)


# ---------------------------------------------------------------------------
# Lambda-fragment helpers

_LAMBDA = {
    Var: ((), lambda t: True), Bang: ((), lambda t: False), Der: ((), lambda t: False),
    App: (("fun", "arg"), lambda t, f, a: f and a),
    Sub: (("body", "arg"), lambda t, b, a: b and a),
    Abs: (("body",), lambda t, b: b),
}


def is_lambda_term(t: Term) -> bool:
    """True iff t contains no Bang/Der (the CBN/CBV source fragment)."""
    return fold(t, _LAMBDA)


# ---------------------------------------------------------------------------
# Parser

class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at offset {pos})")
        self.pos = pos


Token = tuple[str, str, int]


@dataclass(frozen=True)
class TokenTable:
    """How one grammar's text splits into tokens.  `marks` maps each mark
    to its kind; a two-character mark is tried first.  A word is a `start`
    character and then `cont` characters; `word` gives its kind, or None if
    it is no token.  `bad(char, offset)` is the error for a character that
    starts no token."""
    marks: dict[str, str]
    start: frozenset[str]
    cont: frozenset[str]
    word: Callable[[str], str | None]
    bad: Callable[[str, int], Exception]


class Lexer:
    """The tokens of a text, (kind, text, offset) ending in ("eof", "",
    len(text)), and a cursor over them."""

    def __init__(self, text: str, table: TokenTable):
        self.text = text
        self.toks: list[Token] = []
        toks, marks, start, cont = self.toks, table.marks, table.start, table.cont
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
            elif c in start:
                j = i + 1
                while j < n and text[j] in cont:
                    j += 1
                word = text[i:j]
                kind = table.word(word)
                if kind is None:
                    raise table.bad(c, i)
                toks.append((kind, word, i))
                i = j
            else:
                mark = text[i:i + 2]
                if mark not in marks:
                    mark = c
                    if c not in marks:
                        raise table.bad(c, i)
                toks.append((marks[mark], mark, i))
                i += len(mark)
        toks.append(("eof", "", n))
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        k, v, p = self.next()
        if k != kind:
            raise ParseError(f"expected {kind}, found {v!r}", p)
        return k, v, p


_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

TERM_TOKENS = TokenTable(
    marks={":=": "sep", "\\": "backslash", "λ": "lambda",
           **{c: c for c in "!()[]."}},
    start=_LETTERS,
    cont=_LETTERS | frozenset("0123456789_'"),
    word=lambda w: "der" if w == "der" else "ident",
    bad=lambda c, i: ParseError(f"unexpected character {c!r}", i))


def parse_term(text: str, strict: bool = False) -> Term:
    """Parse surface syntax.

    Grammar (prefix ! / der bind tighter than application, postfix
    closures bind tighter still, application is left-associative, a
    lambda body extends as far right as possible):

        term  := abs | app
        abs   := ("\\" | "λ") ident "." term
        app   := app post | post
        post  := atom { "[" ident ("\\" | ":=") term "]" }
        atom  := ident | "!" atom | "der" atom | "(" term ")"

    With strict=True, free names are rejected.
    """
    toks = Lexer(text, TERM_TOKENS)
    t = unwind(_parse_term(toks))
    k, v, p = toks.peek()
    if k != "eof":
        raise ParseError(f"trailing input {v!r}", p)
    if strict and free_vars(t):
        names = ", ".join(sorted(free_vars(t)))
        raise ParseError(f"unbound names: {names}", 0)
    return t


def _parse_term(toks: Lexer) -> Walk:
    """The walk of the `term` at the cursor: it yields the walk of each term
    nested in it, and reads the `post`s of an application in a loop."""
    # a backslash starts an abstraction only when followed by a binder
    if toks.peek()[0] in ("backslash", "lambda") and toks.toks[toks.i + 1][0] == "ident":
        toks.i += 1
        _, x, _ = toks.next()
        toks.expect(".")
        return Abs(x, (yield _parse_term(toks)))
    t = None
    while True:
        formers = []  # the "!" and "der" before an atom, outermost first
        k, v, p = toks.next()
        while k == "!" or k == "der":
            formers.append(Bang if k == "!" else Der)
            k, v, p = toks.next()
        if k == "ident":
            post = Var(v)
        elif k == "(":
            post = yield _parse_term(toks)
            toks.expect(")")
        else:
            raise ParseError(f"unexpected token {v!r}", p)
        for former in reversed(formers):
            post = former(post)
        while toks.peek()[0] == "[":
            toks.next()
            _, x, _ = toks.expect("ident")
            k, v, p = toks.next()
            if k not in ("backslash", "sep"):
                raise ParseError(f"expected \\\\ or := in closure, found {v!r}", p)
            post = Sub(post, x, (yield _parse_term(toks)))
            toks.expect("]")
        t = post if t is None else App(t, post)
        if toks.peek()[0] not in ("ident", "!", "der", "("):
            return t


# ---------------------------------------------------------------------------
# Printer

def _print_app(t: App, f: str, a: str) -> str:
    fs = f"({f})" if type(t.fun) is Abs else f
    return f"{fs} ({a})" if type(t.arg) in (App, Abs) else f"{fs} {a}"


_PRINT = {
    Var: ((), lambda t: t.name),
    Abs: (("body",), lambda t, b: f"\\{t.binder}. {b}"),
    App: (("fun", "arg"), _print_app),
    Bang: (("body",), lambda t, b: f"!({b})" if type(t.body) in (App, Abs, Sub) else "!" + b),
    Der: (("body",), lambda t, b: f"der({b})"),
    Sub: (("body", "arg"),
          lambda t, b, a: f"({b})[{t.binder} \\ {a}]" if type(t.body) in (App, Abs)
          else f"{b}[{t.binder} \\ {a}]"),
}


def print_node(t: Term, *parts: str) -> str:
    """The text `print_term` writes for t, given the texts of the children
    it prints: t's fun and arg, its body and arg, or its body."""
    return _PRINT[type(t)][1](t, *parts)


def print_term(t: Term, memo: FoldMemo | None = None) -> str:
    """Surface syntax of t.  Every call given the same `memo` prints each
    node once: subterms shared between the terms it prints are looked up."""
    return fold(t, _PRINT, memo)
