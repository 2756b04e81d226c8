"""Weak reduction for the bang calculus.

Three rewrite rules act at a distance through closure spines L:

    L<\\x. t> u      -> L<t[x \\ u]>          (dB, multiplicative)
    t[x \\ L<!u>]    -> L<t{x:=u}>           (s!, exponential)
    der(L<!t>)      -> L<t>                 (d!, exponential)

closed under weak contexts, which never enter the body of a bang.  The
deterministic strategy `step_dw` picks one redex by shape analysis; the
full relation is exposed through `redexes` / `step_at`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Any, Callable

from .syntax import (
    Abs, App, Bang, Der, FoldMemo, Sub, Term, Var, Walk,
    canon_key, fold, free_vars, fresh_name, is_abs_shaped, is_bang_shaped, subst_meta, unwind,
)


class RuleKind(Enum):
    DB = "dB"
    SBANG = "s!"
    DBANG = "d!"
    S = "s"      # lambda-side unconditional substitution (CBN)
    SV = "sv"    # lambda-side value substitution (CBV)

    @property
    def multiplicative(self) -> bool:
        return self is RuleKind.DB

    def __str__(self) -> str:
        return self.value


class Sel(Enum):
    FUN = "fun"
    ARG = "arg"
    ABS_BODY = "abs_body"
    DER_BODY = "der_body"
    SUB_BODY = "sub_body"
    SUB_ARG = "sub_arg"

    def __str__(self) -> str:
        return self.value


Position = tuple[Sel, ...]

# selector -> (the former it enters, the child's attribute, the former
# rebuilt around a new child)
SELECTORS: dict[Sel, tuple[type, str, Callable[[Term, Term], Term]]] = {
    Sel.FUN: (App, "fun", lambda t, c: App(c, t.arg)),
    Sel.ARG: (App, "arg", lambda t, c: App(t.fun, c)),
    Sel.ABS_BODY: (Abs, "body", lambda t, c: Abs(t.binder, c)),
    Sel.DER_BODY: (Der, "body", lambda t, c: Der(c)),
    Sel.SUB_BODY: (Sub, "body", lambda t, c: Sub(c, t.binder, t.arg)),
    Sel.SUB_ARG: (Sub, "arg", lambda t, c: Sub(t.body, t.binder, c)),
}


class InvalidPosition(ValueError):
    pass


# The path from the root to a node, as in Huet's zipper: None at the root,
# else (the parent's path, the parent, the selector that enters the node).
Path = tuple | None


def position(path: Path) -> Position:
    sels = []
    while path is not None:
        path, _, sel = path
        sels.append(sel)
    return tuple(reversed(sels))


def _rebuild(path: Path, new: Term) -> Term:
    """`new` put back in place of the node at the end of path."""
    while path is not None:
        path, node, sel = path
        new = SELECTORS[sel][2](node, new)
    return new


def _descend(t: Term, pos: Position) -> tuple[Path, Term]:
    """The path to pos in t and the subterm there."""
    path = None
    for sel in pos:
        former, attr, _ = SELECTORS[sel]
        if not isinstance(t, former):
            raise InvalidPosition(f"no {sel} child here")
        path = (path, t, sel)
        t = getattr(t, attr)
    return path, t


def subterm_at(t: Term, pos: Position) -> Term:
    return _descend(t, pos)[1]


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    return _rebuild(_descend(t, pos)[0], new)


# ---------------------------------------------------------------------------
# Root-rule firing (shared with the CBN/CBV engine and the derivation engine)

def fire_spine(t: Term, avoid: frozenset[str], at_core: Callable[[Term], Term]) -> Term:
    """L<c> -> L<at_core(c)> for the maximal closure spine L of t,
    refreshing the binders of L that are in `avoid` (the free variables
    the new core brings in, which they would capture), outermost first."""
    spine = []
    while isinstance(t, Sub):
        b, y = t.body, t.binder
        if y in avoid:
            y2 = fresh_name(y, avoid | free_vars(b))
            b = subst_meta(b, y, Var(y2))
            y = y2
        spine.append((y, t.arg))
        t = b
    t = at_core(t)
    for y, a in reversed(spine):
        t = Sub(t, y, a)
    return t


def fire_db(t: Term) -> Term:
    """t = L<\\x.s> u  ->  L<s[x \\ u]>."""
    if not isinstance(t, App) or not is_abs_shaped(t.fun):
        raise InvalidPosition("not a dB redex")
    u = t.arg
    return fire_spine(t.fun, free_vars(u), lambda f: Sub(f.body, f.binder, u))


def fire_sbang(t: Term) -> Term:
    """t = s[x \\ L<!u>]  ->  L<s{x:=u}>."""
    if not isinstance(t, Sub) or not is_bang_shaped(t.arg):
        raise InvalidPosition("not an s! redex")
    s, x = t.body, t.binder
    return fire_spine(t.arg, free_vars(s) - {x}, lambda bang: subst_meta(s, x, bang.body))


def fire_dbang(t: Term) -> Term:
    """t = der(L<!s>)  ->  L<s>."""
    if not isinstance(t, Der) or not is_bang_shaped(t.body):
        raise InvalidPosition("not a d! redex")
    return fire_spine(t.body, frozenset(), lambda bang: bang.body)


# rule -> its root firing; cbn_cbv adds the lambda-side rules s and sv
FIRE: dict[RuleKind, Callable[[Term], Term]] = {
    RuleKind.DB: fire_db, RuleKind.SBANG: fire_sbang, RuleKind.DBANG: fire_dbang}


# ---------------------------------------------------------------------------
# Weak-context search
#
# A strategy is two tables: its order table maps each former to the
# children the search enters, in order; its rule table maps a former to
# the rule that fires at a node of that former, a function of the node
# that gives the rule or None.  One walk with an explicit stack runs
# every strategy.

def strategy(order: dict, rules: dict) -> tuple[dict, dict]:
    """The tables in the form the walk reads: each former's children in
    reverse order, with their attributes."""
    return {former: tuple((sel, SELECTORS[sel][1]) for sel in reversed(sels))
            for former, sels in order.items()}, rules


def search(t: Term, strat: tuple[dict, dict], first: bool = False) -> list[tuple[Path, Term, Any]]:
    """(path, node, rule) for each node the search enters at which its
    rule fires, in pre-order; with `first`, only the first of them."""
    order, rules = strat
    hits: list[tuple[Path, Term, Any]] = []
    stack: list[tuple[Term, Path]] = [(t, None)]
    while stack:
        node, path = stack.pop()
        cls = type(node)
        rule = rules.get(cls)
        if rule is not None:
            kind = rule(node)
            if kind is not None:
                hits.append((path, node, kind))
                if first:
                    return hits
        for sel, attr in order[cls]:
            stack.append((getattr(node, attr), (path, node, sel)))
    return hits


def step(t: Term, strat: tuple[dict, dict]) -> tuple[Position, RuleKind, Term] | None:
    """(position, rule, reduct) for the first redex the search finds."""
    for path, node, kind in search(t, strat, first=True):
        return position(path), kind, _rebuild(path, FIRE[kind](node))
    return None


# every weak context: never inside a bang
W_ORDER = {Var: (), Bang: (), Abs: (Sel.ABS_BODY,), Der: (Sel.DER_BODY,),
           App: (Sel.FUN, Sel.ARG), Sub: (Sel.SUB_BODY, Sel.SUB_ARG)}
W_RULES = {
    App: lambda t: RuleKind.DB if is_abs_shaped(t.fun) else None,
    Sub: lambda t: RuleKind.SBANG if is_bang_shaped(t.arg) else None,
    Der: lambda t: RuleKind.DBANG if is_bang_shaped(t.body) else None,
}
_W = strategy(W_ORDER, W_RULES)


def redexes(t: Term) -> list[tuple[Position, RuleKind]]:
    """All weak-context redex occurrences, preorder (outermost, then left)."""
    return [(position(path), kind) for path, _, kind in search(t, _W)]


def step_at(t: Term, pos: Position, kind: RuleKind) -> Term:
    """Fire exactly the redex (pos, kind); InvalidPosition if absent."""
    path, sub = _descend(t, pos)
    if kind not in (RuleKind.DB, RuleKind.SBANG, RuleKind.DBANG):
        raise InvalidPosition(f"{kind} is not a bang-calculus rule")
    return _rebuild(path, FIRE[kind](sub))


# dw fires dB, s! and d! where their side conditions hold, which
# partition, so no rule ordering is involved; it enters a closure's
# argument before its body.  Its contexts enter an application's argument
# only under a neutral-abs function, and a closure's body only under a
# neutral-bang argument.  Both hold whenever the search gets there: a term
# with no dw redex is neutral-abs unless it is abstraction-shaped, and
# neutral-bang unless it is bang-shaped (by induction on the term).
_DW = strategy({**W_ORDER, Sub: (Sel.SUB_ARG, Sel.SUB_BODY)}, W_RULES)


def step_dw(t: Term) -> tuple[Position, RuleKind, Term] | None:
    """The unique dw step, or None when t is w-normal."""
    return step(t, _DW)


# ---------------------------------------------------------------------------
# Normal-form grammars

@dataclass(frozen=True)
class NfClass:
    memberships: frozenset[str]  # subset of {"ne", "na", "nb", "no"}
    normal: bool

    @property
    def ne(self) -> bool:
        return "ne" in self.memberships

    @property
    def na(self) -> bool:
        return "na" in self.memberships

    @property
    def nb(self) -> bool:
        return "nb" in self.memberships

    @property
    def no(self) -> bool:
        return "no" in self.memberships


# (ne, na, nb) memberships of the weak normal-form grammars, as fold tables
_NF_BITS = {
    Var: ((), lambda t: (True, True, True)),
    Bang: ((), lambda t: (False, True, False)),
    Abs: (("body",), lambda t, b: (False, False, b[1] or b[2])),
    App: (("fun", "arg"), lambda t, f, a: (f[1] and (a[1] or a[2]),) * 3),
    Der: (("body",), lambda t, b: (b[2],) * 3),
    Sub: (("body", "arg"), lambda t, b, a: (b[0] and a[2], b[1] and a[2], b[2] and a[2])),
}


def _bits_to_class(ne: bool, na: bool, nb: bool) -> NfClass:
    bits = (("ne", ne), ("na", na), ("nb", nb), ("no", na or nb))
    return NfClass(frozenset(name for name, bit in bits if bit), na or nb)


# (ne, na, nb) -> its class: the eight classes, built once
_CLASSES = {bits: _bits_to_class(*bits) for bits in product((False, True), repeat=3)}


def classify_nf(t: Term) -> NfClass:
    return _CLASSES[fold(t, _NF_BITS)]


# the same memberships of the weak clash-free grammars
_WCF_BITS = {
    **_NF_BITS,
    App: (("fun", "arg"), lambda t, f, a: (f[0] and a[1],) * 3),
    Der: (("body",), lambda t, b: (b[0],) * 3),
    Sub: (("body", "arg"), lambda t, b, a: (b[0] and a[0], b[1] and a[0], b[2] and a[0])),
}


def classify_wcf_nf(t: Term, memo: FoldMemo | None = None) -> NfClass:
    """Membership in the weak clash-free normal grammars.  Every call given
    the same `memo` classifies each subterm once, as the typing of a normal
    form asks for the class of its subterms, level by level."""
    return _CLASSES[fold(t, _WCF_BITS, memo)]


# ---------------------------------------------------------------------------
# Clashes

class ClashKind(Enum):
    APP_OF_BANG = "app_of_bang"   # L<!t> u
    SUB_OF_ABS = "sub_of_abs"     # t[y \\ L<\\x.u>]
    DER_OF_ABS = "der_of_abs"     # der(L<\\x.u>)
    ARG_IS_ABS = "arg_is_abs"     # t (L<\\x.u>)

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True, unsafe_hash=True)
class ClashReport:
    clash_free: bool
    witness: tuple[Position, ClashKind] | None


_CLASH = strategy(W_ORDER, {
    App: lambda t: (ClashKind.APP_OF_BANG if is_bang_shaped(t.fun)
                    else ClashKind.ARG_IS_ABS if is_abs_shaped(t.arg) else None),
    Sub: lambda t: ClashKind.SUB_OF_ABS if is_abs_shaped(t.arg) else None,
    Der: lambda t: ClashKind.DER_OF_ABS if is_abs_shaped(t.body) else None,
})


def detect_clash(t: Term) -> ClashReport:
    """Leftmost-outermost clash occurrence at a weak position, if any."""
    for path, _, kind in search(t, _CLASH, first=True):
        return ClashReport(False, (position(path), kind))
    return ClashReport(True, None)


# ---------------------------------------------------------------------------
# Traces

@dataclass(slots=True, unsafe_hash=True)
class TraceStep:
    position: Position
    rule: RuleKind
    result: Term


@dataclass(frozen=True)
class Trace:
    start: Term
    steps: tuple[TraceStep, ...]
    completed: bool = True

    @property
    def final(self) -> Term:
        return self.steps[-1].result if self.steps else self.start

    @property
    def b(self) -> int:
        return sum(1 for s in self.steps if s.rule.multiplicative)

    @property
    def e(self) -> int:
        return len(self.steps) - self.b


class FuelExhausted(Exception):
    """Normalization ran out of fuel; carries the partial trace."""

    def __init__(self, trace: Trace):
        super().__init__(f"fuel exhausted after {len(trace.steps)} steps")
        self.trace = trace


def normalize(t: Term, fuel: int,
              stepper: Callable[[Term], tuple[Position, RuleKind, Term] | None]) -> Trace:
    """Iterate `stepper` up to `fuel` steps.

    Returns a completed Trace ending in a term the stepper leaves alone,
    or raises FuelExhausted carrying the partial trace.
    """
    steps: list[TraceStep] = []
    cur = t
    for _ in range(fuel):
        r = stepper(cur)
        if r is None:
            return Trace(t, tuple(steps), completed=True)
        pos, kind, cur = r
        steps.append(TraceStep(pos, kind, cur))
    if stepper(cur) is None:
        return Trace(t, tuple(steps), completed=True)
    raise FuelExhausted(Trace(t, tuple(steps), completed=False))


def normalize_dw(t: Term, fuel: int) -> Trace:
    """The dw trace of t, or FuelExhausted after `fuel` steps."""
    return normalize(t, fuel, step_dw)


# ---------------------------------------------------------------------------
# Whole-relation exploration (oracles for confluence/equal-length checking)

@dataclass
class StateGraph:
    start_key: object
    terms: dict[object, Term] = field(default_factory=dict)
    edges: dict[object, list[tuple[Position, RuleKind, object]]] = field(default_factory=dict)


class StateLimitExceeded(Exception):
    pass


def reachable_graph(t: Term, max_states: int = 1000) -> StateGraph:
    """All ->w reachable states, deduplicated up to alpha-equivalence."""
    start = canon_key(t)
    graph = StateGraph(start_key=start)
    graph.terms[start] = t
    frontier = [start]
    while frontier:
        key = frontier.pop()
        term = graph.terms[key]
        succs: list[tuple[Position, RuleKind, object]] = []
        for pos, kind in redexes(term):
            nxt = step_at(term, pos, kind)
            nkey = canon_key(nxt)
            if nkey not in graph.terms:
                if len(graph.terms) >= max_states:
                    raise StateLimitExceeded(f"more than {max_states} states")
                graph.terms[nkey] = nxt
                frontier.append(nkey)
            succs.append((pos, kind, nkey))
        graph.edges[key] = succs
    return graph


def trace_profile(graph: StateGraph) -> tuple[int, int, int] | None:
    """(length, b, e) shared by every complete trace, or None if the term
    does not normalize or trace lengths/counters disagree.  A walk on
    `syntax.unwind`, so a trace may be longer than the stack is deep."""
    memo: dict[object, tuple[int, int, int] | None] = {}
    visiting: set = set()

    def go(key) -> Walk:
        if key in memo:
            return memo[key]
        if key in visiting:
            return None  # cycle: diverging
        visiting.add(key)
        succs = graph.edges[key]
        if not succs:
            result: tuple[int, int, int] | None = (0, 0, 0)
        else:
            profiles = set()
            for _, kind, nkey in succs:
                p = yield go(nkey)
                if p is None:
                    profiles.add(None)
                    break
                ln, b, e = p
                profiles.add((ln + 1, b + (1 if kind.multiplicative else 0),
                              e + (0 if kind.multiplicative else 1)))
            result = profiles.pop() if len(profiles) == 1 and None not in profiles else None
        visiting.discard(key)
        memo[key] = result
        return result

    return unwind(go(graph.start_key))


def enumerate_maximal_traces(t: Term, fuel: int, max_traces: int = 10000) -> tuple[list[Trace], bool]:
    """All maximal ->w traces from t, each cut off at `fuel` steps.

    Returns (traces, exhausted): exhausted is True if some branch hit the
    fuel bound or the trace cap, in which case the list also contains the
    incomplete traces found so far (marked completed=False).  A walk on
    `syntax.unwind`, so a trace may be longer than the stack is deep.
    """
    traces: list[Trace] = []
    exhausted = False

    def dfs(cur: Term, steps: list[TraceStep]) -> Walk:
        nonlocal exhausted
        if len(traces) >= max_traces:
            exhausted = True
            return
        rs = redexes(cur)
        if not rs:
            traces.append(Trace(t, tuple(steps), completed=True))
            return
        if len(steps) >= fuel:
            exhausted = True
            traces.append(Trace(t, tuple(steps), completed=False))
            return
        for pos, kind in rs:
            nxt = step_at(cur, pos, kind)
            steps.append(TraceStep(pos, kind, nxt))
            yield dfs(nxt, steps)
            steps.pop()

    unwind(dfs(t, []))
    return traces, exhausted
