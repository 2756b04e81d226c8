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
from typing import Callable

from .syntax import (
    Abs, App, Bang, Der, Sub, Term, Var,
    free_vars, fresh_name, is_abs_shaped, is_bang_shaped,
    canon_key, subst_meta,
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


class InvalidPosition(ValueError):
    pass


def subterm_at(t: Term, pos: Position) -> Term:
    for sel in pos:
        match (t, sel):
            case (App(f, _), Sel.FUN):
                t = f
            case (App(_, a), Sel.ARG):
                t = a
            case (Abs(_, b), Sel.ABS_BODY):
                t = b
            case (Der(b), Sel.DER_BODY):
                t = b
            case (Sub(b, _, _), Sel.SUB_BODY):
                t = b
            case (Sub(_, _, a), Sel.SUB_ARG):
                t = a
            case _:
                raise InvalidPosition(f"no {sel} child here")
    return t


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    if not pos:
        return new
    sel, rest = pos[0], pos[1:]
    match (t, sel):
        case (App(f, a), Sel.FUN):
            return App(replace_at(f, rest, new), a)
        case (App(f, a), Sel.ARG):
            return App(f, replace_at(a, rest, new))
        case (Abs(x, b), Sel.ABS_BODY):
            return Abs(x, replace_at(b, rest, new))
        case (Der(b), Sel.DER_BODY):
            return Der(replace_at(b, rest, new))
        case (Sub(b, x, a), Sel.SUB_BODY):
            return Sub(replace_at(b, rest, new), x, a)
        case (Sub(b, x, a), Sel.SUB_ARG):
            return Sub(b, x, replace_at(a, rest, new))
    raise InvalidPosition(f"no {sel} child here")


# ---------------------------------------------------------------------------
# Root-rule firing (shared with the CBN/CBV engine and the derivation engine)

def fire_spine(t: Term, avoid: frozenset[str], at_core: Callable[[Term], Term]) -> Term:
    """L<c> -> L<at_core(c)> for the maximal closure spine L of t,
    refreshing the binders of L that are in `avoid` (the free variables
    the new core brings in, which they would capture)."""
    if not isinstance(t, Sub):
        return at_core(t)
    b, y = t.body, t.binder
    if y in avoid:
        y2 = fresh_name(y, avoid | free_vars(b))
        b = subst_meta(b, y, Var(y2))
        y = y2
    return Sub(fire_spine(b, avoid, at_core), y, t.arg)


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


_ROOT_FIRE = {RuleKind.DB: fire_db, RuleKind.SBANG: fire_sbang, RuleKind.DBANG: fire_dbang}


def redexes(t: Term) -> list[tuple[Position, RuleKind]]:
    """All weak-context redex occurrences, preorder (outermost, then left)."""
    out: list[tuple[Position, RuleKind]] = []

    def walk(t: Term, pos: Position) -> None:
        match t:
            case App(f, a):
                if is_abs_shaped(f):
                    out.append((pos, RuleKind.DB))
                walk(f, pos + (Sel.FUN,))
                walk(a, pos + (Sel.ARG,))
            case Sub(b, _, a):
                if is_bang_shaped(a):
                    out.append((pos, RuleKind.SBANG))
                walk(b, pos + (Sel.SUB_BODY,))
                walk(a, pos + (Sel.SUB_ARG,))
            case Der(b):
                if is_bang_shaped(b):
                    out.append((pos, RuleKind.DBANG))
                walk(b, pos + (Sel.DER_BODY,))
            case Abs(_, b):
                walk(b, pos + (Sel.ABS_BODY,))
            case Var(_) | Bang(_):
                pass

    walk(t, ())
    return out


def step_at(t: Term, pos: Position, kind: RuleKind) -> Term:
    """Fire exactly the redex (pos, kind); InvalidPosition if absent."""
    sub = subterm_at(t, pos)
    fire = _ROOT_FIRE.get(kind)
    if fire is None:
        raise InvalidPosition(f"{kind} is not a bang-calculus rule")
    return replace_at(t, pos, fire(sub))


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


def _nf_bits(t: Term) -> tuple[bool, bool, bool]:
    """(ne, na, nb) memberships of the weak normal-form grammars."""
    match t:
        case Var(_):
            return True, True, True
        case Bang(_):
            return False, True, False
        case Abs(_, b):
            ne, na, nb = _nf_bits(b)
            return False, False, na or nb
        case App(f, a):
            fne, fna, _ = _nf_bits(f)
            ane, ana, anb = _nf_bits(a)
            ok = fna and (ana or anb)
            return ok, ok, ok
        case Der(b):
            _, _, bnb = _nf_bits(b)
            return bnb, bnb, bnb
        case Sub(b, _, a):
            bne, bna, bnb = _nf_bits(b)
            _, _, anb = _nf_bits(a)
            return bne and anb, bna and anb, bnb and anb
    raise TypeError(t)


def _bits_to_class(ne: bool, na: bool, nb: bool) -> NfClass:
    bits = (("ne", ne), ("na", na), ("nb", nb), ("no", na or nb))
    return NfClass(frozenset(name for name, bit in bits if bit), na or nb)


# (ne, na, nb) -> its class: the eight classes, built once
_CLASSES = {bits: _bits_to_class(*bits) for bits in product((False, True), repeat=3)}


def classify_nf(t: Term) -> NfClass:
    return _CLASSES[_nf_bits(t)]


def _wcf_bits(t: Term) -> tuple[bool, bool, bool]:
    match t:
        case Var(_):
            return True, True, True
        case Bang(_):
            return False, True, False
        case Abs(_, b):
            _, na, nb = _wcf_bits(b)
            return False, False, na or nb
        case App(f, a):
            fne, _, _ = _wcf_bits(f)
            _, ana, _ = _wcf_bits(a)
            ok = fne and ana
            return ok, ok, ok
        case Der(b):
            bne, _, _ = _wcf_bits(b)
            return bne, bne, bne
        case Sub(b, _, a):
            bne, bna, bnb = _wcf_bits(b)
            ane, _, _ = _wcf_bits(a)
            return bne and ane, bna and ane, bnb and ane
    raise TypeError(t)


def classify_wcf_nf(t: Term) -> NfClass:
    """Membership in the weak clash-free normal grammars."""
    return _CLASSES[_wcf_bits(t)]


# ---------------------------------------------------------------------------
# Clashes

class ClashKind(Enum):
    APP_OF_BANG = "app_of_bang"   # L<!t> u
    SUB_OF_ABS = "sub_of_abs"     # t[y \\ L<\\x.u>]
    DER_OF_ABS = "der_of_abs"     # der(L<\\x.u>)
    ARG_IS_ABS = "arg_is_abs"     # t (L<\\x.u>)

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ClashReport:
    clash_free: bool
    witness: tuple[Position, ClashKind] | None


def detect_clash(t: Term) -> ClashReport:
    """Leftmost-outermost clash occurrence at a weak position, if any."""

    def walk(t: Term, pos: Position) -> tuple[Position, ClashKind] | None:
        match t:
            case App(f, a):
                if is_bang_shaped(f):
                    return (pos, ClashKind.APP_OF_BANG)
                if is_abs_shaped(a):
                    return (pos, ClashKind.ARG_IS_ABS)
                return walk(f, pos + (Sel.FUN,)) or walk(a, pos + (Sel.ARG,))
            case Sub(b, _, a):
                if is_abs_shaped(a):
                    return (pos, ClashKind.SUB_OF_ABS)
                return walk(b, pos + (Sel.SUB_BODY,)) or walk(a, pos + (Sel.SUB_ARG,))
            case Der(b):
                if is_abs_shaped(b):
                    return (pos, ClashKind.DER_OF_ABS)
                return walk(b, pos + (Sel.DER_BODY,))
            case Abs(_, b):
                return walk(b, pos + (Sel.ABS_BODY,))
            case Var(_) | Bang(_):
                return None
        raise TypeError(t)

    witness = walk(t, ())
    return ClashReport(witness is None, witness)


def is_wcf(t: Term) -> bool:
    return detect_clash(t).clash_free


# ---------------------------------------------------------------------------
# Deterministic strategy

def step_dw(t: Term) -> tuple[Position, RuleKind, Term] | None:
    """The unique dw step, or None when t is w-normal.

    Case analysis: at an application, fire dB when the function is
    abstraction-shaped, otherwise reduce the function, otherwise reduce
    the argument once the function is neutral-abs; at a closure, fire s!
    when the argument is bang-shaped, otherwise reduce the argument,
    otherwise reduce the body once the argument is neutral-bang; at a
    dereliction, fire d! on a bang-shaped body, else reduce inside; always
    reduce under an abstraction.  The side conditions partition, so no
    rule ordering is involved.
    """
    match t:
        case App(f, a):
            if is_abs_shaped(f):
                return ((), RuleKind.DB, fire_db(t))
            r = step_dw(f)
            if r is not None:
                pos, kind, f2 = r
                return ((Sel.FUN,) + pos, kind, App(f2, a))
            if classify_nf(f).na:
                r = step_dw(a)
                if r is not None:
                    pos, kind, a2 = r
                    return ((Sel.ARG,) + pos, kind, App(f, a2))
            return None
        case Sub(b, x, a):
            if is_bang_shaped(a):
                return ((), RuleKind.SBANG, fire_sbang(t))
            r = step_dw(a)
            if r is not None:
                pos, kind, a2 = r
                return ((Sel.SUB_ARG,) + pos, kind, Sub(b, x, a2))
            if classify_nf(a).nb:
                r = step_dw(b)
                if r is not None:
                    pos, kind, b2 = r
                    return ((Sel.SUB_BODY,) + pos, kind, Sub(b2, x, a))
            return None
        case Der(b):
            if is_bang_shaped(b):
                return ((), RuleKind.DBANG, fire_dbang(t))
            r = step_dw(b)
            if r is not None:
                pos, kind, b2 = r
                return ((Sel.DER_BODY,) + pos, kind, Der(b2))
            return None
        case Abs(x, b):
            r = step_dw(b)
            if r is not None:
                pos, kind, b2 = r
                return ((Sel.ABS_BODY,) + pos, kind, Abs(x, b2))
            return None
        case Var(_) | Bang(_):
            return None
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Traces

@dataclass(frozen=True)
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
    does not normalize or trace lengths/counters disagree."""
    memo: dict[object, tuple[int, int, int] | None] = {}
    visiting: set = set()

    def go(key) -> tuple[int, int, int] | None:
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
                p = go(nkey)
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

    return go(graph.start_key)


def enumerate_maximal_traces(t: Term, fuel: int, max_traces: int = 10000) -> tuple[list[Trace], bool]:
    """All maximal ->w traces from t, each cut off at `fuel` steps.

    Returns (traces, exhausted): exhausted is True if some branch hit the
    fuel bound or the trace cap, in which case the list also contains the
    incomplete traces found so far (marked completed=False).
    """
    traces: list[Trace] = []
    exhausted = False

    def dfs(cur: Term, steps: list[TraceStep]) -> None:
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
            dfs(nxt, steps)
            steps.pop()

    dfs(t, [])
    return traces, exhausted
