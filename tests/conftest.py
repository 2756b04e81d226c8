import dataclasses
from bisect import insort
from itertools import repeat

import hypothesis.strategies as st
from hypothesis import settings

from bangcalc import cbn_cbv, system_e, system_u
from bangcalc.cbn_cbv import NotLambdaTerm, fire_sv
from bangcalc.qtypes import (
    EMPTY_MULT, OMEGA, TIGHT_NEUTRAL, Arrow, BaseVar, Mult, Tight, TypeParseError, ctx_get,
    has_tight_constants, mult, parse_type, sort_key,
)
from bangcalc.reduction import (
    ClashKind, ClashReport, InvalidPosition, RuleKind, Sel, classify_nf, classify_wcf_nf, fire_db,
    fire_dbang, fire_sbang,
)
from bangcalc.serialize import MalformedDerivation
from bangcalc.syntax import (
    TERM_TOKENS, Abs, App, Bang, Der, Lexer, ParseError, Sub, Var, is_abs_shaped,
    is_bang_shaped, parse_term, print_term, spine_core, subst_meta, term_eq, w_size,
)
from bangcalc.system_e import (
    DerivationE, mk_ae_t, mk_ai_t, mk_ax_e, mk_bg_t, mk_dr_t, mk_es_t,
)
from bangcalc.system_u import (
    RULES, Derivation, IllFormed, NotTypableNormalForm, Violation, add_counters, mk_abs, mk_app,
    mk_ax, mk_bg, mk_dr, mk_es, unwind,
)

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

# A firing refreshes a binder y to y0 and, inside the renamed body, an
# inner binder y0 to y1; renaming y0 back to y leaves the inner binder at
# y1, so expansion has to restore the pre-step binder names.
REFRESHED_INNER_BINDERS = [
    r"((\x.\y0.y)[y \ a]) y",                       # dB spine
    r"((\x.\y0.y)[y \ a]) !y",                      # dB spine, banged argument
    r"(x y)[x \ (!(\y0. y))[y \ a]]",               # s! spine
    r"(\y. \y0. x y)[x \ !y]",                       # s! anti-substitution
    # two refreshed spine binders, the outer one renaming the inner's argument
    r"\y0. der((\y. x)[z0 \ der(x)][x \ x0] !((\y. y z0[y1 \ y][x0 \ x]) z))[x0 \ y]",
]


_names = st.sampled_from(["x", "y", "z", "u", "v"])


def bang_terms(max_leaves: int = 6):
    return st.recursive(
        st.builds(Var, _names),
        lambda sub: st.one_of(
            st.builds(App, sub, sub),
            st.builds(Abs, _names, sub),
            st.builds(Bang, sub),
            st.builds(Der, sub),
            st.builds(Sub, sub, _names, sub),
        ),
        max_leaves=max_leaves,
    )


def lambda_terms(max_leaves: int = 6):
    return st.recursive(
        st.builds(Var, _names),
        lambda sub: st.one_of(
            st.builds(App, sub, sub),
            st.builds(Abs, _names, sub),
            st.builds(Sub, sub, _names, sub),
        ),
        max_leaves=max_leaves,
    )


def lambda_values():
    return st.one_of(st.builds(Var, _names), st.builds(Abs, _names, lambda_terms(4)))


def church_term(n: int):
    """church(n) (\\y.y) z, which takes 2n+4 dw steps through the CBN embedding."""
    body = Var("x")
    for _ in range(n):
        body = App(Var("f"), body)
    return App(App(Abs("f", Abs("x", body)), Abs("y", Var("y"))), Var("z"))


def without_image(d):
    """A copy of the N or V root d without the U derivation it keeps, which
    `translate_n_to_u` and `translate_v_to_u` then walk."""
    return Derivation(d.rule, d.context, d.subject, d.type, d.premises)


def _replaced(d, path, node):
    """d with node in place of its node at `path` (premise indices)."""
    if not path:
        return node
    ps = list(d.premises)
    ps[path[0]] = _replaced(ps[path[0]], path[1:], node)
    return dataclasses.replace(d, premises=tuple(ps))


def tampered(d, tags):
    """Each copy of d that differs from it at one node: the node's tag
    swapped for each other tag in `tags`, its last premise dropped, or its
    last premise repeated; each with whether its tag was swapped."""
    stack = [((), d)]
    while stack:
        path, node = stack.pop()
        stack.extend((path + (i,), p) for i, p in enumerate(node.premises))
        changed = [(True, dataclasses.replace(node, rule=tag)) for tag in tags if tag != node.rule]
        ps = node.premises
        if ps:
            changed += [(False, dataclasses.replace(node, premises=ps[:-1])),
                        (False, dataclasses.replace(node, premises=ps + ps[-1:]))]
        for swapped, bad in changed:
            yield swapped, _replaced(d, path, bad)


def reordered(d):
    """Each copy of d that differs from it at one node: the node's premises
    in reverse order, when it has two or more, or one of its premises in
    place of that premise's own first premise."""
    stack = [((), d)]
    while stack:
        path, node = stack.pop()
        ps = node.premises
        stack.extend((path + (i,), p) for i, p in enumerate(ps))
        if len(ps) > 1:
            yield _replaced(d, path, dataclasses.replace(node, premises=ps[::-1]))
        for i, p in enumerate(ps):
            if p.premises:
                yield _replaced(d, path + (i,), p.premises[0])


# ---------------------------------------------------------------------------
# Reference walkers: plain recursion that caches nothing, the oracles for
# the per-node facts bangcalc computes once and keeps and for its folds.

def ref_free_vars(t) -> frozenset:
    match t:
        case Var(x):
            return frozenset((x,))
        case App(f, a):
            return ref_free_vars(f) | ref_free_vars(a)
        case Abs(x, b):
            return ref_free_vars(b) - {x}
        case Bang(b) | Der(b):
            return ref_free_vars(b)
        case Sub(b, x, a):
            return (ref_free_vars(b) - {x}) | ref_free_vars(a)
    raise TypeError(t)


def ref_size_u(d) -> int:
    return (0 if d.rule == "bg" else 1) + sum(ref_size_u(p) for p in d.premises)


def ref_size_n(d) -> int:
    return 1 + sum(ref_size_n(p) for p in d.premises)


def ref_size_v(d) -> int:
    own = len(d.type) if d.rule in ("ax_v", "abs_v") else 1
    return own + sum(ref_size_v(p) for p in d.premises)


# ---------------------------------------------------------------------------
# Reference context union: `qtypes.ctx_union` written once for any number
# of contexts, collecting each name's multisets in lists; the oracle for
# its two-context path, down to the objects it returns.

def ref_ctx_union(*ctxs):
    live = [ctx for ctx in ctxs if ctx]
    if len(live) <= 1 and all(m.elements for ctx in live for m in ctx.values()):
        return live[0] if live else {}  # nothing to merge, nothing to drop
    names = {}
    for ctx in ctxs:
        for x, m in ctx.items():
            if m.elements:
                names.setdefault(x, []).append(m)
    return {x: ms[0] if len(ms) == 1 else _ref_merge(ms) for x, ms in sorted(names.items())}


def _ref_merge(ms):
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


def _ref_atom_str(t) -> str:
    match t:
        case Var(x):
            return x
        case Bang(b):
            return "!" + _ref_atom_str(b)
        case Der(_):
            return ref_print_term(t)
        case _:
            return "(" + ref_print_term(t) + ")"


def ref_print_term(t) -> str:
    match t:
        case Var(x):
            return x
        case Abs(x, b):
            return f"\\{x}. {ref_print_term(b)}"
        case App(f, a):
            fs = f"({ref_print_term(f)})" if isinstance(f, Abs) else ref_print_term(f)
            match a:
                case App(_, _) | Abs(_, _):
                    return f"{fs} ({ref_print_term(a)})"
                case _:
                    return f"{fs} {ref_print_term(a)}"
        case Bang(b):
            return "!" + _ref_atom_str(b)
        case Der(b):
            return f"der({ref_print_term(b)})"
        case Sub(b, x, a):
            match b:
                case Var(_) | Bang(_) | Der(_) | Sub(_, _, _):
                    bs = ref_print_term(b)
                case _:
                    bs = f"({ref_print_term(b)})"
            return f"{bs}[{x} \\ {ref_print_term(a)}]"
    raise TypeError(t)


def ref_print_type(t, memo=None) -> str:
    """`qtypes.print_type` as it was written with `match`: each run of one
    element object printed once, its text repeated."""
    if memo is None:
        memo = {}
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    match t:
        case BaseVar(i):
            return f"o{i}"
        case Tight(c):
            return c
        case Mult(elems):
            texts, before = [], None
            for e in elems:
                if e is not before:
                    e_text, before = ref_print_type(e, memo), e
                texts.append(e_text)
            text = "[" + ",".join(texts) + "]"
        case Arrow(dom, cod):
            text = f"{ref_print_type(dom, memo)} -> {ref_print_type(cod, memo)}"
        case _:
            raise TypeError(t)
    memo[id(t)] = (t, text)
    return text


def count_calls(monkeypatch, module, name, keep=False) -> list:
    """The calls of module.name, recursive ones included, wherever bangcalc
    has imported it; with `keep`, each call's first argument."""
    calls = []
    orig = getattr(module, name)

    def counted(*args):
        calls.append(args[0] if keep else None)
        return orig(*args)
    for mod in (module, cbn_cbv, system_e, system_u):
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


def count_folded(monkeypatch, table) -> list:
    """The nodes that folds over `table` compute while the test runs, one
    entry per computation."""
    computed = []
    for former, (attrs, f) in list(table.items()):
        def counted(node, *values, _f=f):
            computed.append(node)
            return _f(node, *values)
        monkeypatch.setitem(table, former, (attrs, counted))
    return computed


def ref_w_size(t) -> int:
    match t:
        case Var(_) | Bang(_):
            return 0
        case App(f, a) | Sub(f, _, a):
            return 1 + ref_w_size(f) + ref_w_size(a)
        case Abs(_, b) | Der(b):
            return 1 + ref_w_size(b)
    raise TypeError(t)


def ref_is_lambda_term(t) -> bool:
    match t:
        case Var(_):
            return True
        case App(f, a) | Sub(f, _, a):
            return ref_is_lambda_term(f) and ref_is_lambda_term(a)
        case Abs(_, b):
            return ref_is_lambda_term(b)
    return False


def ref_nf_bits(t) -> tuple:
    """(ne, na, nb) of the weak normal-form grammars."""
    match t:
        case Var(_):
            return True, True, True
        case Bang(_):
            return False, True, False
        case Abs(_, b):
            _, na, nb = ref_nf_bits(b)
            return False, False, na or nb
        case App(f, a):
            _, fna, _ = ref_nf_bits(f)
            _, ana, anb = ref_nf_bits(a)
            ok = fna and (ana or anb)
            return ok, ok, ok
        case Der(b):
            nb = ref_nf_bits(b)[2]
            return nb, nb, nb
        case Sub(b, _, a):
            bne, bna, bnb = ref_nf_bits(b)
            anb = ref_nf_bits(a)[2]
            return bne and anb, bna and anb, bnb and anb
    raise TypeError(t)


def ref_wcf_bits(t) -> tuple:
    """(ne, na, nb) of the weak clash-free normal-form grammars."""
    match t:
        case Var(_):
            return True, True, True
        case Bang(_):
            return False, True, False
        case Abs(_, b):
            _, na, nb = ref_wcf_bits(b)
            return False, False, na or nb
        case App(f, a):
            ok = ref_wcf_bits(f)[0] and ref_wcf_bits(a)[1]
            return ok, ok, ok
        case Der(b):
            ne = ref_wcf_bits(b)[0]
            return ne, ne, ne
        case Sub(b, _, a):
            bne, bna, bnb = ref_wcf_bits(b)
            ane = ref_wcf_bits(a)[0]
            return bne and ane, bna and ane, bnb and ane
    raise TypeError(t)


def ref_cbn_bits(t) -> tuple:
    """(ne_n, no_n) of the head CBN normal-form grammars."""
    match t:
        case Var(_):
            return True, True
        case App(f, _):
            ne = ref_cbn_bits(f)[0]
            return ne, ne
        case Abs(_, b):
            return False, ref_cbn_bits(b)[1]
        case Sub(_, _, _):
            return False, False
    raise NotLambdaTerm(ref_print_term(t))


def ref_cbv_bits(t) -> tuple:
    """(vr_v, ne_v, no_v) of the open CBV normal-form grammars."""
    match t:
        case Var(_):
            return True, False, True
        case Abs(_, _):
            return False, False, True
        case App(f, a):
            fvr, fne, _ = ref_cbv_bits(f)
            ne = (fvr or fne) and ref_cbv_bits(a)[2]
            return False, ne, ne
        case Sub(b, _, a):
            bvr, bne, bno = ref_cbv_bits(b)
            ane = ref_cbv_bits(a)[1]
            return bvr and ane, bne and ane, bno and ane
    raise NotLambdaTerm(ref_print_term(t))


def ref_embed_cbn(t):
    match t:
        case Var(_):
            return t
        case Abs(x, b):
            return Abs(x, ref_embed_cbn(b))
        case App(f, a):
            return App(ref_embed_cbn(f), Bang(ref_embed_cbn(a)))
        case Sub(b, x, a):
            return Sub(ref_embed_cbn(b), x, Bang(ref_embed_cbn(a)))
    raise NotLambdaTerm(ref_print_term(t))


def ref_embed_cbv(t):
    """The value embedding, un-banging a bang-shaped application head
    under its closure spine."""
    match t:
        case Var(x):
            return Bang(Var(x))
        case Abs(x, b):
            return Bang(Abs(x, ref_embed_cbv(b)))
        case App(f, a):
            head = ref_embed_cbv(f)
            if not is_bang_shaped(head):
                return App(Der(head), ref_embed_cbv(a))
            spine = []
            while isinstance(head, Sub):
                spine.append((head.binder, head.arg))
                head = head.body
            head = head.body
            for binder, arg in reversed(spine):
                head = Sub(head, binder, arg)
            return App(head, ref_embed_cbv(a))
        case Sub(b, x, a):
            return Sub(ref_embed_cbv(b), x, ref_embed_cbv(a))
    raise NotLambdaTerm(ref_print_term(t))


# ---------------------------------------------------------------------------
# Reference lexers: one hand-written loop per grammar, the oracles for
# `syntax.Lexer` under `syntax.TERM_TOKENS` and `qtypes.TYPE_TOKENS`.  Each
# gives (kind, text, offset) tokens ending in ("eof", "", len(text)).

_REF_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_REF_IDENT_CONT = _REF_LETTERS | set("0123456789_'")
_REF_DIGITS = set("0123456789")


def ref_term_tokens(text):
    toks, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _REF_LETTERS:
            j = i + 1
            while j < n and text[j] in _REF_IDENT_CONT:
                j += 1
            word = text[i:j]
            toks.append(("der" if word == "der" else "ident", word, i))
            i = j
        elif text.startswith(":=", i):
            toks.append(("sep", ":=", i))
            i += 2
        elif c in "\\!()[].λ":
            kind = {"λ": "lambda", "\\": "backslash"}.get(c, c)
            toks.append((kind, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    return toks + [("eof", "", n)]


def ref_type_tokens(text):
    """A base variable is o followed by decimal digits 0-9; no other
    character that `str.isdigit` accepts continues it."""
    toks, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "[],":
            toks.append((c, c, i))
            i += 1
        elif text.startswith("->", i):
            toks.append(("->", "->", i))
            i += 2
        elif c == "o" and i + 1 < n and text[i + 1] in _REF_DIGITS:
            j = i + 1
            while j < n and text[j] in _REF_DIGITS:
                j += 1
            toks.append(("base", text[i:j], i))
            i = j
        elif c in "abn":
            toks.append(("tight", c, i))
            i += 1
        else:
            raise TypeParseError(f"bad character {c!r} in type")
    return toks + [("eof", "", n)]


# ---------------------------------------------------------------------------
# Reference term parser: the recursive descent, one function per grammar
# rule, that `syntax.parse_term` ran before its one walk on `unwind`; the
# oracle for its terms and its error messages, at depths the recursion
# limit allows.

def ref_parse_term(text):
    toks = Lexer(text, TERM_TOKENS)
    t = _ref_parse_term(toks)
    k, v, p = toks.peek()
    if k != "eof":
        raise ParseError(f"trailing input {v!r}", p)
    return t


def _ref_parse_term(toks):
    k, _, _ = toks.peek()
    if k in ("backslash", "lambda"):
        nxt = toks.toks[toks.i + 1]
        # a backslash starts an abstraction only when followed by a binder
        if nxt[0] == "ident":
            toks.next()
            _, x, _ = toks.expect("ident")
            toks.expect(".")
            return Abs(x, _ref_parse_term(toks))
    return _ref_parse_app(toks)


def _ref_parse_app(toks):
    t = _ref_parse_post(toks)
    while True:
        k, _, _ = toks.peek()
        if k in ("ident", "!", "der", "("):
            t = App(t, _ref_parse_post(toks))
        else:
            return t


def _ref_parse_post(toks):
    t = _ref_parse_atom(toks)
    while toks.peek()[0] == "[":
        toks.next()
        _, x, _ = toks.expect("ident")
        k, v, p = toks.next()
        if k not in ("backslash", "sep"):
            raise ParseError(f"expected \\\\ or := in closure, found {v!r}", p)
        arg = _ref_parse_term(toks)
        toks.expect("]")
        t = Sub(t, x, arg)
    return t


def _ref_parse_atom(toks):
    k, v, p = toks.next()
    if k == "ident":
        return Var(v)
    if k == "!":
        return Bang(_ref_parse_atom(toks))
    if k == "der":
        return Der(_ref_parse_atom(toks))
    if k == "(":
        t = _ref_parse_term(toks)
        toks.expect(")")
        return t
    raise ParseError(f"unexpected token {v!r}", p)


def ref_derivation_from_json(obj):
    """The derivation reader that parses every text of every node afresh:
    the oracle for `serialize.derivation_from_json`, which parses each
    distinct text once per read."""
    try:
        return _ref_derivation_from_json(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as ex:
        raise MalformedDerivation(f"malformed derivation ({type(ex).__name__}: {ex})") from ex


def _ref_derivation_from_json(obj):
    if not isinstance(obj.get("premises", []), list) or not isinstance(obj.get("context", {}), dict):
        raise TypeError("premises must be a list and context an object")
    premises = tuple(_ref_derivation_from_json(p) for p in obj.get("premises", []))
    context = {}
    for x, m in obj.get("context", {}).items():
        ty = parse_type(m)
        if not isinstance(ty, Mult):
            raise ValueError(f"context entry for {x} must be a multiset")
        context[x] = ty
    subject = parse_term(obj["term"])
    ty = parse_type(obj["type"])
    if "counters" in obj:
        counters = obj["counters"]
        if not (isinstance(counters, list) and len(counters) == 3
                and all(type(c) is int for c in counters)):
            raise ValueError("counters must be a list of three integers")
        return DerivationE(obj["rule"], context, subject, ty, tuple(counters), premises)
    return Derivation(obj["rule"], context, subject, ty, premises)


# ---------------------------------------------------------------------------
# Reference searches over weak contexts: one recursive function per
# strategy or size measure, the oracles for the tables that
# `reduction.search` runs.

def ref_subterm_at(t, pos):
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


def ref_replace_at(t, pos, new):
    if not pos:
        return new
    sel, rest = pos[0], pos[1:]
    match (t, sel):
        case (App(f, a), Sel.FUN):
            return App(ref_replace_at(f, rest, new), a)
        case (App(f, a), Sel.ARG):
            return App(f, ref_replace_at(a, rest, new))
        case (Abs(x, b), Sel.ABS_BODY):
            return Abs(x, ref_replace_at(b, rest, new))
        case (Der(b), Sel.DER_BODY):
            return Der(ref_replace_at(b, rest, new))
        case (Sub(b, x, a), Sel.SUB_BODY):
            return Sub(ref_replace_at(b, rest, new), x, a)
        case (Sub(b, x, a), Sel.SUB_ARG):
            return Sub(b, x, ref_replace_at(a, rest, new))
    raise InvalidPosition(f"no {sel} child here")


def ref_redexes(t):
    out = []

    def walk(t, pos):
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


def ref_detect_clash(t):

    def walk(t, pos):
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


def ref_step_dw(t):
    match t:
        case App(f, a):
            if is_abs_shaped(f):
                return ((), RuleKind.DB, fire_db(t))
            r = ref_step_dw(f)
            if r is not None:
                pos, kind, f2 = r
                return ((Sel.FUN,) + pos, kind, App(f2, a))
            if classify_nf(f).na:
                r = ref_step_dw(a)
                if r is not None:
                    pos, kind, a2 = r
                    return ((Sel.ARG,) + pos, kind, App(f, a2))
            return None
        case Sub(b, x, a):
            if is_bang_shaped(a):
                return ((), RuleKind.SBANG, fire_sbang(t))
            r = ref_step_dw(a)
            if r is not None:
                pos, kind, a2 = r
                return ((Sel.SUB_ARG,) + pos, kind, Sub(b, x, a2))
            if classify_nf(a).nb:
                r = ref_step_dw(b)
                if r is not None:
                    pos, kind, b2 = r
                    return ((Sel.SUB_BODY,) + pos, kind, Sub(b2, x, a))
            return None
        case Der(b):
            if is_bang_shaped(b):
                return ((), RuleKind.DBANG, fire_dbang(t))
            r = ref_step_dw(b)
            if r is not None:
                pos, kind, b2 = r
                return ((Sel.DER_BODY,) + pos, kind, Der(b2))
            return None
        case Abs(x, b):
            r = ref_step_dw(b)
            if r is not None:
                pos, kind, b2 = r
                return ((Sel.ABS_BODY,) + pos, kind, Abs(x, b2))
            return None
        case Var(_) | Bang(_):
            return None
    raise TypeError(t)


def ref_step_n(t):
    match t:
        case App(f, a):
            if is_abs_shaped(f):
                return ((), RuleKind.DB, fire_db(t))
            r = ref_step_n(f)
            if r is not None:
                pos, kind, f2 = r
                return ((Sel.FUN,) + pos, kind, App(f2, a))
            return None
        case Sub(b, x, a):
            return ((), RuleKind.S, subst_meta(b, x, a))
        case Abs(x, b):
            r = ref_step_n(b)
            if r is not None:
                pos, kind, b2 = r
                return ((Sel.ABS_BODY,) + pos, kind, Abs(x, b2))
            return None
        case Var(_):
            return None
    raise NotLambdaTerm(print_term(t))


def ref_step_v(t):
    match t:
        case App(f, a):
            if is_abs_shaped(f):
                return ((), RuleKind.DB, fire_db(t))
            r = ref_step_v(f)
            if r is not None:
                pos, kind, f2 = r
                return ((Sel.FUN,) + pos, kind, App(f2, a))
            r = ref_step_v(a)
            if r is not None:
                pos, kind, a2 = r
                return ((Sel.ARG,) + pos, kind, App(f, a2))
            return None
        case Sub(b, x, a):
            if isinstance(spine_core(a), (Var, Abs)):
                return ((), RuleKind.SV, fire_sv(t))
            r = ref_step_v(b)
            if r is not None:
                pos, kind, b2 = r
                return ((Sel.SUB_BODY,) + pos, kind, Sub(b2, x, a))
            r = ref_step_v(a)
            if r is not None:
                pos, kind, a2 = r
                return ((Sel.SUB_ARG,) + pos, kind, Sub(b, x, a2))
            return None
        case Abs(_, _) | Var(_):
            return None
    raise NotLambdaTerm(print_term(t))


def ref_n_size(t):
    match t:
        case Var(_):
            return 0
        case Abs(_, b):
            return 1 + ref_n_size(b)
        case App(f, _):
            return 1 + ref_n_size(f)
        case Sub(b, _, _):
            return 1 + ref_n_size(b)
    raise NotLambdaTerm(print_term(t))


def ref_v_size(t):
    match t:
        case Var(_):
            return 0
        case Abs(_, _):
            return 0
        case App(f, a):
            return 1 + ref_v_size(f) + ref_v_size(a)
        case Sub(b, _, a):
            return 1 + ref_v_size(b) + ref_v_size(a)
    raise NotLambdaTerm(print_term(t))



# ---------------------------------------------------------------------------
# Reference normal-form typers: four mutually recursive functions per
# system, the oracles for the one typer that `system_u.type_nf` runs for U
# and for E.

def ref_type_normal_form_u(t, target=None):
    return _ref_type_nf(t, target, {})


def _ref_type_nf(t, target, memo):
    cls = classify_wcf_nf(t, memo)
    if not cls.memberships:
        raise NotTypableNormalForm(f"{print_term(t)} is not a weak clash-free normal form")
    if cls.ne:
        return _ref_type_ne(t, target if target is not None else OMEGA, memo)
    if target is not None:
        raise NotTypableNormalForm("only neutral terms accept a target type")
    if cls.na:
        return _ref_type_na(t, memo)
    return _ref_type_nb(t, memo)


def _ref_type_ne(t, tau, memo):
    match t:
        case Var(x):
            return mk_ax(x, tau)
        case App(f, a):
            d_a = _ref_type_na(a, memo)
            assert isinstance(d_a.type, Mult)
            d_f = _ref_type_ne(f, Arrow(d_a.type, tau), memo)
            return mk_app(d_f, d_a)
        case Der(b):
            return mk_dr(_ref_type_ne(b, mult([tau]), memo))
        case Sub(b, x, a):
            d_b = _ref_type_ne(b, tau, memo)
            d_a = _ref_type_ne(a, ctx_get(d_b.context, x), memo)
            return mk_es(x, d_b, d_a)
    raise NotTypableNormalForm(print_term(t))


def _ref_type_na(t, memo):
    """A neutral-abs term with a multiset: bangs get the empty multiset by
    a nullary bg, neutral terms get it directly."""
    match t:
        case Bang(b):
            return mk_bg(b, ())
        case Sub(b, x, a):
            d_b = _ref_type_na(b, memo)
            d_a = _ref_type_ne(a, ctx_get(d_b.context, x), memo)
            return mk_es(x, d_b, d_a)
        case _ if classify_wcf_nf(t, memo).ne:
            return _ref_type_ne(t, EMPTY_MULT, memo)
    raise NotTypableNormalForm(print_term(t))


def _ref_type_nb(t, memo):
    match t:
        case Abs(x, b):
            return mk_abs(x, _ref_type_nf(b, None, memo))
        case Sub(b, x, a):
            d_b = _ref_type_nb(b, memo)
            d_a = _ref_type_ne(a, ctx_get(d_b.context, x), memo)
            return mk_es(x, d_b, d_a)
        case _ if classify_wcf_nf(t, memo).ne:
            return _ref_type_ne(t, OMEGA, memo)
    raise NotTypableNormalForm(print_term(t))


def ref_type_normal_form_tight(t):
    return _ref_tight_nf(t, {})


def _ref_tight_nf(t, memo):
    cls = classify_wcf_nf(t, memo)
    if not cls.memberships:
        raise NotTypableNormalForm(f"{print_term(t)} is not a weak clash-free normal form")
    if cls.ne:
        d = _ref_tight_ne(t, memo)
    elif cls.na:
        d = _ref_tight_arg(t, memo)
    else:
        d = _ref_tight_nb(t, memo)
    assert d.counters == (0, 0, w_size(t))
    return d


def _ref_tight_ne(t, memo):
    match t:
        case Var(x):
            return mk_ax_e(x, TIGHT_NEUTRAL)
        case App(f, a):
            return mk_ae_t(_ref_tight_ne(f, memo), _ref_tight_arg(a, memo))
        case Der(b):
            return mk_dr_t(_ref_tight_ne(b, memo))
        case Sub(b, x, a):
            return mk_es_t(x, _ref_tight_ne(b, memo), _ref_tight_ne(a, memo))
    raise NotTypableNormalForm(print_term(t))


def _ref_tight_arg(t, memo):
    """Neutral-abs terms: bang-shaped ones get b, neutral ones get n."""
    if classify_wcf_nf(t, memo).ne:
        return _ref_tight_ne(t, memo)
    match t:
        case Bang(b):
            return mk_bg_t(b)
        case Sub(b, x, a):
            return mk_es_t(x, _ref_tight_arg(b, memo), _ref_tight_ne(a, memo))
    raise NotTypableNormalForm(print_term(t))


def _ref_tight_nb(t, memo):
    if classify_wcf_nf(t, memo).ne:
        return _ref_tight_ne(t, memo)
    match t:
        case Abs(x, b):
            return mk_ai_t(x, _ref_tight_nf(b, memo))
        case Sub(b, x, a):
            return mk_es_t(x, _ref_tight_nb(b, memo), _ref_tight_ne(a, memo))
    raise NotTypableNormalForm(print_term(t))


def derivation_nodes(d):
    """The nodes of d in pre-order, walked with an explicit stack."""
    stack = [d]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.premises))


def same_derivation(a, b) -> bool:
    """a == b, node for node, counters included, walked with an explicit
    stack: the dataclass equality recurses through premises and subjects,
    which a deep derivation would overflow.  The subject checks share the
    pairs of subterms found equal, so each pair is compared once."""
    stack, proved = [(a, b)], {}
    while stack:
        a, b = stack.pop()
        if (type(a) is not type(b) or (a.rule, a.context, a.type) != (b.rule, b.context, b.type)
                or getattr(a, "counters", None) != getattr(b, "counters", None)
                or len(a.premises) != len(b.premises)
                or not _same_term(a.subject, b.subject, proved)):
            return False
        stack.extend(zip(a.premises, b.premises))
    return True


def _same_term(t, u, proved: dict) -> bool:
    """t == u, walked with an explicit stack, without walking a pair that
    `proved` holds (id(a) -> (a, b), a found equal to b; a is held so that
    its id stays its own); records each pair it finds equal."""
    stack, walked = [(t, u)], []
    while stack:
        a, b = stack.pop()
        if a is b or proved.get(id(a), (a, None))[1] is b:
            continue
        cls = type(a)
        if cls is not type(b) or cls is Var and a.name != b.name:
            return False
        if cls is Var:
            continue
        if (cls is Abs or cls is Sub) and a.binder != b.binder:
            return False
        walked.append((id(a), (a, b)))
        if cls is App:
            stack += [(a.fun, b.fun), (a.arg, b.arg)]
        else:
            stack += [(a.body, b.body)] + ([(a.arg, b.arg)] if cls is Sub else [])
    proved.update(walked)
    return True


# ---------------------------------------------------------------------------
# The generic node check, the oracle for the checks that `system_u.rule_table`
# builds for each rule

def ref_check_derivation(d, system: str):
    """The first node of d, in pre-order, that `ref_check_node` rejects in
    `system`, with the path of premise indices that leads to it."""
    cls = next(iter(RULES[system].values())).node
    memo = {} if cls is Derivation else None
    stack = [(d, ())]
    while stack:
        node, path = stack.pop()
        reason = ref_check_node(system, cls, node, memo)
        if reason is not None:
            return Violation(path, reason)
        stack.extend((p, path + (i,)) for i, p in reversed(list(enumerate(node.premises))))
    return None


def ref_check_node(system: str, cls: type, d, tight):
    """Why node d breaks the rules of `system`, whose nodes are of class
    `cls`, or None: the node class, empty context entries, tight constants
    (when `tight` is given), the rule's former and premise count, the fixed
    premises' subjects, then the further ones' (`system_u._TAIL`), its
    conclusion function's side conditions, then the node's type, context
    and counters against that conclusion."""
    if type(d) is not cls:
        return f"system {system.upper()} nodes must {'not ' if cls is Derivation else ''}carry counters"
    for m in d.context.values():
        if not m.elements:
            return "context stores an empty multiset entry"
    if tight is not None and any(map(has_tight_constants, (d.type, *d.context.values()),
                                     repeat(tight))):
        return "tight constants do not belong to this system"
    rule = RULES[system].get(d.rule) if isinstance(d.rule, str) else None
    if rule is None:
        return f"unknown rule {d.rule!r}"
    s, ps, k, former, rest = d.subject, d.premises, rule.fixed, rule.former, rule.rest
    if type(s) is not former or (len(ps) < k if rest else len(ps) != k):
        return rule.shape
    for p, part in zip(ps, rule.parts):
        part = getattr(s, part)
        if p.subject is not part and not term_eq(p.subject, part):
            return rule.subjects
    for p in ps[k:]:
        if not term_eq(p.subject, getattr(s, rest)):
            return system_u._TAIL[former].format(rule.tag)
    try:
        context, ty, premises = rule.conclude(rule.tag, s, d.type, ps)
    except IllFormed as ex:
        return str(ex)
    if ty is not d.type and ty != d.type:
        return rule.type if isinstance(rule.type, str) else rule.type(d)
    if context != d.context:
        return rule.context
    if (rule.delta is not None and all(type(p) is cls for p in premises)
            and add_counters(rule.delta, premises) != d.counters):
        return rule.counters
    return None


# ---------------------------------------------------------------------------
# Engine helpers that only tests call

def subst_derivation(d_t, x: str, d_us: list):
    """Merge derivations of u into a derivation of t, replacing the
    axioms for x.  The conclusion-type bag of d_us must equal the
    x-multiset of d_t's context.  Each axiom for x takes the first
    derivation of its type still in d_us, the axioms in the rebuild walk's
    order: pre-order, a node's premises in order (a closure's body before
    its argument)."""
    if mult(d.type for d in d_us) != ctx_get(d_t.context, x):
        raise IllFormed("argument derivations do not realize the multiset of x")
    for d in d_us[1:]:
        if not term_eq(d.subject, d_us[0].subject):
            raise IllFormed("argument derivations type different terms")
    u = d_us[0].subject if d_us else Var(x)  # unused when the pool is empty
    pool = list(d_us)
    out = unwind(system_u.rebuild_as(d_t, subst_meta(d_t.subject, x, u), x, pool))
    assert not pool, "unconsumed argument derivations"
    return out
