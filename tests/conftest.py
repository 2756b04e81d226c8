import hypothesis.strategies as st
from hypothesis import settings

from bangcalc.qtypes import Mult, parse_type
from bangcalc.serialize import MalformedDerivation
from bangcalc.syntax import Abs, App, Bang, Der, Sub, Var, parse_term
from bangcalc.system_e import DerivationE
from bangcalc.system_u import Derivation

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


# ---------------------------------------------------------------------------
# Reference walkers: plain recursion that caches nothing, the oracles for
# the per-node facts bangcalc computes once and keeps.

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


def ref_derivation_from_json(obj):
    """The derivation reader that parses every text of every node afresh:
    the oracle for `serialize.derivation_from_json`, which parses each
    distinct text once per read."""
    try:
        return _ref_derivation_from_json(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as ex:
        raise MalformedDerivation(f"malformed derivation ({type(ex).__name__}: {ex})") from ex


def _ref_derivation_from_json(obj):
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
