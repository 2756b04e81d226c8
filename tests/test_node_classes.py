"""The node classes: terms, types, derivations and the per-step records are
plain slotted dataclasses.  Their fields, pattern-matching order, equality
and hashing are pinned here, and an AST scan of the sources checks that no
code outside a class body writes a node field, since only convention keeps
a non-frozen node unchanged once built."""

import ast
import dataclasses
from pathlib import Path

import pytest

import bangcalc
from bangcalc.qtypes import Arrow, BaseVar, Mult, Tight
from bangcalc.reduction import ClashReport, RuleKind, TraceStep
from bangcalc.syntax import Abs, App, Bang, Der, Sub, Var
from bangcalc.system_e import DerivationE
from bangcalc.system_u import RULES, Derivation, Sized

X = Var("x")
TY = Arrow(Mult((BaseVar(0),)), BaseVar(0))

# class: (its fields, in order, which are also its __match_args__; an instance)
NODES = {
    Var: (("name",), X),
    App: (("fun", "arg"), App(X, X)),
    Abs: (("binder", "body"), Abs("x", X)),
    Bang: (("body",), Bang(X)),
    Der: (("body",), Der(X)),
    Sub: (("body", "binder", "arg"), Sub(X, "y", X)),
    BaseVar: (("index",), BaseVar(0)),
    Tight: (("constant",), Tight("n")),
    Mult: (("elements",), Mult((TY,))),
    Arrow: (("domain", "codomain"), TY),
    Derivation: (("rule", "context", "subject", "type", "premises"),
                 Derivation("ax", {"x": Mult((TY,))}, X, TY)),
    DerivationE: (("rule", "context", "subject", "type", "counters", "premises"),
                  DerivationE("ax", {"x": Mult((TY,))}, X, TY, (0, 0, 0))),
    TraceStep: (("position", "rule", "result"), TraceStep((), RuleKind.DB, X)),
    ClashReport: (("clash_free", "witness"), ClashReport(True, None)),
}
CACHES = {"_fv"} | set(Sized.__slots__)


@pytest.mark.parametrize("cls", list(NODES), ids=lambda c: c.__name__)
def test_node_classes_are_slotted_with_their_fields_unchanged(cls):
    names, node = NODES[cls]
    assert type(node) is cls and not hasattr(node, "__dict__")
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert cls.__match_args__ == names
    # equality and repr read the fields only, as they did when frozen
    twin = cls(*(getattr(node, n) for n in names))
    assert twin == node and repr(twin) == repr(node)
    for slot in CACHES:  # a cache slot starts unset
        assert not hasattr(twin, slot)


@pytest.mark.parametrize("cls", [c for c in NODES if c not in (Derivation, DerivationE)],
                         ids=lambda c: c.__name__)
def test_value_nodes_hash_as_the_tuple_of_their_fields(cls):
    # the hash a frozen dataclass gave them
    names, node = NODES[cls]
    assert hash(node) == hash(tuple(getattr(node, n) for n in names))


def test_repr_is_the_dataclass_repr():
    assert repr(App(X, Abs("y", X))) == "App(fun=Var(name='x'), arg=Abs(binder='y', body=Var(name='x')))"


def test_derivation_nodes_are_not_hashable():
    for cls in (Derivation, DerivationE):
        with pytest.raises(TypeError):
            hash(NODES[cls][1])


# ---------------------------------------------------------------------------
# No code writes a node field once the node is built

SRC = Path(bangcalc.__file__).parent
FIELDS = frozenset({"fun", "arg", "body", "binder", "name", "elements", "domain", "codomain",
                    "rule", "context", "subject", "type", "counters", "premises"})
# attributes set on `system_u.Rule`, which is not a node, after it is built
RULE_ATTRS = frozenset({"parts", "remake", "make", "check"})
SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def _is_cache(name: str) -> bool:
    return name == "_fv" or name.startswith("_size_")


def _names_bound(tree: ast.AST) -> dict[str, list[ast.expr]]:
    """name -> every expression assigned to it in tree, a tuple target
    paired with a tuple value element by element; a name bound otherwise
    (a parameter, a loop variable, ...) is given an unknown value."""
    bound: dict[str, list[ast.expr]] = {}
    known: set[int] = set()  # the Name targets given a value here
    unknown = ast.Constant(None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple) \
                        and len(node.value.elts) == len(target.elts):
                    pairs = list(zip(target.elts, node.value.elts))
                for name, value in pairs:
                    if isinstance(name, ast.Name):
                        bound.setdefault(name.id, []).append(value)
                        known.add(id(name))
        elif isinstance(node, ast.arg):
            bound.setdefault(node.arg, []).append(unknown)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and id(node) not in known:
            bound.setdefault(node.id, []).append(unknown)
    return bound


def _attr_prefix(expr: ast.expr, bound: list) -> str | None:
    """The attribute name an expression gives, or its constant prefix for
    `"prefix" + ...`; None when it is not known.  A name is looked up in
    `bound`, the `_names_bound` of each enclosing scope, innermost first."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if (isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add)
            and isinstance(expr.left, ast.Constant) and isinstance(expr.left.value, str)):
        return expr.left.value
    if isinstance(expr, ast.Name):
        for scope in bound:  # innermost first
            if expr.id in scope:
                found = {_attr_prefix(v, bound) for v in scope[expr.id]}
                return found.pop() if len(found) == 1 else None
    return None


def node_writes(source: str) -> list[str]:
    """The writes of a node field in `source` outside class bodies, and the
    setattr-style calls that may write one: every such call must name a
    cache slot (`_fv`, `_size_*`), or an attribute of `Rule`."""
    tree = ast.parse(source)
    found: list[str] = []

    def targets(node):
        if isinstance(node, (ast.Assign, ast.Delete)):
            return node.targets
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        return []

    def flatten(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from flatten(elt)
        elif isinstance(target, ast.Starred):
            yield from flatten(target.value)
        else:
            yield target

    def visit(node, in_class: bool, scopes: list):
        for target in targets(node):
            for t in flatten(target):
                if isinstance(t, ast.Attribute) and t.attr in FIELDS and not in_class:
                    found.append(f"line {t.lineno}: .{t.attr} written")
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in SETTERS and len(node.args) >= 2:
                attr = _attr_prefix(node.args[1], [_names_bound(n) for n in reversed(scopes)])
                if attr is None or not (_is_cache(attr) or attr in RULE_ATTRS):
                    found.append(f"line {node.lineno}: {name} of {attr or 'an unknown name'}")
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            scopes = scopes + [node]
        for child in ast.iter_child_nodes(node):
            visit(child, in_class or isinstance(node, ast.ClassDef), scopes)

    visit(tree, False, [tree])
    return found


def test_no_source_writes_a_node_field_once_built():
    # the attributes the scan lets through are Rule's, and no node's fields
    assert all(hasattr(rule, a) for rules in RULES.values() for rule in rules.values()
               for a in RULE_ATTRS)
    assert not RULE_ATTRS & {n for names, _ in NODES.values() for n in names}
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        assert node_writes(path.read_text()) == [], path.name


@pytest.mark.parametrize("source", [
    "def f(t, u):\n    t.fun = u",
    "def f(t, u):\n    t.arg, n = u, 0",
    "def f(d):\n    d.premises += ()",
    "def f(d):\n    del d.context",
    "def f(t):\n    object.__setattr__(t, 'body', t)",
    "def f(t, name):\n    setattr(t, name, 0)",
    "def f(d):\n    attr = 'rule'\n    setattr(d, attr, 'ax')",
    "attr = '_size_u'\ndef f(d, attr):\n    setattr(d, attr, 0)",
    "attr = '_size_u'\ndef f(d):\n    for attr in ('rule',):\n        setattr(d, attr, 0)",
    "def f(t):\n    delattr(t, 'name')",
])
def test_the_scan_finds_a_node_write(source):
    assert node_writes(source)


def test_the_scan_passes_cache_writes_and_class_bodies():
    assert node_writes(
        "class C:\n    def __init__(self, name):\n        self.name = name\n"
        "def f(t, d, system):\n    t._fv = frozenset()\n    attr = '_size_' + system\n"
        "    setattr(d, attr, 1)\n    object.__setattr__(d, '_size_u', 1)\n") == []
