"""Every exported name resolves, in the package and in each of its modules,
every module-level definition is exported or used, and every value the
package returns shares one base."""

import ast
import copy
import importlib
import pickle
import pkgutil
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

import polyctrl
from polyctrl import numeric, oracle, structural
from polyctrl.formats import parse_input

MODULES = sorted(info.name for info in pkgutil.iter_modules(polyctrl.__path__))


def test_every_module_is_listed():
    assert "tensor" in MODULES and "numeric" in MODULES


@pytest.mark.parametrize("name", ["polyctrl", *(f"polyctrl.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def referenced_names(tree):
    """Every name a tree reads, imports or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_module_level_definition_is_exported_or_used():
    """A function or class that is in no ``__all__`` and that no code in the
    package names, apart from its own body, is dead."""
    source = Path(polyctrl.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(source.glob("*.py"))}
    uses = Counter(chain.from_iterable(map(referenced_names, trees.values())))
    dead = []
    for stem, tree in trees.items():
        name = "polyctrl" if stem == "__init__" else f"polyctrl.{stem}"
        exported = set(importlib.import_module(name).__all__)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = Counter(referenced_names(node))[node.name]
            if node.name not in exported and uses[node.name] == own:
                dead.append(f"{name}.{node.name}")
    assert dead == []


def capacity_error_constructors(node, where):
    """The enclosing definition of every call that builds a CapacityError."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            if getattr(func, "id", getattr(func, "attr", None)) == "CapacityError":
                yield where
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from capacity_error_constructors(child, f"{where}.{child.name}" if named else where)


def test_only_the_capacity_rule_builds_a_capacity_error():
    """Every cell count is refused by the one rule; the oracles' desk-scale
    guards bound sizes, not cells, and are the only exceptions."""
    source = Path(polyctrl.__file__).parent
    builders = [
        where
        for path in sorted(source.glob("*.py"))
        for where in capacity_error_constructors(ast.parse(path.read_text()), path.stem)
    ]
    assert builders == [
        "oracle._bracket_generation",
        "oracle.brute_force_dilation",
        "oracle.individual_accessibility_closure",
        "tensor._check_capacity",
    ]


def test_no_frozen_value_copies_the_value_machinery():
    """Every ``_FrozenArrays`` form takes equality, hashing, immutability and
    pickling from the base; none defines its own."""
    for module in MODULES:
        importlib.import_module(f"polyctrl.{module}")
    forms, todo = [], [polyctrl.tensor._FrozenArrays]
    while todo:
        subclasses = todo.pop().__subclasses__()
        forms.extend(subclasses)
        todo.extend(subclasses)
    assert {c.__name__ for c in forms} == {
        "SparseTensor",
        "SparsityPattern",
        "DirectedHypergraph",
        "Hyperedge",
        "Polysystem",
        "DilationResult",
        "StructuralVerdict",
        "RankReport",
        "PolyVectorField",
        "AccessClosure",
    }
    machinery = {"__eq__", "__hash__", "__setattr__", "__reduce__", "_key"}
    copies = {c.__name__: sorted(machinery & vars(c).keys()) for c in forms}
    assert copies == {c.__name__: [] for c in forms}


def test_no_module_imports_dataclasses():
    """Every value of the package is a ``_FrozenArrays``; none is a dataclass."""
    source = Path(polyctrl.__file__).parent
    users = [
        path.stem
        for path in sorted(source.glob("*.py"))
        if {"dataclass", "dataclasses"} & set(referenced_names(ast.parse(path.read_text())))
    ]
    assert users == []


GRAPH_TEXT = "hypergraph 3 1\n4 -> 1\n1 -> 2\n2,2 -> 1,2\n"
CUBIC_TEXT = "tensor 4 2\n1 1 1 2 1.0\nmatrix 2 1\n1 1 1.0\n"


@pytest.mark.parametrize(
    "build, text",
    [
        (
            lambda: structural.detect_dilation(parse_input(GRAPH_TEXT)),
            "DilationResult(dilated=True, witness=frozenset({3}), matching=((0, 1), (1, 2)))",
        ),
        (
            lambda: structural.analyze_hypergraph(parse_input(GRAPH_TEXT)),
            "StructuralVerdict(controllable=False, dilation_witness=frozenset({3}), "
            "inaccessible=frozenset({3}), matching=((0, 1), (1, 2)))",
        ),
        (
            lambda: numeric.strong_controllability(parse_input(CUBIC_TEXT)),
            "RankReport(rank=2, n=2, strongly_controllable=True, iterations=1, "
            "tolerance=4.440892098500626e-16)",
        ),
        (
            lambda: oracle.field_from_polysystem(parse_input(CUBIC_TEXT))[0],
            "PolyVectorField(dim=2, coords=({}, {((1, 3),): 1.0}))",
        ),
        (
            lambda: oracle.individual_accessibility_closure(
                parse_input("hypergraph 1 1\n2 -> 1\n")
            ),
            "AccessClosure(sets=frozenset({frozenset({2}), frozenset({1}), frozenset({1, 2})}), "
            "individually_accessible=frozenset({1}), truncated=False)",
        ),
        (
            lambda: parse_input(GRAPH_TEXT).edges[2],
            "Hyperedge(tail=(2, 2), head=frozenset({1, 2}))",
        ),
        (
            lambda: parse_input(CUBIC_TEXT),
            "Polysystem(tensor=SparseTensor(order=4, dim=2, entries={(1, 1, 1, 2): 1.0}), "
            "control=array([[1.],\n       [0.]]))",
        ),
    ],
)
def test_every_value_keeps_its_repr_and_survives_pickle_and_deepcopy(build, text):
    value = build()
    assert repr(value) == text
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value and clone is not value
    with pytest.raises(AttributeError, match="immutable"):
        value.dim = 0
    with pytest.raises(TypeError, match="positional arguments"):
        type(value)(*range(len(value.__slots__) + 1))


def test_one_routine_orders_index_rows():
    """No module sorts rows with ``lexsort``; every numpy row order goes
    through ``tensor._row_order``, defined there alone."""
    source = Path(polyctrl.__file__).parent
    calls, defined = [], []
    for path in sorted(source.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "lexsort" in referenced_names(node.func):
                calls.append(path.stem)
            if isinstance(node, ast.FunctionDef) and node.name == "_row_order":
                defined.append(path.stem)
    assert calls == []
    assert defined == ["tensor"]


def test_one_routine_scales_by_powers_of_two():
    """Every exact power-of-two scaling goes through ``tensor._unit_scaled``,
    the one caller of ``frexp``."""
    source = Path(polyctrl.__file__).parent
    callers = []
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text())
        # each node's innermost enclosing function, None at module level
        scope = {
            id(node): function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "frexp" in referenced_names(node.func):
                callers.append((path.stem, scope.get(id(node))))
    assert callers == [("tensor", "_unit_scaled")]
