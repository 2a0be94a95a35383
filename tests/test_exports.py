"""Every exported name resolves, in the package and in each of its modules,
and every module-level definition is exported or used."""

import ast
import importlib
import pkgutil
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

import polyctrl

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
    assert {"SparseTensor", "SparsityPattern", "DirectedHypergraph"} <= {c.__name__ for c in forms}
    machinery = {"__eq__", "__hash__", "__setattr__", "__reduce__", "_key"}
    copies = {c.__name__: sorted(machinery & vars(c).keys()) for c in forms}
    assert copies == {c.__name__: [] for c in forms}


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
