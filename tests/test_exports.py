"""Every exported name resolves, in the package and in each of its modules."""

import importlib
import pkgutil

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
