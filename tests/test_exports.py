"""The export surface: every name in ``pops.__all__`` and in each submodule's
``__all__`` resolves, and ``from pops import *`` binds all of them."""

import importlib
import pkgutil

import pytest

import pops

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(pops.__path__))


def test_package_exports_resolve():
    assert len(set(pops.__all__)) == len(pops.__all__)
    missing = [name for name in pops.__all__ if not hasattr(pops, name)]
    assert not missing


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"pops.{module}")
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing


def test_star_import():
    namespace: dict = {}
    exec("from pops import *", namespace)
    assert set(pops.__all__) <= namespace.keys()
