"""Every exported name resolves, so a deleted definition cannot linger in
an ``__all__`` until a user's ``import *`` trips over it."""

import importlib
import inspect
import pkgutil

import pytest

import densecrop

MODULES = sorted(m.name for m in pkgutil.iter_modules(densecrop.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"densecrop.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from densecrop.{name} import *", {})


def test_package_star_import():
    # the package re-exports by explicit imports, which already fail on a
    # stale name; ``import *`` must then hand out each of them
    namespace = {}
    exec("from densecrop import *", namespace)
    public = {
        n for n, v in vars(densecrop).items()
        if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert public <= set(namespace)
