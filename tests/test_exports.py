"""Every exported name resolves, so a deleted definition cannot linger in
an ``__all__`` until a user's ``import *`` trips over it; and no module
imports another module's private names."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


def test_no_private_names_imported_across_modules():
    # a name with a leading underscore is its module's own; a sibling that
    # needs it should get a public home for it instead
    src = Path(densecrop.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "densecrop"
            )
            if sibling:
                names = [alias.name for alias in node.names]
                offenders += [f"{path.name}: {n}" for n in names if n.startswith("_")]
    assert offenders == []
