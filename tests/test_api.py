"""The public API: each module's `__all__`, and what the package imports.

A deletion that misses one of a name's listings would otherwise only show
at `from choquet.<module> import *` or at `import choquet`."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import choquet
from choquet.harness import random_instance

MODULES = ["content", "harness", "lattice", "maximal", "spaces", "sparse", "young"]

# Names taken out of the public API; the expressions that replace them are in
# CHANGES.md.
DROPPED = {
    "lattice": ["cell_average", "cube_count", "parent"],
    "young": ["check_delta2", "check_nabla2", "_PROBE_GRID", "complementary", "numeric_conjugate"],
}


def _package_imports():
    """(module, name) for each name `choquet/__init__.py` imports."""
    tree = ast.parse(Path(choquet.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"choquet.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    namespace = {}
    exec(f"from choquet.{module} import *", namespace)
    assert set(mod.__all__) <= namespace.keys()


def test_package_imports_only_exported_names():
    imports = _package_imports()
    assert {module for module, _ in imports} == set(MODULES)
    stray = [(module, name) for module, name in imports
             if name not in importlib.import_module(f"choquet.{module}").__all__]
    assert not stray


@pytest.mark.parametrize("module, name", [(m, n) for m, names in DROPPED.items() for n in names])
def test_dropped_name_is_gone(module, name):
    assert not hasattr(importlib.import_module(f"choquet.{module}"), name)
    assert not hasattr(choquet, name)


def test_random_instance_has_no_eta():
    # every family it draws is 1/2-sparse
    assert list(inspect.signature(random_instance).parameters) == ["kind", "config", "seed"]
