"""The public API: each module's `__all__`, and what the package imports.

A deletion that misses one of a name's listings would otherwise only show
at `from choquet.<module> import *` or at `import choquet`."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import choquet
from choquet.content import choquet_norm
from choquet.harness import random_instance
from choquet.lattice import CubeId, GridFunction, LatticeConfig, Tiling
from choquet.maximal import orlicz_fractional_maximal
from choquet.spaces import (SpaceSpec, block_norm, dual_witness, morrey_norm, orlicz_morrey_norm, space_norm,
                            tiling_orlicz_morrey_norm)
from choquet.sparse import CantorConfig, unboundedness_demo
from choquet.young import ExpM1, LlogL, Power, PowerConjugate

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


_F = GridFunction.constant(LatticeConfig(1, 2, 0.5), 1.0)
_ROOT = Tiling([CubeId(0, (0,))])
# each entry point that takes an exponent, called with it set to x
_EXPONENT_CALLS = {
    "choquet_norm": lambda x: choquet_norm(_F, x),
    "morrey_norm": lambda x: morrey_norm(_F, x),
    "orlicz_morrey_norm": lambda x: orlicz_morrey_norm(_F, x, LlogL()),
    "block_norm": lambda x: block_norm(_F, x, LlogL(), _ROOT),
    "tiling_orlicz_morrey_norm": lambda x: tiling_orlicz_morrey_norm(_F, x, ExpM1(), _ROOT),
    "dual_witness": lambda x: dual_witness(_F, _F, x, LlogL(), _ROOT),
    "unboundedness_demo": lambda x: unboundedness_demo(CantorConfig(1, 2, 1), x),
    "space_norm": lambda x: space_norm(_F, SpaceSpec("block", p=x, phi=LlogL(), tiling=_ROOT)),
    "Power": Power,
    "PowerConjugate": PowerConjugate,
    "orlicz_fractional_maximal": lambda x: orlicz_fractional_maximal(_F, x, LlogL()),
}


@pytest.mark.parametrize("value", ["2", None, True], ids=["str", "None", "bool"])
@pytest.mark.parametrize("name", sorted(_EXPONENT_CALLS))
def test_exponent_that_is_not_a_real_number_is_value_error(name, value):
    # a string, None or a bool is rejected up front, not a TypeError from a comparison
    with pytest.raises(ValueError):
        _EXPONENT_CALLS[name](value)
