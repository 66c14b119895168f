"""Every name the benchmark's tracer wraps still exists in the library.

`perfbench/spans.py` lists the functions it times as (module, attribute)
pairs; a rename or deletion in `choquet` would only fail once the
benchmark runs.  This reads that list and resolves each name here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_SPANS = _spans_module()
# Grid-function file I/O is traced as GridFunction methods in `lattice`.
WRAPPED = [(mod, attr) for mod, attrs in _SPANS.WRAPPED.items() for attr in attrs]
WRAPPED += [("lattice", f"GridFunction.{meth}") for meth in _SPANS.IO_METHODS]


@pytest.mark.parametrize("mod, attr", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_wrapped_name_resolves(mod, attr):
    home = importlib.import_module(f"choquet.{mod}")
    if "." in attr:  # "Class.method": the tracer patches the class's own attribute
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, attr))
