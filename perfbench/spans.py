"""Spans and counters around the public functions of the ``choquet`` modules.

The library imports its own functions with ``from .x import f``, so a
function lives under several names (``choquet.content.choquet_integral``,
``choquet.spaces.choquet_integral``, ``choquet.choquet_integral``, ...).
``Tracer.install`` replaces every ``choquet.*`` module attribute that holds
a wrapped function, and ``Tracer.uninstall`` puts every original back.

A span is (name, start, end, parent).  Self time is a span's duration
minus the time its child spans cover; calls run on one thread, so child
spans nest inside their parent.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute) pairs.  "Class.method" patches the class attribute.
WRAPPED = {
    "lattice": ["indicator", "validate_tiling"],
    "content": ["hausdorff_content", "hausdorff_content_value", "frostman_measure",
                "choquet_integral", "choquet_norm"],
    "young": ["luxemburg_norm", "luxemburg_norm_table", "phi_average",
              "young_equality_residual", "amemiya_functional", "NumericConjugate.__call__"],
    "maximal": ["hl_maximal", "fractional_measure_maximal", "orlicz_fractional_maximal"],
    "spaces": ["morrey_norm", "orlicz_morrey_norm", "block_norm", "pairing", "dual_witness",
               "space_norm", "associate_lower_bound", "enumerate_tilings", "greedy_min_tiling"],
    "sparse": ["verify_sparse", "apply_sparse", "cantor_family", "cantor_content",
               "cantor_lux_bound", "unboundedness_demo"],
    "harness": ["run_suite", "random_instance"],
    "cli": ["main"],
}
# Grid-function file I/O, traced as one layer named "lattice.io".
IO_METHODS = ["from_json", "to_json", "from_csv", "to_csv"]
# Functions whose leaf-cell count is recorded as "<span>.cells".
CELL_COUNTED = {
    "content.hausdorff_content", "content.frostman_measure", "content.choquet_integral",
    "maximal.hl_maximal", "maximal.fractional_measure_maximal",
    "maximal.orlicz_fractional_maximal", "young.luxemburg_norm_table", "sparse.apply_sparse",
}
COUNTER_SPAN = "trace.counters"


def span_names() -> list[str]:
    names = [f"{mod}.{attr}" for mod, attrs in WRAPPED.items() for attr in attrs]
    return names + ["lattice.io"]


class Tracer:
    """In-memory span recorder.  Wrappers stay inert until ``install``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []  # [span index, name, start, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.seen_tables: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self.active = True  # cleared while the benchmark checks outputs

    # --- spans ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> None:
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(self._id(name))
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([idx, name, start, 0.0])

    def close(self) -> None:
        end = time.perf_counter()
        idx, name, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    def reset_pass(self) -> None:
        """Forget which Luxemburg tables were seen: repeats are counted per pass."""
        self.seen_tables.clear()

    # --- counters (run inside their own span, so no layer pays for them) ---

    def _count(self, name: str, args, result) -> None:
        self.open(COUNTER_SPAN)
        try:
            if name in CELL_COUNTED:
                self.counters[f"{name}.cells"] += args[0].config.num_cells
            if name == "content.choquet_integral":
                vals = args[0].values
                levels = int(np.unique(vals[vals > 0.0]).size)
                self.counters[f"{name}.levels"] += levels
                self.samples[f"{name}.levels"].append(levels)
            elif name == "content.hausdorff_content":
                cubes = len(result.optimal_cover)
                self.counters[f"{name}.cover_cubes"] += cubes
                self.samples[f"{name}.cover_frac"].append(cubes / args[0].config.num_cells)
            elif name == "young.luxemburg_norm_table":
                f, phi = args[0], args[1]
                params = tuple(sorted((k, v) for k, v in vars(phi).items()
                                      if isinstance(v, (int, float, str))))
                key = (hashlib.sha1(f.values.tobytes()).digest(), f.config,
                       type(phi).__name__, params)
                self.samples[f"{name}.repeat"].append(key in self.seen_tables)
                self.seen_tables.add(key)
            elif name == "sparse.verify_sparse":
                self.samples[f"{name}.family_size"].append(len(args[1]))
            elif name == "sparse.cantor_family":
                self.samples[f"{name}.cubes"].append(len(result.family))
        finally:
            self.close()

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    tracer.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close()
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name == "spaces.greedy_min_tiling":
                args = (args[0], tracer._counted_objective(args[1]), *args[2:])
            tracer.calls[name] += 1
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            tracer._count(name, args, result)
            return result
        return wrapper

    def _counted_objective(self, objective):
        def counted(t):
            self.counters["spaces.greedy_min_tiling.objective_calls"] += 1
            return objective(t)
        return counted

    def _wrap_io(self, method: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls["lattice.io"] += 1
            tracer.open("lattice.io")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if method == "from_json":
                size = len(args[1])
            elif method == "to_json":
                size = len(result)
            else:  # from_csv and to_csv take a path
                size = os.path.getsize(args[1])
            tracer.counters["lattice.io.bytes"] += size
            return result
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Rebind every wrapped function in every loaded ``choquet`` module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import choquet.cli  # noqa: F401  (cli is not imported by the package)

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "choquet" or k.startswith("choquet."))]
        for mod_name, attrs in WRAPPED.items():
            home = sys.modules[f"choquet.{mod_name}"]
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                orig = getattr(home, attr)
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, wrapper)
        grid_cls = sys.modules["choquet.lattice"].GridFunction
        for method in IO_METHODS:
            desc = grid_cls.__dict__[method]
            if isinstance(desc, classmethod):
                new = classmethod(self._wrap_io(method, desc.__func__))
            else:
                new = self._wrap_io(method, desc)
            self._patch(grid_cls, method, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- results ------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write every recorded span; ``names[name[i]]`` is span i's name."""
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.span_name, dtype=np.int32),
                            start=np.frombuffer(self.span_start, dtype=np.float64),
                            end=np.frombuffer(self.span_end, dtype=np.float64),
                            parent=np.frombuffer(self.span_parent, dtype=np.int32))
