"""Single-call times and tracemalloc peaks of the level-set profile's callers.

    python3 tools/bench_profile.py --trees PARENT CHANGE [--rounds 4] [--fit]

Each tree is the root of a source checkout.  Every round runs one
subprocess per tree, alternating which goes first, and each subprocess
imports ``choquet`` from its tree's ``src/`` and times
``choquet_norm(f, 2)``, ``choquet_integral(f)`` and ``unboundedness_demo``
on fixed inputs: the median of several calls, and the tracemalloc peak of
one more.  ``--fit`` adds, for the last tree only, both private profile
kernels (``_dense_profile``, ``_merge_profile``) over a ladder of value
counts, the data the kernel rule was fitted on.  Prints one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

LATTICES = [(1, 6), (2, 4), (3, 3), (2, 6), (1, 12), (2, 9), (3, 6)]
VALUES = [1, 4, 16, 32, 64, 256, None]  # None: continuous
FIT_VALUES = [16, 32, 64, 96, 128, 160, 192, 256, 384, 512]
CANTORS = [((2, 2, 4), 8), ((3, 2, 3), 7), ((1, 2, 6), 12)]
D = {1: 0.5, 2: 1.0, 3: 1.5}


def _time(fn, reps: int) -> tuple[float, float]:
    """(median ms over reps calls, tracemalloc peak MB of one more)."""
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return round(1e3 * statistics.median(times), 4), round(peak / 2**20, 3)


def _grid(np, n: int, L: int, V):
    rng = np.random.default_rng([n, L, V or 0])
    vals = rng.random(2 ** (n * L))
    return vals if V is None else (np.floor(vals * V) + 1.0) / V


def measure(fit: bool) -> dict:
    import numpy as np

    from choquet import content as C
    from choquet.lattice import GridFunction, LatticeConfig
    from choquet.sparse import CantorConfig, unboundedness_demo

    out = {}
    for n, L in LATTICES:
        cfg = LatticeConfig(n, L, D[n])
        reps = 5 if cfg.num_cells >= 2**16 else 21
        for V in VALUES:
            if V is not None and V > cfg.num_cells:
                continue
            f = GridFunction(cfg, _grid(np, n, L, V))
            tag = f"n{n}L{L}.V{V or 'cont'}"
            out[f"choquet_norm.{tag}"] = _time(lambda: C.choquet_norm(f, 2.0), reps)
            out[f"choquet_integral.{tag}"] = _time(lambda: C.choquet_integral(f), reps)
    for (cn, m, K), L in CANTORS:
        c = CantorConfig(cn, m, K)
        out[f"unboundedness_demo.c{cn}{m}{K}L{L}"] = _time(lambda: unboundedness_demo(c, 1.0, L), 5)
    if fit:
        for n, L in LATTICES:
            cfg = LatticeConfig(n, L, D[n])
            reps = 3 if cfg.num_cells >= 2**16 else 11
            for V in FIT_VALUES:
                if V > cfg.num_cells:
                    continue
                grid = _grid(np, n, L, V).reshape(cfg.grid_shape)
                levels = np.unique(grid)
                tag = f"n{n}L{L}.V{V}"
                out[f"fit.dense.{tag}"] = _time(lambda: C._dense_profile(cfg, grid, levels), reps)
                out[f"fit.merge.{tag}"] = _time(lambda: C._merge_profile(cfg, grid), reps)
    return out


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--trees", nargs=2, metavar=("PARENT", "CHANGE"))
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--fit", action="store_true")
    p.add_argument("--one", help=argparse.SUPPRESS)  # a tree's root: measure it in this process
    args = p.parse_args(argv)
    if args.one:
        sys.path.insert(0, os.path.join(args.one, "src"))
        print(json.dumps(measure(args.fit)))
        return
    runs = {"parent": [], "change": []}
    for r in range(args.rounds):
        order = [("parent", 0), ("change", 1)] if r % 2 == 0 else [("change", 1), ("parent", 0)]
        for side, i in order:
            cmd = [sys.executable, __file__, "--one", os.path.abspath(args.trees[i])]
            if args.fit and side == "change" and r == 0:
                cmd.append("--fit")
            res = subprocess.run(cmd, capture_output=True, text=True, check=True)
            runs[side].append(json.loads(res.stdout))
    summary = {}
    for key in runs["parent"][0]:
        row = {}
        for side in ("parent", "change"):
            if key in runs[side][0]:
                row[f"{side}_ms"] = statistics.median(run[key][0] for run in runs[side])
                row[f"{side}_peak_mb"] = statistics.median(run[key][1] for run in runs[side])
        summary[key] = row
    fit = {k: v for k, v in runs["change"][0].items() if k.startswith("fit.")}
    print(json.dumps({"rounds": args.rounds, "summary": summary, "fit_ms_peak_mb": fit}, indent=1))


if __name__ == "__main__":
    main()
