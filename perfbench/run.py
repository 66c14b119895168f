"""Benchmark for the ``choquet`` package.

    python3 perfbench/run.py --workload {suites,kernels,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload: set-up (import, input generation
from the seed, warm-up), then whole passes over the workload's operation
list until ``--seconds`` have elapsed.  Every output is checked outside the
timed region.  The last line of standard output is the result JSON; the
line before it holds the details (environment, tail percentile, failures).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends a
third of the time on untraced passes and the rest on passes with spans
around every wrapped public function, then reports the per-layer metrics
and writes the spans to ``perfbench/_out/``.  For ``cli`` the three thirds
are subprocess calls, in-process ``cli.main`` calls and traced in-process
calls.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

WORKLOADS = ("suites", "kernels", "cli")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # op_ms_tail leaves this many samples above it
MAX_FAILURE_MESSAGES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(latencies) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    (n - 10)-th smallest sample.  Returns (value, percentile)."""
    lat = sorted(latencies)
    k = max(len(lat) - TAIL_BEYOND, 1)
    return lat[k - 1], 100.0 * k / len(lat)


def environment() -> dict:
    """Versions and machine, read from the checkout and /proc (read only)."""
    import numpy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "git_sha": _git_sha(), "src_sha256": _tree_digest(os.path.join(SRC, "choquet"))}
    try:
        with open("/proc/self/status") as fh:
            allowed = next(line for line in fh if line.startswith("Cpus_allowed_list:"))
        env["nproc"] = sum(int(b) - int(a) + 1 if "-" in r else 1
                           for r in allowed.split(":")[1].strip().split(",")
                           for a, b in [r.split("-") if "-" in r else (r, r)])
    except (OSError, StopIteration, ValueError):
        env["nproc"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        env["cpu"] = None
    return env


def _git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((line.split()[0] for line in fh if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def _tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


class Tally:
    """Per-operation outcomes: latencies, failures and output digests."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.messages: list[str] = []
        self.known: dict[str, int] = {}
        self.digests: dict[tuple[str, int], str] = {}

    def run_pass(self, ops, inproc: bool = False) -> float:
        """One pass in op order; returns the summed time of the calls."""
        total = 0.0
        for op in ops:
            fn = op.call_inproc if inproc else op.call
            t0 = time.perf_counter()
            try:
                out, err = fn(), None
            except Exception as exc:  # an operation that raises counts as failed
                out, err = None, exc
            dt = time.perf_counter() - t0
            total += dt
            self.latencies_ms.append(1e3 * dt / op.per)
            self._check(op, out, err)
        return total

    def _check(self, op, out, err) -> None:
        from workloads import CheckFailed

        self.attempted += 1
        if self.tracer is not None:
            self.tracer.active = False
        try:
            if err is not None:
                raise CheckFailed(f"raised {err!r}")
            op.check(out)
            digest = op.digest(out)
            if self.digests.setdefault((op.name, op.variant), digest) != digest:
                raise CheckFailed("output differs from an earlier pass on the same inputs")
        except Exception as exc:  # a wrong result of any kind fails the operation
            self.failed += 1
            if op.known_defect:
                self.known[op.name] = self.known.get(op.name, 0) + 1
            else:
                self.unexpected += 1
            if len(self.messages) < MAX_FAILURE_MESSAGES:
                self.messages.append(f"{op.name}: {exc}")
                if err is not None:
                    traceback.print_exception(err, file=sys.stderr)
        finally:
            if self.tracer is not None:
                self.tracer.active = True

    def report_digest(self, ops) -> str:
        """Digest of every output on the first pass's inputs."""
        return hashlib.sha256("".join(self.digests.get((op.name, 0), "-") for op in ops).encode()).hexdigest()


def timed_passes(tally: Tally, ops_for, seconds: float, inproc: bool = False) -> list[float]:
    """Whole passes until ``seconds`` have elapsed; at least one.
    ``ops_for(i)`` is the operation list of pass i."""
    deadline = time.perf_counter() + seconds
    walls = []
    while True:
        walls.append(tally.run_pass(ops_for(len(walls)), inproc))
        if tally.tracer is not None:
            tally.tracer.reset_pass()
        if time.perf_counter() >= deadline:
            return walls


def setup(workload: str, seed: int, workdir: str):
    """Input generation and warm-up, repeated.  Returns (ops_for, median
    seconds), where ops_for(i) is the operation list of pass i."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if workload == "cli":
            ops = workloads.cli(seed, workdir, SRC)
            workloads.cli_warmup(SRC)
        else:
            build = getattr(workloads, workload)
            warm = Tally()
            warm.run_pass(build(seed, small=True))
            if warm.failed:
                raise RuntimeError(f"warm-up failed: {warm.messages}")
            ops = build(seed)
        times.append(time.perf_counter() - t0)
    if workload == "suites":
        return (lambda i: workloads.suites(seed, pass_index=i)), statistics.median(times)
    return (lambda i: ops), statistics.median(times)


def end_to_end(tally: Tally, walls, ops, setup_s: float, workload: str) -> tuple[dict, dict]:
    import numpy as np

    lat = np.array(tally.latencies_ms)
    tail_ms, tail_pct = tail(tally.latencies_ms)
    wall = statistics.median(walls)
    units = sum(op.units for op in ops)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (units / wall, "1/s"),
        "op_ms_p50": (float(np.percentile(lat, 50.0)), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "frac"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    details = {"tail_percentile": tail_pct, "latency_samples": int(lat.size), "passes": len(walls), "pass_s": walls,
               "ops_per_pass": len(ops), "units_per_pass": units}
    return metrics, details


def per_layer(tracer, ops, untraced_walls, traced_walls, untraced_latencies, startup_walls) -> dict:
    import numpy as np
    import spans

    passes = len(traced_walls)
    metrics = {}
    for name in spans.span_names():
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0) / passes, "count")
        metrics[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / passes, "s")
    for name in sorted(spans.CELL_COUNTED):
        metrics[f"{name}.cells"] = (tracer.counters.get(f"{name}.cells", 0) / passes, "count")

    def samples(key, reduce, default=0.0):
        vals = tracer.samples.get(key)
        return float(reduce(np.array(vals, dtype=float))) if vals else default

    levels = "content.choquet_integral.levels"
    metrics[levels] = (tracer.counters.get(levels, 0) / passes, "count")
    metrics[f"{levels}_p50"] = (samples(levels, np.median), "count")
    metrics[f"{levels}_max"] = (samples(levels, np.max), "count")
    cover = "content.hausdorff_content"
    metrics[f"{cover}.cover_cubes"] = (tracer.counters.get(f"{cover}.cover_cubes", 0) / passes, "count")
    metrics[f"{cover}.cover_frac"] = (samples(f"{cover}.cover_frac", np.mean), "frac")
    metrics["young.luxemburg_norm_table.repeat_ratio"] = (
        samples("young.luxemburg_norm_table.repeat", np.mean), "frac")
    metrics["sparse.verify_sparse.family_size"] = (samples("sparse.verify_sparse.family_size", np.mean), "count")
    metrics["sparse.verify_sparse.family_size_max"] = (
        samples("sparse.verify_sparse.family_size", np.max), "count")
    metrics["sparse.cantor_family.cubes"] = (samples("sparse.cantor_family.cubes", np.mean), "count")
    metrics["spaces.greedy_min_tiling.objective_calls"] = (
        tracer.counters.get("spaces.greedy_min_tiling.objective_calls", 0) / passes, "count")
    metrics["lattice.io.bytes"] = (tracer.counters.get("lattice.io.bytes", 0) / passes, "B")

    import choquet.harness

    # Untraced per-suite cost: each latency sample is already ms per trial
    # (ms per run for cantor_suite, which ignores its trial count).
    per_suite = {s: [] for s in choquet.harness.SUITES}
    for op, ms in zip(ops * (len(untraced_latencies) // max(len(ops), 1)), untraced_latencies):
        suite = op.name.split("@")[0]
        if suite in per_suite:
            per_suite[suite].append(ms)
    for s, vals in per_suite.items():
        unit = "ms/run" if s == "cantor_suite" else "ms/trial"
        metrics[f"harness.{s}.ms_per_trial"] = (statistics.median(vals) if vals else 0.0, unit)

    untraced = statistics.median(untraced_walls)
    startup = (statistics.median(startup_walls) - untraced) / len(ops) if startup_walls else 0.0
    metrics["cli.startup_s"] = (startup, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - untraced, "s")
    metrics["trace.spans"] = (len(tracer.span_start) / passes, "count")
    metrics[f"{spans.COUNTER_SPAN}.self_s"] = (tracer.self_s.get(spans.COUNTER_SPAN, 0.0) / passes, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "choquet", "__init__.py")):
        print(f"error: no choquet package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.pop("CHOQUET_THREADS", None)
    sys.path.insert(0, SRC)

    t_import = time.perf_counter()
    import choquet
    import choquet.cli  # noqa: F401
    import_s = time.perf_counter() - t_import
    if not os.path.abspath(choquet.__file__).startswith(SRC + os.sep):
        print(f"error: imported choquet from {choquet.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import spans

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops_for, setup_med = setup(args.workload, args.seed, workdir)
        ops = ops_for(0)
        setup_s = import_s + setup_med
        inproc = args.workload == "cli"
        details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "import_s": import_s, "env": environment()}
        if args.trace == 0:
            tally = Tally()
            walls = timed_passes(tally, ops_for, args.seconds)
            metrics, more = end_to_end(tally, walls, ops, setup_s, args.workload)
            details.update(more)
        else:
            tracer = spans.Tracer()
            tally = Tally(tracer)
            share = args.seconds / 3.0
            # cli: subprocess passes give the start-up cost; the in-process
            # passes, untraced then traced, give the tracing overhead.
            startup_walls = timed_passes(tally, ops_for, share) if inproc else []
            n_lat = len(tally.latencies_ms)
            untraced = timed_passes(tally, ops_for, share, inproc)
            untraced_lat = tally.latencies_ms[n_lat:]
            with tracer:
                traced = timed_passes(tally, ops_for, args.seconds - (2 if inproc else 1) * share, inproc)
            metrics = per_layer(tracer, ops, untraced, traced, untraced_lat, startup_walls)
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz")
            tracer.save(spans_path)
            details.update({"passes_untraced": len(untraced), "passes_traced": len(traced),
                            "passes_subprocess": len(startup_walls), "spans_file": os.path.relpath(spans_path, ROOT)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details.update({
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.messages,
        "known_defects": {name: {"failed": n, "why": next(op.known_defect for op in ops if op.name == name)}
                          for name, n in tally.known.items()},
        "report_digest": tally.report_digest(ops),
        "op_digests": {op.name: tally.digests.get((op.name, 0)) for op in ops},
        "op_ms_median": {op.name: statistics.median(tally.latencies_ms[i::len(ops)]) for i, op in enumerate(ops)},
    })
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
