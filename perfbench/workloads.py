"""The benchmark's workloads: fixed operation lists built from a seed.

Each workload function returns a list of ``Op``.  A pass runs every op once, in
order, one at a time (a closed loop with one caller).  Only ``Op.call``
is timed; ``Op.check`` and ``Op.digest`` run outside the timed region.

Why these workloads:

* ``suites``: all 13 verification suites at (n, L, d) = (1, 6, 0.5) and
  (2, 4, 1.0), which is how the tool is used for research.  Lattices are
  small, so Python overhead, ``young`` and the tiling search in
  ``spaces`` dominate; the large-lattice kernels do little.
* ``kernels``: one large-lattice library call at a time (65k to 262k
  cells).  ``content``, ``maximal`` and ``sparse`` dominate; it makes no
  ``young`` call and no I/O, so a ``young`` change must leave it unchanged.
* ``cli``: ``choquet`` subprocess calls on JSON and CSV files at n=2,
  L=8.  It pays interpreter start-up and ``lattice`` file I/O on every
  call; compute is light.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import choquet
import choquet.cli
from choquet import content as C
from choquet import harness as H
from choquet import maximal as M
from choquet import sparse as S
from choquet.lattice import CubeId, GridFunction, LatticeConfig

REL_TOL = 1e-12


class CheckFailed(Exception):
    """An operation returned a wrong result or exit code."""


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], str]
    units: int = 1  # work counted by ops_per_s
    per: int = 1  # latency divisor: one op's latency is its time / per
    known_defect: str | None = None  # a failure the ROADMAP already records
    call_inproc: Callable[[], Any] | None = None  # cli only: in-process equivalent
    variant: int = 0  # which inputs: ops with equal (name, variant) must agree


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(got: float, want: float, what: str) -> None:
    _require(abs(got - want) <= REL_TOL * abs(want), f"{what}: {got!r} != {want!r}")


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _grid_digest(g: GridFunction) -> str:
    return _sha(g.values.tobytes())


def _random_set(rng, config: LatticeConfig, density: float = 0.3) -> GridFunction:
    mask = rng.random(config.num_cells) < density
    mask[int(rng.integers(0, config.num_cells))] = True
    return GridFunction(config, mask.astype(float))


def _quantised(rng, config: LatticeConfig, levels: int = 16) -> GridFunction:
    return GridFunction(config, (np.floor(rng.random(config.num_cells) * levels) + 1.0) / levels)


def _coarsen(a: np.ndarray) -> np.ndarray:
    for ax in range(a.ndim):
        a = a.reshape(a.shape[:ax] + (a.shape[ax] // 2, 2) + a.shape[ax + 1:]).sum(axis=ax + 1)
    return a


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITE_CONFIGS = [(1, 6, 0.5), (2, 4, 1.0)]
SUITE_TRIALS = 4


def suites(seed: int, small: bool = False, pass_index: int = 0) -> list[Op]:
    """Every suite at both configs, equal trials per suite.  ``cantor_suite``
    ignores ``trials``: it counts as one run, not as trials.

    A suite's cost and memory depend on the instances it draws (tiling
    search length, cube sizes), so each pass gets its own suite seeds and a
    run averages over many draws instead of repeating one."""
    trials = 1 if small else SUITE_TRIALS
    rng = np.random.default_rng([seed, pass_index])
    seeds = iter(rng.integers(0, 2**31, size=len(SUITE_CONFIGS) * len(H.SUITES)))
    ops = []
    for n, L, d in SUITE_CONFIGS:
        for name in H.SUITES:
            suite_seed = int(next(seeds))

            def call(name=name, n=n, L=L, d=d, s=suite_seed):
                return choquet.harness.run_suite(name, trials, L, s, n=n, d=d)

            def check(report):
                _require(report.status == "pass", f"{report.suite} status {report.status}")

            per_run = name == "cantor_suite"
            ops.append(Op(f"{name}@n{n}L{L}", call, check, lambda r: _sha(r.to_json()),
                          units=0 if per_run else trials, per=1 if per_run else trials, variant=pass_index))
    return ops


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _check_admissible(mu: GridFunction) -> None:
    config = mu.config
    sums = mu.grid * config.cell_volume
    for k in range(config.L, -1, -1):
        budget = 2.0 ** (-k * config.d)
        _require(bool(np.all(sums <= budget * (1.0 + REL_TOL))), f"Frostman mass exceeds side^d at level {k}")
        if k:
            sums = _coarsen(sums)


def _content_op(tag: str, E: GridFunction, frostman: Callable[[], GridFunction]) -> Op:
    """Content with its cover.  The value must equal the cover's sum of
    side^d, the Frostman total mass and the Choquet integral of 1_E."""

    def check(res):
        cover_sum = math.fsum(q.side ** E.config.d for q in res.optimal_cover)
        _close(cover_sum, res.value, f"{tag} cover sum")
        mass = float(frostman().values.sum() * E.config.cell_volume)
        _close(mass, res.value, f"{tag} Frostman mass")
        _close(C.choquet_integral(E), res.value, f"{tag} choquet_integral(1_E)")

    return Op(f"content.{tag}", lambda: C.hausdorff_content(E), check,
              lambda r: _sha(r.value, sorted((q.level, q.index) for q in r.optimal_cover)))


def _hl_op(tag: str, f: GridFunction) -> Op:
    def check(res):
        _require(bool(np.all(res.values.values >= np.abs(f.values))), f"{tag}: hl_maximal < |f|")

    return Op(f"hl_maximal.{tag}", lambda: M.hl_maximal(f), check, lambda r: _grid_digest(r.values))


def _md_op(tag: str, mu: GridFunction) -> Op:
    """M_d of an admissible measure lies between its total mass and 1."""
    mass = float(mu.values.sum() * mu.config.cell_volume)

    def check(res):
        v = res.values.values
        _require(bool(np.all(v <= 1.0 + REL_TOL)), f"{tag}: M_d of a Frostman measure exceeds 1")
        _require(bool(np.all(v >= mass * (1.0 - REL_TOL))), f"{tag}: M_d below the total mass")

    return Op(f"fractional_measure_maximal.{tag}", lambda: M.fractional_measure_maximal(mu), check,
              lambda r: _grid_digest(r.values))


def _norm_op(tag: str, f: GridFunction, p: float) -> Op:
    """For 0 < f, side_L^(d/p) max f <= ||f||_{L^p(H^d)} <= max f, since
    every level set holds a leaf and lies in the root."""
    top = float(f.values.max())
    low = top * 2.0 ** (-f.config.L * f.config.d / p)

    def check(val):
        _require(low * (1.0 - REL_TOL) <= val <= top * (1.0 + REL_TOL), f"{tag}: norm {val} outside [{low}, {top}]")

    return Op(f"choquet_norm.{tag}", lambda: C.choquet_norm(f, p), check, _sha)


KERNEL_SIZES = {  # (n, L) for the timed run, and a small copy for warm-up
    "n2L9": ((2, 9), (2, 4)), "n3L6": ((3, 6), (3, 3)),
    "n1L12": ((1, 12), (1, 6)), "n2L6": ((2, 6), (2, 3)),
}
CANTOR = S.CantorConfig(2, 2, 4)  # 341 cubes
CANTOR_SMALL = S.CantorConfig(2, 2, 2)


def kernels(seed: int, small: bool = False) -> list[Op]:
    rng = np.random.default_rng(seed)
    nl = {k: v[1 if small else 0] for k, v in KERNEL_SIZES.items()}
    n2, L9 = nl["n2L9"]
    E19 = _random_set(rng, LatticeConfig(n2, L9, 1.9))
    E10 = _random_set(rng, LatticeConfig(n2, L9, 1.0))
    f9 = GridFunction(LatticeConfig(n2, L9, 1.0), rng.random(4**L9))
    mu9 = C.frostman_measure(_random_set(rng, LatticeConfig(n2, L9, 1.9)))
    n3, L6 = nl["n3L6"]
    f3 = GridFunction(LatticeConfig(n3, L6, 1.5), rng.random(8**L6))
    mu3 = C.frostman_measure(_random_set(rng, LatticeConfig(n3, L6, 2.5)))
    q16 = _quantised(rng, LatticeConfig(n2, L9, 1.0))
    c1 = GridFunction(LatticeConfig(*nl["n1L12"], 0.5), rng.random(2 ** nl["n1L12"][1]) + 0.01)
    c2 = GridFunction(LatticeConfig(*nl["n2L6"], 1.0), rng.random(4 ** nl["n2L6"][1]) + 0.01)
    cantor = CANTOR_SMALL if small else CANTOR
    fam = S.cantor_family(cantor, cantor.m * cantor.K)
    fs = GridFunction(fam.config, rng.random(fam.config.num_cells))

    def check_frostman(mu):
        _check_admissible(mu)

    def check_sparse(rep):
        _close(rep.min_ratio, cantor.eta, "verify_sparse min_ratio")

    expected_sparse_mean = math.fsum(float(fs.restrict(q).mean()) * q.volume for q in fam.family)

    def check_apply(g):
        _close(float(g.values.mean()), expected_sparse_mean, "apply_sparse mean")

    def check_growth(rows):
        _require([r[1] for r in rows] == [float(k + 1) for k in range(cantor.K + 1)],
                 f"Cantor p=1 growth {rows} is not depth+1")

    tag = f"n{n2}L{L9}"
    return [
        _content_op(f"{tag}.d1.9", E19, lambda: C.frostman_measure(E19)),
        _content_op(f"{tag}.d1.0", E10, lambda: C.frostman_measure(E10)),
        Op(f"frostman.{tag}.d1.9", lambda: C.frostman_measure(E19), check_frostman, _grid_digest),
        _hl_op(tag, f9),
        _md_op(tag, mu9),
        _hl_op(f"n{n3}L{L6}", f3),
        _md_op(f"n{n3}L{L6}", mu3),
        _norm_op(f"q16.{tag}", q16, 2.0),
        _norm_op("n{}L{}".format(*nl["n1L12"]), c1, 1.0),
        _norm_op("n{}L{}".format(*nl["n2L6"]), c2, 1.0),
        Op("verify_sparse.cantor", lambda: S.verify_sparse(fam.config, fam.family), check_sparse,
           lambda r: _sha(r.min_ratio, r.carleson_constant, str(r.worst_cube))),
        Op("apply_sparse.cantor", lambda: S.apply_sparse(fs, fam.family), check_apply, _grid_digest),
        Op("unboundedness_demo.cantor", lambda: S.unboundedness_demo(cantor, 1.0), check_growth, _sha),
    ]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str


@dataclass
class CliCall:
    name: str
    argv: list[str]
    check: Callable[[CliResult], None]
    want: int = 0  # expected exit code
    output: str | None = None  # file the call writes, part of its digest
    known_defect: str | None = None


def _cli_calls(workdir: str, rng) -> list[CliCall]:
    """Write the input files and list the calls of one pass."""
    cfg = LatticeConfig(2, 8, 1.0)

    def path(name):
        return os.path.join(workdir, name)

    def write(name, text: str):
        with open(path(name), "w") as fh:
            fh.write(text)

    E = _random_set(rng, LatticeConfig(2, 8, 1.9))
    f = _quantised(rng, cfg)
    blocks = (np.floor(rng.random((8, 8)) * 16.0) + 1.0) / 16.0
    g = GridFunction(LatticeConfig(2, 8, 1.5), np.kron(blocks, np.ones((32, 32))).reshape(-1))
    write("set.json", E.to_json())
    E.to_csv(path("set.csv"))
    write("f.json", f.to_json())
    write("g.json", g.to_json())
    write("nan.json", json.dumps({"n": 2, "L": 8, "d": 1.0, "values": [float("nan")] * cfg.num_cells}))

    content = C.hausdorff_content(E)
    norm2 = C.choquet_norm(f, 2.0)
    family = {CubeId(0, (0, 0))}
    for _ in range(7):
        k = int(rng.integers(1, 5))
        family.add(CubeId(k, tuple(int(x) for x in rng.integers(0, 2**k, size=2))))
    cubes = " ".join(str(q) for q in sorted(family, key=lambda q: (q.level, q.index)))

    def check_content(out):
        obj = json.loads(out.stdout)
        _require(obj["value"] == choquet.cli.fmt(content.value), f"content {obj['value']} != {content.value}")
        _require(sorted(obj["cover"]) == sorted(str(q) for q in content.optimal_cover), "content cover differs")

    def check_norm2(out):
        _require(out.stdout.strip() == choquet.cli.fmt(norm2), f"choquet {out.stdout.strip()} != {norm2}")

    def check_float(out):
        _require(math.isfinite(float(out.stdout)), "not a finite number")

    def check_grid(name):
        def check(out):
            with open(path(name)) as fh:
                _require(len(json.loads(fh.read())["values"]) == cfg.num_cells, f"{name}: wrong size")
        return check

    def check_sparse(out):
        _require(0.0 <= float(json.loads(out.stdout)["min_ratio"]) <= 1.0, "min_ratio outside [0, 1]")

    def check_growth(out):
        rows = [line.split(",") for line in out.stdout.split()]
        _require([float(v) for _, v in rows] == [float(int(k) + 1) for k, _ in rows], "growth is not depth+1")

    def check_verify(out):
        _require(json.loads(out.stdout)["status"] == "pass", "adams suite did not pass")

    lattice_args = ["--n", "2", "--L", "8", "--d"]
    # Two content calls (JSON and CSV) keep cover extraction, the costliest
    # call, at the latency tail.
    return [
        CliCall("content", ["content", "-i", path("set.json")], check_content),
        CliCall("content.csv", lattice_args + ["1.9", "content", "-i", path("set.csv")], check_content),
        CliCall("frostman", ["frostman", "-i", path("set.json"), "-o", path("mu.json")],
                check_grid("mu.json"), output="mu.json"),
        CliCall("choquet", ["choquet", "-i", path("f.json"), "--p", "2"], check_norm2),
        CliCall("luxemburg", ["luxemburg", "-i", path("f.json"), "--cube", "1:0,1", "--phi", "power:2"],
                check_float),
        CliCall("maximal.hl", ["maximal", "hl", "-i", path("f.json"), "-o", path("hl.json")],
                check_grid("hl.json"), output="hl.json"),
        CliCall("norm.morrey", ["norm", "-i", path("g.json"), "--space", "morrey", "--p", "2"], check_float),
        CliCall("sparse.verify", lattice_args + ["1.0", "sparse", "verify", "--cubes", cubes, "--eta", "0.5"],
                check_sparse),
        CliCall("cantor.growth", ["--n", "2", "cantor", "growth", "--m", "2", "--depth", "4", "--p", "1"],
                check_growth),
        CliCall("verify.adams", ["--n", "1", "--L", "5", "--d", "0.5", "verify", "adams", "--trials", "20",
                                 "--seed", str(int(rng.integers(0, 2**31)))], check_verify),
        CliCall("luxemburg.nan", ["luxemburg", "-i", path("nan.json"), "--cube", "0:0,0", "--phi", "power:2"],
                lambda out: None, want=2,
                known_defect="ROADMAP item 5: NaN input prints a number and exits 0"),
    ]


def cli_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CHOQUET_THREADS"}
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli(seed: int, workdir: str, src: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    env = cli_env(src)
    ops = []
    for c in _cli_calls(workdir, rng):

        def call(argv=c.argv):
            proc = subprocess.run([sys.executable, "-m", "choquet.cli", *argv], capture_output=True,
                                  text=True, env=env, cwd=workdir, timeout=120)
            return CliResult(proc.returncode, proc.stdout)

        def call_inproc(argv=c.argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = choquet.cli.main(list(argv))
            return CliResult(code, buf.getvalue())

        def check(out, c=c):
            _require(out.code == c.want, f"exit code {out.code}, expected {c.want}")
            c.check(out)

        def digest(out, c=c):
            files = b""
            if c.output:
                with open(os.path.join(workdir, c.output), "rb") as fh:
                    files = fh.read()
            return _sha(out.code, out.stdout, files)

        ops.append(Op(f"cli.{c.name}", call, check, digest, known_defect=c.known_defect, call_inproc=call_inproc))
    return ops


def cli_warmup(src: str) -> None:
    """One short call, so the first timed call does not pay cold file caches."""
    subprocess.run([sys.executable, "-m", "choquet.cli", "--n", "1", "cantor", "growth", "--m", "2",
                    "--depth", "1"], capture_output=True, env=cli_env(src), timeout=120, check=True)
