"""Shared oracles for the test suite.

The brute-force routines here recompute quantities the library obtains
by dynamic programming or greedy search, using exhaustive enumeration
or linear programming instead.  They are deliberately slow and only
usable at tiny resolutions.  The Hypothesis strategies at the end draw
the small lattices, tilings and cube families those oracles run on.
"""

from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st

from choquet.content import _as_occupancy, _cost_tables, _morton_order, choquet_integral, choquet_norm, frostman_measure
from choquet.lattice import (
    CubeId,
    GridFunction,
    LatticeConfig,
    Tiling,
    all_cubes,
    children,
    coarsen,
    cube_slices,
    indicator,
    measure_of_cube,
    refine,
)
from choquet.maximal import MaximalResult
from choquet.spaces import SpaceSpec, pairing, space_norm
from choquet.sparse import CantorConfig, SparseFamily, SparseReport, apply_sparse, cantor_family
from choquet.young import LuxemburgConvergenceError, NumericConjugate, YoungFunction, luxemburg_norm


def _coarsen_sum_batch(a: np.ndarray) -> np.ndarray:
    """Sum over 2x...x2 blocks, halving every axis but the leading batch axis."""
    for ax in range(1, a.ndim):
        shape = a.shape[:ax] + (a.shape[ax] // 2, 2) + a.shape[ax + 1 :]
        a = a.reshape(shape).sum(axis=ax + 1)
    return a


def content_values_batch(config: LatticeConfig, masks: np.ndarray) -> np.ndarray:
    """DP content values for a batch of occupancy grids, shape (m,) + grid.

    One full-lattice DP per mask: O(m * N) time and memory."""
    L, d = config.L, config.d
    occ = masks.astype(bool)
    cost = np.where(occ, 2.0 ** (-L * d), 0.0)
    for k in range(L - 1, -1, -1):
        child_sum = _coarsen_sum_batch(cost)
        occ = _coarsen_sum_batch(occ.astype(np.int64)) > 0
        cost = np.where(occ, np.minimum(2.0 ** (-k * d), child_sum), 0.0)
    return cost.reshape(masks.shape[0])


def mask_choquet_integral(config: LatticeConfig, grid: np.ndarray) -> float:
    """Layer-cake Choquet integral with one content DP per distinct value."""
    levels = np.unique(grid[grid > 0.0])
    if levels.size == 0:
        return 0.0
    masks = grid[None, ...] >= levels.reshape((-1,) + (1,) * grid.ndim)
    contents = content_values_batch(config, masks)
    steps = np.diff(levels, prepend=0.0)
    return float((steps * contents).sum())


def merge_choquet_integral(f: GridFunction) -> float:
    """`choquet_integral` without saturation pruning: every cube carries one
    entry per distinct value inside it up to the root, N*(L+1) entries at
    most, and the root holds the content of every level set."""
    n, L, d = f.config.n, f.config.L, f.config.d
    leaves = _morton_order(f.grid, L)
    cube = np.flatnonzero(leaves > 0.0)
    levels, inverse = np.unique(leaves[cube], return_inverse=True)
    if levels.size == 0:
        return 0.0
    bits = max(levels.size - 1, 1).bit_length()
    key = (cube << bits) | ((levels.size - 1) - inverse.reshape(-1))
    cost = np.full(cube.size, 2.0 ** (-L * d))
    for k in range(L - 1, -1, -1):
        child = (key >> bits) & (2**n - 1)
        key = (key >> (bits + n) << bits) | (key & ((1 << bits) - 1))  # (parent, rank)
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.concatenate(([True], key[1:] != key[:-1]))
        group = np.empty_like(order)
        group[order] = np.cumsum(new) - 1  # one group per (parent, value)
        start = np.flatnonzero(new)
        key = key[start]
        parent = key >> bits
        first = np.concatenate(([True], parent[1:] != parent[:-1]))
        latest = np.tile(2 * np.maximum.accumulate(np.where(first, start, 0)), (2**n, 1))
        latest.reshape(-1)[child * key.size + group] = 2 * np.arange(cost.size) + 1
        np.maximum.accumulate(latest, axis=1, out=latest)
        padded = np.zeros(2 * cost.size)
        padded[1::2] = cost
        terms = padded[latest].reshape((2,) * n + (-1,))
        for _ in range(n):
            terms = terms[0] + terms[1]
        cost = np.minimum(2.0 ** (-k * d), terms)
    contents = cost[::-1]  # the root's entries, by ascending value
    steps = np.diff(levels, prepend=0.0)
    return float((steps * contents).sum())


def powered_choquet_norm(f: GridFunction, p: float) -> float:
    """`choquet_norm` the slow way: the Choquet integral of the grid |f|^p,
    to the power 1/p.  It builds a second grid and runs a second merge, and
    only serves values whose p-th powers stay in the normal float range."""
    return choquet_integral(GridFunction(f.config, np.abs(f.values) ** p)) ** (1.0 / p)


def per_depth_unboundedness(c: CantorConfig, p: float, L: int) -> list[tuple[int, float]]:
    """`unboundedness_demo` the slow way: for each depth 0..K, a new family,
    a new sparse image of 1 and a new merge for its `choquet_norm`."""
    rows = []
    for depth in range(c.K + 1):
        fam = cantor_family(CantorConfig(c.n, c.m, depth), L)
        rows.append((depth, choquet_norm(apply_sparse(GridFunction.constant(fam.config, 1.0), fam.family), p)))
    return rows


def leaf_sweep(config: LatticeConfig, level_stats: list[np.ndarray]) -> MaximalResult:
    """`maximal._sweep` on the leaf grid: every level's statistics refined
    to all 2^(nL) leaves and folded into a leaf-resolution running max by
    strict `>` (ties keep the larger cube), L full-grid passes."""
    best = np.full(config.grid_shape, level_stats[0].reshape(-1)[0])
    arg = np.zeros(config.grid_shape, dtype=int)
    for k in range(1, config.L + 1):
        up = refine(level_stats[k], 2 ** (config.L - k))
        better = up > best
        best = np.where(better, up, best)
        arg = np.where(better, k, arg)
    return MaximalResult(GridFunction(config, best.reshape(-1)), arg)


def two_refine_frostman_measure(E: GridFunction) -> GridFunction:
    """`frostman_measure` with the parent's mass and the inverse child-cost
    total each refined to the child level before they are multiplied."""
    config = E.config
    costs, _ = _cost_tables(config, _as_occupancy(E))
    mass = costs[0].copy()
    for k in range(config.L):
        child_cost = costs[k + 1]
        total = coarsen(child_cost)
        parent_mass = refine(mass, 2)
        scale = refine(np.where(total > 0.0, 1.0 / np.where(total > 0.0, total, 1.0), 0.0), 2)
        mass = parent_mass * scale * child_cost
    return GridFunction(config, (mass / config.cell_volume).reshape(-1))


def stack_walk_cover(config: LatticeConfig, occ: np.ndarray) -> frozenset:
    """Optimal cover by a depth-first walk from the root: take an occupied
    leaf, or an occupied cube whose side^d is at most its children's total
    cost plus 1e-12; otherwise descend into its children.  Each cube's cost,
    min(side^d, children's total), comes from its own memoised recursion,
    with the children added axis 0 first as `coarsen` adds them."""
    n, L, d = config.n, config.L, config.d
    corners = list(np.ndindex(*(2,) * n))

    @cache
    def child_total(k, idx):
        terms = [cost(k + 1, tuple(2 * j + c for j, c in zip(idx, corner))) for corner in corners]
        for _ in range(n):  # C order: the first half has axis-0 digit 0
            half = len(terms) // 2
            terms = [a + b for a, b in zip(terms[:half], terms[half:])]
        return terms[0]

    @cache
    def cost(k, idx):
        if k == L:
            return 2.0 ** (-L * d) if occ[idx] else 0.0
        return min(2.0 ** (-k * d), child_total(k, idx))

    cover = []
    stack = [(0, (0,) * n)]
    while stack:
        k, idx = stack.pop()
        if cost(k, idx) == 0.0:
            continue
        if k == L or 2.0 ** (-k * d) <= child_total(k, idx) + 1e-12:
            cover.append(CubeId(k, idx))
        else:
            stack.extend((k + 1, tuple(2 * j + c for j, c in zip(idx, corner))) for corner in corners)
    return frozenset(cover)


def sorted_cover_strings(optimal_cover) -> list[str]:
    """A cover's cube addresses in (level, index) order, formatted one
    `CubeId` at a time."""
    return [str(q) for q in sorted(optimal_cover, key=lambda q: (q.level, q.index))]


def slice_paint(config: LatticeConfig, cubes, value) -> np.ndarray:
    """Leaf grid of the sum of value(q) * 1_q over the cubes, painted one
    cube at a time through its leaf slices, in the order given."""
    out = np.zeros(config.grid_shape)
    for q in cubes:
        out[cube_slices(config, q)] += value(q)
    return out


def per_tile_dual_witness(f: GridFunction, mu: GridFunction, p: float, phi: YoungFunction, t: Tiling):
    """`dual_witness` one tile at a time, in the tiling's order: each tile's
    norm and certificate by its own single-cube `luxemburg_norm`, its mean
    of Phibar and its mass through its leaf slices.  Returns (F, certificates)."""
    config = f.config
    phibar = phi.complementary()
    alpha = config.n - config.d
    out = np.zeros(config.grid_shape)
    norms = [(q, luxemburg_norm(f, q, phi)) for q in t]
    for q, a in norms:
        if a > 0.0:
            sl = cube_slices(config, q)
            fq = phi.deriv(np.abs(f.grid[sl]) / a)
            b = float(phibar(fq).mean())
            out[sl] = a ** (p - 1.0) * (measure_of_cube(mu, q) / q.volume) / (1.0 + b) * fq
    F = GridFunction(config, out)
    certs = [(q, q.side**alpha * luxemburg_norm(F, q, phibar) if a > 0.0 else 0.0, a) for q, a in norms]
    return F, certs


def mask_cubes(masks) -> list[CubeId]:
    """The cubes of a set held as `level_masks`, in (level, index) order."""
    return [CubeId(k, tuple(idx)) for k, m in enumerate(masks) for idx in np.argwhere(m).tolist()]


def per_witness_lower_bound(f: GridFunction, spec: SpaceSpec, witnesses: int, seed: int) -> float:
    """`associate_lower_bound` one witness at a time: each witness is drawn,
    normed by `space_norm` (its Luxemburg table solved on its own) and
    paired before the next is drawn."""
    config = f.config
    absf = GridFunction(config, np.abs(f.values))
    rng = np.random.default_rng(seed)
    best = 0.0
    for i in range(witnesses):
        if i == 0:
            g = GridFunction.constant(config, 1.0)
        elif i == 1 and absf.values.any():
            g = absf
        elif i % 3 == 1:
            g = GridFunction(config, rng.random(config.num_cells))
        elif i % 3 == 2:
            mask = rng.random(config.num_cells) < max(rng.random(), 1.0 / config.num_cells)
            if not mask.any():
                continue
            g = frostman_measure(GridFunction(config, mask.astype(float)))
        else:
            k = int(rng.integers(0, config.L + 1))
            q = CubeId(k, tuple(int(rng.integers(0, 2**k)) for _ in range(config.n)))
            g = GridFunction(config, indicator(config, q).values * (float(rng.random()) + 0.5))
        denom = space_norm(g, spec)
        if denom <= 0.0:
            continue
        best = max(best, pairing(absf, g) / denom)
    return best


# Grid files that `GridFunction.from_json` rejects: name -> (JSON text,
# start of the ValueError message).
MALFORMED_GRID_FILES = {
    "top_level_array": ("[1, 2, 0.5, [1, 0]]", "expected a JSON object"),
    "dict_among_values": ('{"n": 1, "L": 1, "d": 0.5, "values": [1, {"a": 1}]}', "values must be"),
    "string_d": ('{"n": 1, "L": 1, "d": "0.5", "values": [1, 0]}', "d must be a JSON number"),
    "bool_d": ('{"n": 1, "L": 1, "d": true, "values": [1, 0]}', "d must be a JSON number"),
    "bool_values": ('{"n": 1, "L": 1, "d": 0.5, "values": [true, false]}', "values must be"),
    "nested_values": ('{"n": 1, "L": 1, "d": 0.5, "values": [[1], [0]]}', "values must be"),
    "null_values": ('{"n": 1, "L": 1, "d": 0.5, "values": null}', "values must be"),
    "missing_values": ('{"n": 1, "L": 1, "d": 0.5}', "missing field 'values'"),
}


_MAX_L = {1: 5, 2: 3, 3: 2}  # n*L <= 6 keeps the slice oracles fast


@st.composite
def configs(draw):
    n = draw(st.integers(1, 3))
    return LatticeConfig(n, draw(st.integers(0, _MAX_L[n])), n / 2)


@st.composite
def tilings(draw, config):
    """A random tiling: split each cube from the root on a drawn coin."""
    cubes, stack = [], [CubeId(0, (0,) * config.n)]
    while stack:
        q = stack.pop()
        if q.level < config.L and draw(st.booleans()):
            stack.extend(sorted(children(config, q), key=lambda c: c.index))
        else:
            cubes.append(q)
    return cubes


def families(config):
    """Any set of lattice cubes: nested, overlapping, or empty."""
    return st.lists(st.sampled_from(list(all_cubes(config))), unique=True)


def _strictly_inside(q: CubeId, p: CubeId) -> bool:
    """Whether q is a strict descendant of p in the dyadic tree."""
    if q.level <= p.level:
        return False
    shift = q.level - p.level
    return all(jq >> shift == jp for jq, jp in zip(q.index, p.index))


def pairwise_verify_sparse(config: LatticeConfig, s: SparseFamily) -> SparseReport:
    """Canonical-witness sparseness by comparing every pair of cubes, O(F^3):
    for each cube, its strict descendants in the family, and among them
    the maximal ones."""
    cubes = sorted(s.cubes, key=lambda q: (q.level, q.index))
    min_ratio, worst = np.inf, None
    carleson = 0.0
    for q in cubes:
        inside = [p for p in cubes if p is not q and _strictly_inside(p, q)]
        maximal = [p for p in inside if not any(_strictly_inside(p, r) for r in inside if r is not p)]
        removed = sum(p.volume for p in maximal)
        ratio = (q.volume - removed) / q.volume
        if ratio < min_ratio:
            min_ratio, worst = ratio, q
        packed = q.volume + sum(p.volume for p in inside)
        carleson = max(carleson, packed / q.volume)
    if worst is None:
        min_ratio, carleson = 1.0, 0.0
    return SparseReport(float(min_ratio), float(carleson), worst)


def _bisect_phi_mean(phi: YoungFunction, vals: np.ndarray, lam: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scaled = vals / lam[:, None]
        mean = phi(scaled).mean(axis=1)
    if np.isfinite(phi.finite_threshold):
        mean = np.where((scaled > phi.finite_threshold).any(axis=1), np.inf, mean)
    return mean


def bisect_luxemburg_rows(phi: YoungFunction, vals: np.ndarray) -> np.ndarray:
    """Luxemburg norm of each row of `vals` by bisection on lambda, with
    every row bisected until all are within 1e-10 relative; returns the upper end,
    where mean Phi(|row| / lambda) <= 1."""
    vals = np.abs(vals)
    mx = vals.max(axis=1)
    out = np.zeros(vals.shape[0])
    active = mx > 0.0
    if not active.any():
        return out
    v = vals[active]
    start = mx[active]

    hi = start.copy()
    for _ in range(200):
        over = _bisect_phi_mean(phi, v, hi) > 1.0
        if not over.any():
            break
        hi[over] *= 2.0
    else:
        raise LuxemburgConvergenceError("failed to bracket from above")

    lo = np.minimum(start, hi) / 2.0
    for _ in range(200):
        under = _bisect_phi_mean(phi, v, lo) <= 1.0
        if not under.any():
            break
        lo[under] /= 2.0
    else:
        raise LuxemburgConvergenceError("failed to bracket from below")

    for _ in range(200):
        if np.all(hi - lo <= 1e-10 * hi):
            break
        mid = 0.5 * (lo + hi)
        ok = _bisect_phi_mean(phi, v, mid) <= 1.0
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    else:
        raise LuxemburgConvergenceError("bisection did not converge in 200 steps")

    out[active] = hi
    return out


def scan_conjugate_index(phi: YoungFunction, t: np.ndarray) -> np.ndarray:
    """The first grid index maximising ts - Phi(s) over `NumericConjugate`'s
    grid at each argument t, by evaluating the objective at all 641 grid
    points (NaN counts as -inf)."""
    grid = NumericConjugate._GRID
    with np.errstate(over="ignore", invalid="ignore"):
        obj = np.asarray(t, dtype=float)[:, None] * grid - phi(grid)
    return np.argmax(np.where(np.isnan(obj), -np.inf, obj), axis=1)


def scan_amemiya(phi: YoungFunction, vals: np.ndarray, points: int = 2000) -> float:
    """inf_s s(1 + mean Phi(|vals|/s)) by a dense scan of `points` scales
    within 2^10 of the Luxemburg norm, then ternary search around the best
    (the objective is convex in s: the perspective of Phi plus a linear
    term)."""
    vals = np.abs(vals).reshape(1, -1)
    if not vals.any():
        return 0.0
    center = float(bisect_luxemburg_rows(phi, vals)[0])

    def objective(s: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            obj = s * (1.0 + _bisect_phi_mean(phi, vals, s))
        return np.where(np.isnan(obj), np.inf, obj)

    s_grid = center * np.exp2(np.linspace(-10.0, 10.0, points))
    obj = objective(s_grid)
    best = int(np.argmin(obj))
    lo = s_grid[max(best - 1, 0)]
    hi = s_grid[min(best + 1, points - 1)]
    for _ in range(100):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if float(objective(np.array([m1]))[0]) <= float(objective(np.array([m2]))[0]):
            hi = m2
        else:
            lo = m1
        if hi - lo <= 1e-10 * hi:
            break
    mid = 0.5 * (lo + hi)
    return float(min(obj[best], objective(np.array([mid]))[0]))


def brute_force_content(config: LatticeConfig, mask: np.ndarray) -> float:
    """Minimal covering cost by enumeration over all antichain covers.

    Every cover of a leaf set can be reduced to one where each cube is
    either taken whole or replaced by its children, so it suffices to
    enumerate subsets of the cube lattice that cover the set and keep
    the cheapest antichain.  Exponential; L <= 3 at n=1 only.
    """
    cubes = list(all_cubes(config))
    flat = np.asarray(mask, dtype=bool).reshape(-1)
    covers = []
    for q in cubes:
        cover = np.zeros(config.num_cells, dtype=bool)
        cover.reshape(config.grid_shape)[cube_slices(config, q)] = True
        covers.append(cover)
    best = np.inf
    target = np.flatnonzero(flat)
    if target.size == 0:
        return 0.0
    for bits in product([0, 1], repeat=len(cubes)):
        chosen = [i for i, b in enumerate(bits) if b]
        if not chosen:
            continue
        union = np.zeros(config.num_cells, dtype=bool)
        cost = 0.0
        for i in chosen:
            union |= covers[i]
            cost += 2.0 ** (-cubes[i].level * config.d)
        if cost >= best:
            continue
        if union[target].all():
            best = cost
    return best


def lp_frostman_value(config: LatticeConfig, mask: np.ndarray) -> float:
    """Max total mass of a Frostman measure supported on the set, via LP.

    Variables are leaf masses; constraints mu(Q) <= l(Q)^d for every
    dyadic cube plus support and nonnegativity.  LP duality against the
    fractional covering problem makes this equal the content.
    """
    from scipy.optimize import linprog

    flat = np.asarray(mask, dtype=bool).reshape(-1)
    m = config.num_cells
    rows, rhs = [], []
    for q in all_cubes(config):
        row = np.zeros(m)
        row.reshape(config.grid_shape)[cube_slices(config, q)] = 1.0
        rows.append(row)
        rhs.append(2.0 ** (-q.level * config.d))
    bounds = [(0.0, None) if flat[i] else (0.0, 0.0) for i in range(m)]
    res = linprog(
        -np.ones(m), A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds,
        method="highs",
    )
    assert res.success
    return -res.fun


def lp_cover_value(config: LatticeConfig, mask: np.ndarray) -> float:
    """Min fractional covering cost via LP; integral for this tree structure."""
    from scipy.optimize import linprog

    flat = np.asarray(mask, dtype=bool).reshape(-1)
    target = np.flatnonzero(flat)
    if target.size == 0:
        return 0.0
    cols, costs = [], []
    for q in all_cubes(config):
        col = np.zeros(config.num_cells)
        col.reshape(config.grid_shape)[cube_slices(config, q)] = 1.0
        cols.append(col[target])
        costs.append(2.0 ** (-q.level * config.d))
    res = linprog(
        np.array(costs), A_ub=-np.array(cols).T, b_ub=-np.ones(target.size),
        method="highs",
    )
    assert res.success
    return res.fun


def random_leaf_mask(config: LatticeConfig, rng: np.random.Generator) -> np.ndarray:
    density = rng.uniform(0.1, 0.9)
    return rng.random(config.grid_shape) < density


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import SCORECARD
    except ImportError:
        return
    if SCORECARD:
        terminalreporter.section("acceptance scorecard")
        for line in SCORECARD:
            terminalreporter.write_line(line)
