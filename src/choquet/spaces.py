"""Norm scales over the content: Morrey, Orlicz-Morrey (global and tiled),
Orlicz block norms, pairings, the dual-witness construction,
associate-norm lower bounds, and the tiling DP behind the block-norm
infimum.

Associate norms are suprema over infinite balls and are never computed
exactly; `associate_lower_bound` certifies them from below by maximizing
pairings over generated admissible witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .content import _frostman_stack, _outermost, choquet_integral, choquet_norm  # noqa: F401 (a perfbench tracer test patches choquet_integral here)
from .lattice import (
    CubeId,
    GridFunction,
    LatticeConfig,
    Tiling,
    _mean_pyramid,
    _require_count,
    _require_real,
    children,
    coarsen,
    cube_blocks,
    cube_slices,
    level_masks,
    paint,
    pyramid,
    validate_masks,
)
from .maximal import fractional_measure_maximal, orlicz_fractional_maximal
from .young import YoungFunction, _luxemburg_rows, luxemburg_norm_table

__all__ = [
    "SpaceSpec",
    "DualWitness",
    "morrey_norm",
    "orlicz_morrey_norm",
    "block_norm",
    "tiling_orlicz_morrey_norm",
    "pairing",
    "dual_witness",
    "associate_lower_bound",
    "space_norm",
    "enumerate_tilings",
    "greedy_min_tiling",
]


def _require_tiling(config: LatticeConfig, t: Tiling) -> list[np.ndarray]:
    """The tiling's `level_masks`; ValueError unless it covers every leaf cell once."""
    masks = level_masks(config, t.cubes)
    report = validate_masks(masks)
    if not report.ok:
        raise ValueError(f"invalid tiling: {report.kind} cell {report.cell}")
    return masks


def morrey_norm(mu: GridFunction, p: float) -> float:
    """Choquet L^p norm of the fractional measure maximal function of mu."""
    _require_real("exponent p", p)
    if not p > 1:  # false for NaN as well
        raise ValueError(f"Morrey exponent must satisfy p > 1, got {p}")
    return choquet_norm(fractional_measure_maximal(mu).values, p)


def orlicz_morrey_norm(f: GridFunction, p: float, phi: YoungFunction) -> float:
    """Choquet L^p norm of the fractional Orlicz maximal function.

    At p = inf it is the sup over all lattice cubes Q of side^alpha *
    ||f||_{Phi,Q}, alpha = n - d, found without solving most cubes.  For
    convex Phi with Phi(0) = 0, mean_Q|f| / Phi^-1(1) <= ||f||_{Phi,Q} <=
    max_Q|f| / Phi^-1(1): Jensen gives the left side, and at lam =
    max/Phi^-1(1) every Phi(|f|/lam) is <= 1, which gives the right
    (Rao-Ren, Theory of Orlicz Spaces, 1991).  So only a cube whose
    side^alpha * max reaches the largest side^alpha * mean can attain the
    sup; Phi^-1(1) is on both sides of that comparison, cancels, and is
    never computed.  Those candidate cubes go to the solver behind
    `luxemburg_norm_table`, grouped as a table's levels are; a row's norm
    does not depend on which rows share its solve, so the result is `==`
    the max over f's whole table (see `_sup_norms`)."""
    _require_real("exponent p", p)
    if not p > 1:
        raise ValueError(f"Orlicz-Morrey exponent must satisfy p > 1, got {p}")
    if np.isinf(p):
        return _sup_norms([f], phi)[0]
    config = f.config
    return choquet_norm(orlicz_fractional_maximal(f, config.n - config.d, phi).values, p)


# Relative slack in the candidate test, for rounding in the two pyramids.
_SUP_SLACK = 1e-12


def _sup_norms(gs: list[GridFunction], phi: YoungFunction) -> list[float]:
    """`orlicz_morrey_norm(g, inf, phi)` of each g in gs, all on one lattice.

    The functions are stacked along axis 0, 2^L rows each, so one `coarsen`
    per level builds all their max and mean pyramids (a pair of rows never
    spans two functions above the root; means are scaled by 2^-n before
    each sum, so none overflows).  A candidate's side^alpha * max|g| is > 0
    and >= (1 - _SUP_SLACK) times the largest side^alpha * mean|g| of its
    own g.  The candidates are listed per level; `_luxemburg_rows` reads
    their rows one level at a time, in `cube_blocks` order, and groups
    them into solves, so extra memory is one group plus one level's rows,
    O(len(gs) * N).  A cube left out could beat the candidates only where
    the solver's tolerance reorders two norms that close, and its own
    norm, never solved, raises nothing beyond the float range."""
    config = gs[0].config
    n, L, W = config.n, config.L, len(gs)
    alpha = n - config.d
    stack = np.abs(np.concatenate([g.grid for g in gs]))
    tops, means = [stack], [stack]
    for _ in range(L):
        tops.append(coarsen(tops[-1], np.maximum))
        means.append(coarsen(means[-1] * 0.5**n))
    side = [2.0 ** (-k * alpha) for k in range(L + 1)]
    floor = np.max([side[k] * means[L - k].reshape(W, -1).max(axis=1) for k in range(L + 1)], axis=0)
    cands = []  # (level, owner, index) per level with a candidate
    for k in range(L + 1):
        upper = side[k] * tops[L - k].reshape((W,) + (2**k,) * n)
        owner, *index = np.nonzero((upper >= (1.0 - _SUP_SLACK) * floor.reshape((W,) + (1,) * n)) & (upper > 0.0))
        if len(owner):
            cands.append((k, owner, index))
    # level k as (function, i_1, j_1, ..., i_n, j_n): cube i, leaf j in it
    rows = (stack.reshape((W,) + (2**k, 2 ** (L - k)) * n)[(owner,) + sum(((i, slice(None)) for i in index), ())]
            .reshape(len(owner), -1) for k, owner, index in cands)
    best = np.zeros(W)
    for (k, owner, _), norms in zip(cands, _luxemburg_rows(phi, rows)):
        np.maximum.at(best, owner, side[k] * norms)
    return [float(b) for b in best]


def _tile_profile(f: GridFunction, phi: YoungFunction, t: Tiling, alpha: float = 0.0) -> GridFunction:
    """The step function holding side^alpha * a on each tile, for its side
    and Luxemburg norm a."""
    masks = _require_tiling(f.config, t)
    table = luxemburg_norm_table(f, phi)
    return GridFunction._adopt(f.config, paint(masks, [(2.0**-k) ** alpha * a for k, a in enumerate(table)]))


def block_norm(f: GridFunction, p: float, phi: YoungFunction, t: Tiling) -> float:
    """Block norm: Choquet L^p norm of the tile-wise Luxemburg profile."""
    _require_real("exponent p", p)
    if not 1 <= p < np.inf:
        raise ValueError(f"block exponent must be finite with p >= 1, got {p}")
    return choquet_norm(_tile_profile(f, phi, t), p)


def _tiling_dp(table: list[np.ndarray], p: float, d: float) -> tuple[float, list[np.ndarray]]:
    """(value, masks): the tiling minimizing sum over its tiles T of
    side^d * a_T^p, a_T the Luxemburg `table` entry on T, as `level_masks`,
    and value = (that sum)^(1/p), for finite p >= 1.

    The DP V(Q) = min(side^d * a_Q^p, sum over Q's children of V) runs one
    `coarsen` and one `min` per level over the table; ties go to the cube.
    The tiles are read top down by `content._outermost`, as
    `hausdorff_content` reads its cover: a cube the DP takes with no taken
    ancestor.  Every a is divided by the largest first, so no power
    overflows.  H^d is strongly subadditive (Yang-Yuan, Bull. Sci. Math.
    2008), so the Choquet integral is subadditive and H^d(T) = side^d: the
    block norm of the returned tiling is at most value, which bounds the
    infimum over tilings from above."""
    L = len(table) - 1
    top = max(float(a.max()) for a in table) or 1.0
    own = [2.0 ** (-k * d) * (a / top) ** p for k, a in enumerate(table)]
    take = [None] * L + [np.ones_like(own[-1], dtype=bool)]
    best = own[-1]
    for k in range(L - 1, -1, -1):
        split = coarsen(best)
        take[k] = own[k] <= split
        best = np.where(take[k], own[k], split)
    return top * float(best.reshape(-1)[0]) ** (1.0 / p), _outermost(take)


def tiling_orlicz_morrey_norm(g: GridFunction, pprime: float, phibar: YoungFunction, t: Tiling) -> float:
    """Tiled Orlicz-Morrey norm: Choquet L^p' norm of the tile profile of
    side^(n-d) * Luxemburg norm; p' = inf gives its largest tile value."""
    _require_real("exponent p'", pprime)
    if not pprime >= 1:
        raise ValueError(f"exponent must satisfy p' >= 1, got {pprime}")
    return choquet_norm(_tile_profile(g, phibar, t, g.config.n - g.config.d), pprime)


def pairing(f: GridFunction, g: GridFunction) -> float:
    """Lebesgue inner product over the root cube.  The cell volume, a power
    of two, scales f first, so a product is only out of range when the
    result is: that is a ValueError, not inf."""
    if f.config != g.config:
        raise ValueError("pairing requires a common lattice")
    with np.errstate(over="ignore", invalid="ignore"):
        out = float((f.values * f.config.cell_volume * g.values).sum())
    if not np.isfinite(out):
        raise ValueError("pairing beyond the float range")
    return out


class InadmissibleMeasureError(ValueError):
    def __init__(self, cube: CubeId, mass: float, budget: float):
        super().__init__(f"measure violates mu(Q) <= side^d at {cube}: {mass} > {budget}")
        self.cube = cube


def _check_admissible(mu: GridFunction) -> None:
    """InadmissibleMeasureError at the smallest cube with mu(Q) > side^d
    (up to 1e-12 of rounding in the sums); ValueError for a negative density."""
    config = mu.config
    levels = pyramid(mu.grid * config.cell_volume)
    for k in range(config.L, -1, -1):  # finest first: report the smallest offending cube
        budget = 2.0 ** (-k * config.d)
        bad = np.argwhere(levels[k] > budget + 1e-12)
        if bad.size:
            idx = tuple(int(x) for x in bad[0])
            raise InadmissibleMeasureError(CubeId(k, idx), float(levels[k][idx]), budget)
    if not mu.is_nonnegative():
        raise ValueError("density has negative cell values")


@dataclass(frozen=True)
class DualWitness:
    """The tiled dual test function F and its per-tile certificates."""

    F: GridFunction
    certificates: tuple[tuple[CubeId, float, float], ...]  # (cube, side^(n-d)*||F_Q||, ||f||_{Phi;Q})


def dual_witness(
    f: GridFunction,
    mu: GridFunction,
    p: float,
    phi: YoungFunction,
    t: Tiling,
) -> DualWitness:
    """Per-tile dual test function built from the derivative of the Young
    function at the normalized data, weighted by the admissible measure.

    On each tile Q with positive Luxemburg norm a:
        f_Q = Phi'(|f|/a) 1_Q
        F_Q = [1 + mean_Q Phibar(Phi'(|f|/a))]^(-1) a^(p-1) (mu(Q)/|Q|) f_Q
    The attached certificate side(Q)^(n-d) ||F_Q||_{Phibar;Q} is bounded by
    a^(p-1) whenever mu is admissible.  All tiles are handled at once on the
    tiling's level masks: the tile norms come from f's Luxemburg table,
    the certificates from the tiles of F alone (a table of F would solve
    every cube, not just the tiles), and both are listed in the tiling's
    (level, index) order.
    """
    _require_real("exponent p", p)
    if not p > 1:
        raise ValueError(f"exponent must satisfy p > 1, got {p}")
    config = f.config
    if mu.config != config:
        raise ValueError("dual witness requires f and mu on a common lattice")
    masks = _require_tiling(config, t)
    _check_admissible(mu)
    phibar = phi.complementary()
    alpha = config.n - config.d

    norms = luxemburg_norm_table(f, phi)
    a = paint(masks, norms)
    fq = np.zeros(config.grid_shape)  # 0 on the tiles where a = 0
    pos = a > 0.0
    fq[pos] = phi.deriv(np.abs(f.grid[pos]) / a[pos])
    # per level: a^(p-1) * mu(Q)/|Q| / (1 + mean_Q Phibar(f_Q))
    scale = [ak ** (p - 1.0) * mk / (1.0 + bk)
             for ak, mk, bk in zip(norms, _mean_pyramid(mu.grid), _mean_pyramid(phibar(fq)))]
    F = GridFunction._adopt(config, paint(masks, scale) * fq)
    # the tiles are disjoint, so F restricted to a tile is that tile's F_Q:
    # the tiles' leaf blocks level by level, rows in (level, index) order
    certs = np.concatenate(_luxemburg_rows(phibar, (cube_blocks(F.grid, k)[m.reshape(-1)]
                                                    for k, m in enumerate(masks) if m.any())))
    tiles = [(q, float(norms[q.level][q.index])) for q in t]
    return DualWitness(F, tuple((q, q.side**alpha * float(c) if a > 0.0 else 0.0, a)
                                for (q, a), c in zip(tiles, certs)))


@dataclass(frozen=True)
class SpaceSpec:
    """Addressable norm: tag in {morrey, orlicz_morrey, orlicz_morrey_inf,
    block, tiling_orlicz_morrey} plus whichever of (p, phi, tiling) apply."""

    tag: str
    p: float | None = None
    phi: YoungFunction | None = None
    tiling: Tiling | None = None


_SPACES = {  # tag: (the SpaceSpec fields it needs, the norm)
    "morrey": (("p",), lambda g, s: morrey_norm(g, s.p)),
    "orlicz_morrey": (("p", "phi"), lambda g, s: orlicz_morrey_norm(g, s.p, s.phi)),
    "orlicz_morrey_inf": (("phi",), lambda g, s: orlicz_morrey_norm(g, np.inf, s.phi)),
    "block": (("p", "phi", "tiling"), lambda g, s: block_norm(g, s.p, s.phi, s.tiling)),
    "tiling_orlicz_morrey": (("p", "phi", "tiling"), lambda g, s: tiling_orlicz_morrey_norm(g, s.p, s.phi, s.tiling)),
}


def _space(spec: SpaceSpec):
    """The norm spec names; ValueError for an unknown tag or a missing field."""
    if spec.tag not in _SPACES:
        raise ValueError(f"unknown space tag {spec.tag!r}")
    fields, norm = _SPACES[spec.tag]
    missing = [name for name in fields if getattr(spec, name) is None]
    if missing:
        raise ValueError(f"space {spec.tag!r} needs {', '.join(missing)}")
    return norm


def space_norm(g: GridFunction, spec: SpaceSpec) -> float:
    """The norm spec names; ValueError for an unknown tag or a missing field."""
    return _space(spec)(g, spec)


def _witnesses(absf: GridFunction, count: int, rng: np.random.Generator) -> list[GridFunction]:
    """The first `count` witness draws, skipping an empty random set: the
    root indicator, |f| itself, random densities, Frostman measures of
    random sets and scaled cube indicators, in turn.  The draws come first,
    in that order; the random sets' Frostman measures are then built in one
    `_frostman_stack` descent, each `==` `frostman_measure` of its set."""
    config = absf.config
    gs, sets = [], {}  # sets: witness slot -> its random set
    for i in range(count):
        if i == 0:
            gs.append(GridFunction.constant(config, 1.0))
        elif i == 1 and absf.values.any():
            gs.append(absf)  # self-pairing witness, often near-extremal
        elif i % 3 == 1:
            gs.append(GridFunction._adopt(config, rng.random(config.num_cells)))
        elif i % 3 == 2:
            mask = rng.random(config.num_cells) < max(rng.random(), 1.0 / config.num_cells)
            if mask.any():
                sets[len(gs)] = mask
                gs.append(None)
        else:
            k = int(rng.integers(0, config.L + 1))
            q = CubeId(k, tuple(int(rng.integers(0, 2**k)) for _ in range(config.n)))
            grid = np.zeros(config.grid_shape)
            grid[cube_slices(config, q)] = float(rng.random()) + 0.5
            gs.append(GridFunction._adopt(config, grid))
    if sets:
        stack = np.concatenate([m.reshape(config.grid_shape) for m in sets.values()])
        for slot, mu in zip(sets, _frostman_stack(config, stack).reshape(len(sets), -1)):
            gs[slot] = GridFunction._adopt(config, mu)
    return gs


def associate_lower_bound(f: GridFunction, spec: SpaceSpec, witnesses: int, seed: int) -> float:
    """Lower bound for the associate norm of f against the given space:
    the best pairing(|f|, |g|)/norm(g) over generated admissible witnesses
    (the root indicator, random densities, Frostman measures of random
    sets, and scaled cube indicators).  Deterministic given the seed.
    witnesses must be an integer >= 1 and seed an integer >= 0, and the
    spec is checked too, before any witness is drawn.  All the random
    sets' Frostman measures come from one stacked descent (`_witnesses`).
    Against orlicz_morrey_inf every witness is normed in one `_sup_norms`
    call; otherwise each goes through `space_norm`."""
    _require_count("witnesses", witnesses, 1)
    _require_count("seed", seed, 0)
    _space(spec)
    absf = GridFunction._adopt(f.config, np.abs(f.values))
    gs = _witnesses(absf, witnesses, np.random.default_rng(seed))
    if spec.tag == "orlicz_morrey_inf":
        denoms = _sup_norms(gs, spec.phi)
    else:
        denoms = [space_norm(g, spec) for g in gs]
    best = 0.0
    for g, denom in zip(gs, denoms):
        if denom > 0.0:
            best = max(best, pairing(absf, g) / denom)
    return best


def enumerate_tilings(config: LatticeConfig):
    """All tilings of the root cube (exhaustive; intended for small
    lattices): a cube alone first, then every combination of its
    children's tilings, the last child's varying fastest."""

    def rec(q: CubeId):
        yield (q,)
        if q.level < config.L:
            kids = sorted(children(config, q), key=lambda c: c.index)
            for combo in product(*[list(rec(c)) for c in kids]):
                yield sum(combo, ())

    for combo in rec(CubeId(0, (0,) * config.n)):
        yield Tiling(combo)


def greedy_min_tiling(config: LatticeConfig, objective) -> tuple[Tiling, float]:
    """Split-if-it-helps descent from the single-cube tiling, minimizing
    objective(Tiling).  Best-improvement passes until stationary."""
    current = Tiling([CubeId(0, (0,) * config.n)])
    value = objective(current)
    while True:
        best_t, best_v = None, value
        for q in current:
            if q.level >= config.L:
                continue
            cand = Tiling((current.cubes - {q}) | children(config, q))
            v = objective(cand)
            if v < best_v - 1e-15:
                best_t, best_v = cand, v
        if best_t is None:
            return current, value
        current, value = best_t, best_v
