"""Norm scales over the content: Morrey, Orlicz-Morrey (global and tiled),
Orlicz block norms, pairings, the dual-witness construction, and
associate-norm lower bounds.

Associate norms are suprema over infinite balls and are never computed
exactly; `associate_lower_bound` certifies them from below by maximizing
pairings over generated admissible witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .content import choquet_integral, choquet_norm, frostman_measure
from .lattice import (
    CubeId,
    GridFunction,
    LatticeConfig,
    Tiling,
    children,
    cube_blocks,
    indicator,
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
    if not p > 1:  # false for NaN as well
        raise ValueError(f"Morrey exponent must satisfy p > 1, got {p}")
    return choquet_norm(fractional_measure_maximal(mu).values, p)


def orlicz_morrey_norm(f: GridFunction, p: float, phi: YoungFunction) -> float:
    """Choquet L^p norm of the fractional Orlicz maximal function; the
    p = inf branch is the direct sup over all lattice cubes."""
    if not p > 1:
        raise ValueError(f"Orlicz-Morrey exponent must satisfy p > 1, got {p}")
    config = f.config
    alpha = config.n - config.d
    if np.isinf(p):
        norms = luxemburg_norm_table(f, phi)
        return max(float(2.0 ** (-k * alpha) * norms[k].max()) for k in range(config.L + 1))
    return choquet_norm(orlicz_fractional_maximal(f, alpha, phi).values, p)


def _tile_profile(f: GridFunction, phi: YoungFunction, t: Tiling, term) -> np.ndarray:
    """The leaf grid holding term(side, a) on each tile, for its side and
    Luxemburg norm a.  `term` runs on Python floats (object arrays): numpy's
    vectorised `**` can differ from the scalar one in the last bit."""
    masks = _require_tiling(f.config, t)
    table = luxemburg_norm_table(f, phi)
    per_level = [np.zeros(m.shape) for m in masks]
    for k, (m, vals) in enumerate(zip(masks, per_level)):
        vals[m] = term(2.0**-k, table[k][m].astype(object))
    return paint(masks, per_level)


def block_norm(f: GridFunction, p: float, phi: YoungFunction, t: Tiling) -> float:
    """Block norm: Choquet L^1 norm of the tile-wise p-th power Luxemburg
    profile, to the power 1/p."""
    if not 1 <= p < np.inf:
        raise ValueError(f"block exponent must be finite with p >= 1, got {p}")
    step = _tile_profile(f, phi, t, lambda side, a: a**p)
    return choquet_integral(GridFunction(f.config, step)) ** (1.0 / p)


def tiling_orlicz_morrey_norm(g: GridFunction, pprime: float, phibar: YoungFunction, t: Tiling) -> float:
    """Tiled Orlicz-Morrey norm: Choquet L^1 norm of the tile profile of
    (side^(n-d) * Luxemburg norm)^p', to the power 1/p'."""
    if not pprime >= 1:
        raise ValueError(f"exponent must satisfy p' >= 1, got {pprime}")
    alpha = g.config.n - g.config.d
    if np.isinf(pprime):
        return float(_tile_profile(g, phibar, t, lambda side, a: side**alpha * a).max())
    step = _tile_profile(g, phibar, t, lambda side, a: (side**alpha * a) ** pprime)
    return choquet_integral(GridFunction(g.config, step)) ** (1.0 / pprime)


def pairing(f: GridFunction, g: GridFunction) -> float:
    """Lebesgue inner product over the root cube."""
    if f.config != g.config:
        raise ValueError("pairing requires a common lattice")
    return float((f.values * g.values).sum() * f.config.cell_volume)


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
    tiling's level masks: the tile norms come from the cached Luxemburg
    table of f, the certificates from one solve over the tiles of F (F is
    new per call, so a table of it would be solved for every cube), and
    both are listed in the tiling's (level, index) order.
    """
    if not p > 1:
        raise ValueError(f"exponent must satisfy p > 1, got {p}")
    config = f.config
    masks = _require_tiling(config, t)
    _check_admissible(mu)
    phibar = phi.complementary()
    alpha = config.n - config.d

    norms = luxemburg_norm_table(f, phi)
    a = paint(masks, norms)
    fq = np.zeros(config.grid_shape)  # 0 on the tiles where a = 0
    pos = a > 0.0
    fq[pos] = phi.deriv(np.abs(f.grid[pos]) / a[pos])
    # per level: a^(p-1) * mu(Q)/|Q| / (1 + mean_Q Phibar(f_Q)), the means as sums / cell counts
    cells = [2.0 ** (config.n * (config.L - k)) for k in range(config.L + 1)]
    scale = [ak ** (p - 1.0) * (mk / c) / (1.0 + bk / c)
             for ak, mk, bk, c in zip(norms, pyramid(mu.grid), pyramid(phibar(fq)), cells)]
    F = GridFunction(config, paint(masks, scale) * fq)
    # the tiles are disjoint, so F restricted to a tile is that tile's F_Q:
    # one solve over the tiles' leaf blocks, rows in (level, index) order
    blocks = [cube_blocks(F.grid, k)[m.reshape(-1)] for k, m in enumerate(masks) if m.any()]
    certs = _luxemburg_rows(phibar, np.concatenate([b.reshape(-1) for b in blocks]),
                            np.concatenate([np.full(b.shape[0], b.shape[1]) for b in blocks]))
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


def space_norm(g: GridFunction, spec: SpaceSpec) -> float:
    """The norm spec names; ValueError for an unknown tag or a missing field."""
    if spec.tag not in _SPACES:
        raise ValueError(f"unknown space tag {spec.tag!r}")
    fields, norm = _SPACES[spec.tag]
    missing = [name for name in fields if getattr(spec, name) is None]
    if missing:
        raise ValueError(f"space {spec.tag!r} needs {', '.join(missing)}")
    return norm(g, spec)


def associate_lower_bound(f: GridFunction, spec: SpaceSpec, witnesses: int, seed: int) -> float:
    """Lower bound for the associate norm of f against the given space:
    the best pairing(|f|, |g|)/norm(g) over generated admissible witnesses
    (the root indicator, random densities, Frostman measures of random
    sets, and scaled cube indicators).  Deterministic given the seed."""
    if witnesses < 1:
        raise ValueError("need at least one witness")
    config = f.config
    absf = GridFunction(config, np.abs(f.values))
    rng = np.random.default_rng(seed)
    best = 0.0
    for i in range(witnesses):
        if i == 0:
            g = GridFunction.constant(config, 1.0)
        elif i == 1 and absf.values.any():
            g = absf  # self-pairing witness, often near-extremal
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
