"""Dyadic maximal operators: Hardy-Littlewood, fractional-measure, and
fractional Orlicz.

Each operator is a top-down sweep: per-level cube statistics are computed
once and folded into a running maximum that is kept at each level's own
resolution.  Level k's maximum is refined one level and compared with the
level-(k+1) statistics, so the sweep touches about N*2^n/(2^n-1) cells
for N leaf cells, not N per level.  Ties break toward the smallest level
(largest cube) so argmax records are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import CubeId, GridFunction, LatticeConfig, _mean_pyramid, _require_count, _require_real, refine
from .young import YoungFunction, luxemburg_norm_table

__all__ = [
    "MaximalResult",
    "hl_maximal",
    "fractional_measure_maximal",
    "orlicz_fractional_maximal",
]


@dataclass(frozen=True)
class MaximalResult:
    values: GridFunction
    argmax_levels: np.ndarray  # per leaf cell, the level of an attaining cube

    def argmax_cube(self, cell: tuple[int, ...]) -> CubeId:
        """The recorded cube attaining the supremum at the given leaf cell:
        n integer indices in [0, 2^L), else a ValueError."""
        config = self.values.config
        if len(cell) != config.n:
            raise ValueError(f"leaf cell {cell} needs {config.n} indices")
        for c in cell:
            _require_count("leaf cell index", c, 0)
        cell = CubeId(config.L, cell).index  # ValueError at 2^L or beyond
        k = int(self.argmax_levels.reshape(config.grid_shape)[cell])
        return CubeId(k, tuple(c >> (config.L - k) for c in cell))


def _sweep(config: LatticeConfig, level_stats: list[np.ndarray]) -> MaximalResult:
    """Running max of per-cube statistics along root-to-leaf paths.

    level_stats[k] holds one value per level-k cube, shaped (2^k,)*n.  The
    maximum over a cube's ancestors and itself is held per cube, one level
    at a time: one `refine(., 2)` takes it to the children, which compare
    their own statistic with a strict `>`, so ties keep the larger cube.
    The work is about N*2^n/(2^n-1) cells, against N per level for a
    running max on the leaf grid.  Both updates are in place and without
    masks: statistics are never NaN, so `np.maximum(stat, best)` has the
    values of the strict fold, and every level recorded above level k is
    below k, so `where(stat > best, k, arg)` is `maximum(arg, (stat >
    best) * k)`, kept in the smallest integer type that holds L.
    """
    best = level_stats[0].copy()
    arg = np.zeros(best.shape, dtype=np.min_scalar_type(config.L))
    for k in range(1, config.L + 1):
        best, arg, stat = refine(best, 2), refine(arg, 2), level_stats[k]
        np.maximum(arg, (stat > best) * arg.dtype.type(k), out=arg)
        np.maximum(stat, best, out=best)
    return MaximalResult(GridFunction._adopt(config, best.reshape(-1)), arg.astype(int))


def hl_maximal(f: GridFunction) -> MaximalResult:
    """Dyadic Hardy-Littlewood maximal function: per leaf, the largest
    average of |f| over the ancestor cubes."""
    return _sweep(f.config, _mean_pyramid(np.abs(f.grid)))


def fractional_measure_maximal(mu: GridFunction) -> MaximalResult:
    """M_d of the measure with density mu: per leaf, max over ancestor cubes
    of mu(Q) / side(Q)^d, with the lattice's d."""
    if not mu.is_nonnegative():
        raise ValueError("density has negative cell values")
    config = mu.config
    # mu(Q) is the mean times |Q| = 2^(-nk)
    stats = [means * 2.0 ** (-config.n * k) * 2.0 ** (k * config.d) for k, means in enumerate(_mean_pyramid(mu.grid))]
    return _sweep(config, stats)


def orlicz_fractional_maximal(f: GridFunction, alpha: float, phi: YoungFunction) -> MaximalResult:
    """Fractional Orlicz maximal function: per leaf, max over ancestor cubes
    of side(Q)^alpha times the Phi-average of f over Q."""
    _require_real("alpha", alpha)
    config = f.config
    if not 0.0 < alpha < config.n:
        raise ValueError(f"alpha must lie in (0, n), got {alpha}")
    stats = [2.0 ** (-k * alpha) * norms for k, norms in enumerate(luxemburg_norm_table(f, phi))]
    return _sweep(config, stats)
