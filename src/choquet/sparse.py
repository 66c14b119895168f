"""Sparse cube families, the sparse averaging operator, and the Cantor
counterexample family.

The Cantor construction keeps the 2^n corner cubes at each stage with
contraction tuned so that every level has content comparable to 1.  In
snapped mode (d = n/m) the corner cubes are genuine dyadic cubes of side
2^(-mk), the content identity is exact, and the family embeds in the
lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .content import _level_contents, _profile_norm, hausdorff_content_value
from .lattice import (CubeId, GridFunction, LatticeConfig, _CubeSet, _mean_pyramid, _require_count, _require_real, coarsen,
                      indicator, level_masks, paint)
from .young import ExpM1, luxemburg_norm

__all__ = [
    "SparseFamily",
    "SparseReport",
    "CantorConfig",
    "CantorFamily",
    "verify_sparse",
    "apply_sparse",
    "cantor_family",
    "cantor_content",
    "cantor_lux_bound",
    "unboundedness_demo",
]


@dataclass(frozen=True)
class SparseFamily(_CubeSet):
    eta: float

    def __init__(self, cubes, eta: float):
        _require_real("sparseness parameter", eta)
        if not 0.0 < eta < 1.0:
            raise ValueError(f"sparseness parameter must lie in (0,1), got {eta}")
        super().__init__(cubes)
        object.__setattr__(self, "eta", float(eta))

    def to_json_dict(self) -> dict:
        return {"eta": self.eta, "cubes": [str(q) for q in self]}


@dataclass(frozen=True)
class SparseReport:
    min_ratio: float
    carleson_constant: float
    worst_cube: CubeId | None

    def is_sparse(self, eta: float) -> bool:
        return self.min_ratio >= eta


def verify_sparse(config: LatticeConfig, s: SparseFamily) -> SparseReport:
    """Canonical-witness sparseness check.

    E_Q is Q minus the maximal strict descendants of Q in the family; these
    witness sets are pairwise disjoint by construction.  Reports the minimum
    |E_Q|/|Q|, the first cube in (level, index) order attaining it, and, as
    a secondary diagnostic, the Carleson packing constant sup_Q sum of |Q'|
    over family members Q' inside Q, divided by |Q|.

    One bottom-up pass over the family's `level_masks` down to its deepest
    member's level (the masks of the lattice cut at that level), one
    `coarsen` of each sum per level: a cube's removed volume sums each
    child's volume if the child is a member, else the child's removed
    volume; its inside volume sums each child's inside volume, plus its
    volume if a member.  All terms are dyadic volumes (n*L <= 24), so
    every sum is exact in any order.  Peak memory is a few float64 arrays
    at the deepest member's level, whatever L is.  Raises ValueError for a
    cube outside the lattice (wrong dimension or level above L).
    """
    deepest = max((q.level for q in s.cubes), default=0)
    masks = level_masks(replace(config, L=min(deepest, config.L)), s.cubes)
    removed = inside = np.zeros(masks[-1].shape)
    min_ratio, carleson, worst = 1.0, 0.0, None  # an empty family's report; every ratio is at most 1
    for k in range(len(masks) - 1, -1, -1):
        m, vol = masks[k], 2.0 ** (-config.n * k)
        most = np.where(m, removed, -np.inf)  # a level with no member has ratio +inf
        i = int(most.argmax())  # the first member removing the most
        ratio = (vol - most.flat[i]) / vol
        if ratio <= min_ratio:  # bottom-up, so a tie goes to the coarser cube
            min_ratio, worst = ratio, CubeId(k, tuple(int(j) for j in np.unravel_index(i, m.shape)))
        carleson = max(carleson, (vol + inside.max(where=m, initial=-np.inf)) / vol)
        if k:
            removed = coarsen(np.where(m, vol, removed))
            inside = coarsen(np.where(m, inside + vol, inside))
    return SparseReport(float(min_ratio), float(carleson), worst)


def apply_sparse(f: GridFunction, s: SparseFamily) -> GridFunction:
    """The sparse operator: sum over family cubes of (average of f over Q) * 1_Q.
    A sum beyond the float range is a ValueError."""
    with np.errstate(over="ignore"):
        out = paint(level_masks(f.config, s.cubes), _mean_pyramid(f.grid))
    if np.isinf(out).any():
        raise ValueError("sparse image beyond the float range")
    return GridFunction._adopt(f.config, out)


@dataclass(frozen=True)
class CantorConfig:
    """Corner-cube Cantor construction parameters.

    Snapped mode fixes d = n/m so the contraction 2^(-m) makes every stage
    a union of dyadic cubes and 2^(n-d) (1-delta)^d = 1 holds exactly.
    """

    n: int
    m: int
    K: int

    def __post_init__(self):
        _require_count("dimension n", self.n, 1)
        _require_count("contraction exponent m", self.m, 2)  # snapped mode
        _require_count("depth K", self.K, 0)

    @property
    def d(self) -> float:
        return self.n / self.m

    @property
    def delta(self) -> float:
        return 1.0 - 2.0 ** (1 - self.m)

    @property
    def eta(self) -> float:
        return 1.0 - (1.0 - self.delta) ** self.n

    def lattice(self, L: int) -> LatticeConfig:
        return LatticeConfig(self.n, L, self.d)


@dataclass(frozen=True)
class CantorFamily:
    config: LatticeConfig
    family: SparseFamily
    levels: tuple[tuple[CubeId, ...], ...]  # stage k cubes, k = 0..K

    def stage_indicator(self, k: int) -> GridFunction:
        """Indicator of E^k, the union of the stage-k cubes."""
        return indicator(self.config, self.levels[k])


def cantor_family(c: CantorConfig, L: int | None = None) -> CantorFamily:
    """Build the snapped Cantor family down to depth K inside a level-L lattice, L = m*K by default."""
    if L is None:
        L = c.m * c.K
    if c.m * c.K > L:
        raise ValueError(f"resolution exceeded: depth {c.K} needs L >= {c.m * c.K}, got {L}")
    config = c.lattice(L)
    stages: list[tuple[CubeId, ...]] = [(CubeId(0, (0,) * c.n),)]
    step = 2**c.m  # refinement factor per stage
    for k in range(1, c.K + 1):
        stages.append(tuple(CubeId(c.m * k, tuple(j * step + b * (step - 1) for j, b in zip(q.index, corner)))
                            for q in stages[-1] for corner in np.ndindex(*(2,) * c.n)))
    cubes = [q for stage in stages for q in stage]
    return CantorFamily(config, SparseFamily(cubes, c.eta), tuple(stages))


def cantor_content(c: CantorConfig, k: int, L: int | None = None) -> float:
    """Content of the stage-k set, k an integer in 0..K; exactly 1 in
    snapped mode."""
    _require_count("stage k", k)
    if not 0 <= k <= c.K:
        raise ValueError(f"stage {k} outside 0..{c.K}")
    fam = cantor_family(c, L)
    E = fam.stage_indicator(k)
    return hausdorff_content_value(fam.config, E.grid > 0.5)


def cantor_lux_bound(c: CantorConfig, L: int | None = None) -> dict:
    """Closed-form Luxemburg majorant for the sparse image of the root
    indicator, against e^t - 1, plus the bisection-computed norm.

    lambda0 = 2 / (n log(1/(1-delta))) makes the geometric factor
    Lambda0 = e^(1/lambda0) (1-delta)^n = (1-delta)^(n/2) < 1.
    """
    one_minus_delta = 1.0 - c.delta
    lambda0 = 2.0 / (c.n * math.log(1.0 / one_minus_delta))
    Lambda0 = one_minus_delta ** (c.n / 2.0)
    lambda_star = math.exp(1.0 / lambda0) / (1.0 - Lambda0)

    fam = cantor_family(c, L)
    F = apply_sparse(GridFunction.constant(fam.config, 1.0), fam.family)
    root = CubeId(0, (0,) * c.n)
    computed = luxemburg_norm(F, root, ExpM1())
    return {
        "lambda0": lambda0,
        "Lambda0": Lambda0,
        "lambda_star": lambda_star,
        "computed_norm": computed,
    }


def unboundedness_demo(c: CantorConfig, p: float, L: int | None = None) -> list[tuple[int, float]]:
    """Choquet norms of the sparse images at depths 0..K, each depth+1 at
    every p > 0 while the input's norm stays 1: every stage has content 1,
    so the layer cake of the sum of the K+1 stage indicators is (K+1)^p.

    The stages are nested, E^k inside E^(k-1), so the depth-K image F takes
    the values 1..K+1 with {F >= j+1} = E^j: the depth-j image has the same
    first j+1 level sets, each merged content bit-identical to the dense DP
    of its set, so row j reads the first j+1 entries of F's one profile."""
    if not p > 0:  # false for NaN as well
        raise ValueError(f"exponent must satisfy p > 0, got {p}")
    fam = cantor_family(c, L)
    F = apply_sparse(GridFunction.constant(fam.config, 1.0), fam.family)
    levels, contents = _level_contents(fam.config, F.grid)
    return [(j, _profile_norm(levels[:j + 1], contents[:j + 1], p)) for j in range(c.K + 1)]
