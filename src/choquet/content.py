"""Dyadic Hausdorff content, its dual Frostman measure, and Choquet norms.

The content of a leaf-cell set is the exact minimum of sum(side^d) over
coverings by lattice cubes.  At finite resolution this is a bottom-up tree
recurrence: a cube either pays its own side^d or delegates to its children,
whichever is cheaper.  Ties resolve toward the single cube so optimal
covers stay canonical.  The optimal cover is read off the DP tables top
down, one boolean mask per level: a cube is in it when the DP takes it and
no ancestor was taken.  It is held as per-level index arrays, which
`ContentResult.to_json_dict` formats directly; `optimal_cover` builds the
`CubeId` objects on demand.

The Choquet integral needs the content of every level set {f >= t}.  It
runs the same recurrence once for all of them by a sorted merge over the
distinct values: each cube keeps one cost per distinct value inside it, and
a parent merges its 2^n children's lists.  A cube's cost never falls as
the value falls (the content is monotone, and fp + and min are too), so
once it reaches side^d it stays exactly side^d: the merge keeps the first
such entry and drops the rest, whose costs the parent reads, unchanged,
from the kept one.  Unpruned, the work would be the sum over cubes of the
distinct values inside each, up to N*(L+1) for N leaf cells; pruned,
continuous values at n=2, L=9 or n=3, L=6 take about a tenth of a second.
The costs are bit-identical to one full-lattice DP per level set.

The Frostman measure realizes the dual packing side: mass H^d(E) enters at
the root and splits among occupied children proportionally to their DP
costs, which keeps mu(Q) <= side(Q)^d on every lattice cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import CubeId, GridFunction, LatticeConfig, coarsen, refine

__all__ = [
    "ContentResult",
    "hausdorff_content",
    "hausdorff_content_value",
    "frostman_measure",
    "choquet_integral",
    "choquet_norm",
]

_TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ContentResult:
    """The content and an optimal cover.  cover[k] is a read-only (m_k, n)
    array of the level-k cover cubes' indices, rows in C order, so the
    levels in turn list the cover in (level, index) order."""

    value: float
    cover: tuple[np.ndarray, ...]

    @cached_property
    def optimal_cover(self) -> frozenset[CubeId]:
        return frozenset(CubeId(k, tuple(idx)) for k, rows in enumerate(self.cover) for idx in rows.tolist())

    def to_json_dict(self) -> dict:
        cubes = []
        for k, rows in enumerate(self.cover):
            template = f"{k}:" + ",".join(["%d"] * rows.shape[1])
            cubes.extend(template % tuple(idx) for idx in rows.tolist())
        return {"value": self.value, "cover": cubes}


def _cost_tables(config: LatticeConfig, occ_grid: np.ndarray):
    """(costs, child): every level's DP costs and children's totals, shaped
    (2^k,)*n.  A leaf costs side^d if occupied, else 0; above, child[k] is
    `coarsen(costs[k + 1])` and costs[k] is min(side^d, child[k]).  An empty
    cube's children total exactly 0, so a cube is occupied iff its cost is
    positive.  child[L] is None."""
    L, d = config.L, config.d
    costs = [None] * (L + 1)
    child = [None] * (L + 1)
    costs[L] = np.where(occ_grid, 2.0 ** (-L * d), 0.0)
    for k in range(L - 1, -1, -1):
        child[k] = coarsen(costs[k + 1])
        costs[k] = np.minimum(2.0 ** (-k * d), child[k])
    return costs, child


def _as_occupancy(E: GridFunction) -> np.ndarray:
    if not E.is_indicator():
        raise ValueError("expected a {0,1}-valued indicator function")
    return E.grid > 0.5


def hausdorff_content_value(config: LatticeConfig, occ_grid: np.ndarray) -> float:
    """Content of an occupancy grid, value only (no cover extraction)."""
    costs, _ = _cost_tables(config, occ_grid)
    return float(costs[0].reshape(-1)[0])


def hausdorff_content(E: GridFunction) -> ContentResult:
    """Exact minimum of sum(side^d) over coverings of E by lattice cubes."""
    config = E.config
    L, d = config.L, config.d
    costs, child = _cost_tables(config, _as_occupancy(E))

    # The DP takes an occupied cube whose side^d is no more than its
    # children's total (ties go to the cube); the cover is every taken
    # cube with no taken ancestor.
    cover = []
    blocked = np.zeros((1,) * config.n, dtype=bool)
    for k in range(L + 1):
        if k:
            blocked = refine(blocked, 2)
        take = costs[k] > 0.0
        if k < L:
            take &= 2.0 ** (-k * d) <= child[k] + _TIE_TOL
        sel = take & ~blocked
        rows = np.argwhere(sel)
        rows.flags.writeable = False
        cover.append(rows)
        blocked |= sel
    return ContentResult(float(costs[0].reshape(-1)[0]), tuple(cover))


def frostman_measure(E: GridFunction) -> GridFunction:
    """Density of a measure mu >= 0 on E with mu(Q) <= side(Q)^d everywhere
    and total mass equal to the content of E."""
    config = E.config
    occ = _as_occupancy(E)
    if not occ.any():
        raise ValueError("cannot build a Frostman measure on the empty set")
    costs, child = _cost_tables(config, occ)

    mass = costs[0].copy()  # level-0 mass: the content itself
    for k in range(config.L):
        # mass per unit child cost, formed at the parent level and refined
        # once: the same product per child as refining both factors
        scale = np.divide(1.0, child[k], out=np.zeros_like(child[k]), where=child[k] > 0.0)
        mass = refine(mass * scale, 2) * costs[k + 1]
    density = mass / config.cell_volume
    return GridFunction(config, density.reshape(-1))


def _morton_order(grid: np.ndarray, L: int) -> np.ndarray:
    """Leaf values in Morton order: the 2^n children of every cube sit next
    to each other, and child digit c holds bit (c >> (n-1-a)) & 1 of axis a."""
    n = grid.ndim
    bits = grid.reshape((2,) * (n * L))  # axis a, bit b (msb first) at a*L + b
    return bits.transpose([a * L + b for b in range(L) for a in range(n)]).reshape(-1)


def choquet_integral(f: GridFunction) -> float:
    """Layer-cake integral of f >= 0 against the content: the exact sum of
    (t_i - t_{i-1}) * H^d({f >= t_i}) over the distinct positive values.

    Every cube Q keeps one entry per distinct value t inside it, holding
    the DP cost of {f >= t} on Q.  A parent merges its children's entries
    in descending value; at each of its values a child contributes the
    cost of its latest entry so far (its smallest value >= t), or 0.
    Entries after Q's first one with cost side(Q)^d are dropped: costs
    never fall down the list, so theirs is that same float, and the
    latest-entry rule reads it from the kept one.  The root's kept entries
    stand for every rank up to the next one kept."""
    if not f.is_nonnegative():
        raise ValueError("Choquet integral requires f >= 0")
    n, L, d = f.config.n, f.config.L, f.config.d
    leaves = _morton_order(f.grid, L)
    cube = np.flatnonzero(leaves > 0.0)
    levels, inverse = np.unique(leaves[cube], return_inverse=True)
    if levels.size == 0:
        return 0.0
    # An entry's key packs (cube, rank), rank 0 for the largest value, so
    # keys sort by cube and then by descending value.
    V = levels.size
    bits = max(V - 1, 1).bit_length()
    key = (cube << bits) | ((V - 1) - inverse.reshape(-1))
    cost = np.full(cube.size, 2.0 ** (-L * d))
    for k in range(L - 1, -1, -1):
        cube = key >> bits
        child = cube & (2**n - 1)
        key -= (cube - (cube >> n)) << bits  # (parent, rank)
        # The entries are sorted by (parent, child, rank), so sorting by
        # (parent, rank) only merges each parent's 2^n child runs.  Both
        # orders hold a parent's entries at the same index range.
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.empty(key.size, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        start = np.flatnonzero(new)
        key = key[start]
        parent = key >> bits
        # latest[c, g]: child c's latest entry up to group g, as index 2i+1
        # into [0, cost_0, 0, cost_1, ...]; a forward fill from 2 * (the
        # parent's first index), which reads 0 while c has no entry yet.
        first = np.empty(key.size, dtype=bool)
        first[0] = True
        np.not_equal(parent[1:], parent[:-1], out=first[1:])
        latest = np.empty((2**n, key.size), dtype=start.dtype)
        latest[:] = 2 * np.maximum.accumulate(np.where(first, start, 0))
        # sorted entry j is entry order[j], in group cumsum(new)[j] - 1
        latest.reshape(-1)[child[order] * key.size + (np.cumsum(new) - 1)] = 2 * order + 1
        np.maximum.accumulate(latest, axis=1, out=latest)
        padded = np.zeros(2 * cost.size)
        padded[1::2] = cost
        # Add the children in coarsen's order: axis-0 pairs first.
        terms = padded[latest].reshape((2,) * n + (-1,))
        for _ in range(n):
            terms = terms[0] + terms[1]
        side = 2.0 ** (-k * d)
        cost = np.minimum(side, terms)
        # Costs never fall down a cube's ranks, so after its first entry
        # equal to side every later one is side too: drop them, and the
        # forward fills above read that same float from the kept entry.
        keep = first
        keep[1:] |= cost[:-1] < side
        key, cost = key[keep], cost[keep]
    # Rank r reads the root's last kept entry at or before r; by ascending
    # value, these are the contents of the level sets.
    kept = np.zeros(V, dtype=np.intp)
    kept[key[1:]] = 1
    contents = cost[np.cumsum(kept)][::-1]
    steps = np.diff(levels, prepend=0.0)
    return float((steps * contents).sum())


def choquet_norm(f: GridFunction, p: float) -> float:
    """The L^p(H^d) functional; p = inf gives the essential sup (max leaf)."""
    if not p > 0:  # false for NaN as well
        raise ValueError(f"exponent must satisfy p > 0, got {p}")
    if np.isinf(p):
        return float(np.abs(f.values).max())
    absf = GridFunction(f.config, np.abs(f.values) ** p)
    return choquet_integral(absf) ** (1.0 / p)
