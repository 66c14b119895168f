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

The Choquet integral needs the content of every level set {f >= t}, at
each of the V distinct positive values of f on N leaf cells.  Two kernels
give the same floats, and `_level_contents` picks one by a rule on V and N
(`_dense_wins`: V <= 128, or V*N <= 2^17).  With few values, the dense
profile runs the value-only DP of `hausdorff_content_value` once per level
set, the sets stacked along axis 0 up to a fixed number of leaves: O(V*N)
work and a few MB whatever V is.  With many, a sorted merge runs the same
recurrence once for all of them: each cube keeps one cost per distinct
value inside it, and a parent merges its 2^n children's lists.  A cube's
cost never falls as the value falls (the content is monotone, and fp + and
min are too), so once it reaches side^d it stays exactly side^d: the merge
keeps the first such entry and drops the rest, whose costs the parent
reads, unchanged, from the kept one.  Unpruned, the work would be the sum
over cubes of the distinct values inside each, up to N*(L+1); pruned,
continuous values at n=2, L=9 or n=3, L=6 take about a tenth of a
second.  Both are bit-identical to one full-lattice DP per level set.

Every Choquet functional reads the level-set profile (t_i, H^d({f >= t_i}));
`choquet_norm` scales the levels exactly, by a power of two, so it builds
no |f|^p grid and no power overflows.

The Frostman measure realizes the dual packing side: mass H^d(E) enters at
the root and splits among occupied children proportionally to their DP
costs, which keeps mu(Q) <= side(Q)^d on every lattice cube.  One descent
serves any number of sets stacked along axis 0 (`_frostman_stack`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import CubeId, GridFunction, LatticeConfig, _require_real, coarsen, refine

__all__ = [
    "ContentResult",
    "hausdorff_content",
    "hausdorff_content_value",
    "frostman_measure",
    "choquet_integral",
    "choquet_norm",
]

_TIE_TOL = 1e-12
_DENSE_MAX_V = 128  # `_dense_wins`' bounds on V and on V*N
_DENSE_MAX_ENTRIES = 2**17
_STACK_ENTRIES = 2**18  # leaves per stack of level sets in `_dense_profile`


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
    (2^k,)*n, or W*2^k rows on axis 0 for W grids stacked there.  A leaf
    costs side^d if occupied, else 0; above, child[k] is
    `coarsen(costs[k + 1])` and costs[k] is min(side^d, child[k]).  An empty
    cube's children total exactly 0, so a cube is occupied iff its cost is
    positive.  child[L] is None.  The cover and the Frostman measure read
    every level; a value alone comes from `_content_values`."""
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
    """Content of an occupancy grid shaped `config.grid_shape` (ValueError
    otherwise), value only (no cover extraction): `_content_values` of a
    stack of one, the DP the dense level-set profile runs."""
    if np.shape(occ_grid) != config.grid_shape:
        raise ValueError(f"occupancy grid of shape {np.shape(occ_grid)} on a lattice of shape {config.grid_shape}")
    return float(_content_values(config, np.asarray(occ_grid, dtype=bool))[0])


def _content_values(config: LatticeConfig, occ: np.ndarray) -> np.ndarray:
    """The contents of bool occupancy grids stacked along axis 0, 2^L rows
    each: `_cost_tables`' recurrence keeping one level at a time, `==` its
    root.  A stack never pairs rows of two grids below the root, as in
    `_frostman_stack`.

    The leaf block's first two axes (one if n = 1) add 0/1 leaves as uint8
    counts c.  In floats those partial sums are c * side_L^d: exact after
    axis 0 (c <= 2), and rounded once, from exact terms, at axis 1; so
    `c * side_L^d` is the float `coarsen` adds there.  Any further axes
    add floats."""
    n, L, d = config.n, config.L, config.d
    if L == 0:
        return np.where(occ, 1.0, 0.0).reshape(-1)
    cost = occ.view(np.uint8)
    for ax in range(n):
        head = (slice(None),) * ax
        cost = cost[head + (slice(0, None, 2),)] + cost[head + (slice(1, None, 2),)]
        if ax == min(n, 2) - 1:
            cost = cost * 2.0 ** (-L * d)
    np.minimum(cost, 2.0 ** (-(L - 1) * d), out=cost)
    for k in range(L - 2, -1, -1):
        cost = coarsen(cost)
        np.minimum(cost, 2.0 ** (-k * d), out=cost)
    return cost.reshape(-1)


def hausdorff_content(E: GridFunction) -> ContentResult:
    """Exact minimum of sum(side^d) over coverings of E by lattice cubes."""
    config = E.config
    L, d = config.L, config.d
    costs, child = _cost_tables(config, _as_occupancy(E))

    # The DP takes an occupied cube whose side^d is no more than its
    # children's total (ties go to the cube); the cover is every taken
    # cube with no taken ancestor.
    take = [costs[k] > 0.0 for k in range(L + 1)]
    for k in range(L):
        take[k] &= 2.0 ** (-k * d) <= child[k] + _TIE_TOL
    cover = []
    for sel in _outermost(take):
        rows = np.argwhere(sel)
        rows.flags.writeable = False
        cover.append(rows)
    return ContentResult(float(costs[0].reshape(-1)[0]), tuple(cover))


def _outermost(take: list[np.ndarray]) -> list[np.ndarray]:
    """The cubes marked in take[k] (one bool array per level, shaped
    (2^k,)*n) with no marked ancestor, one mask per level: a DP's choices
    read top down, each kept cube blocking every cube below it."""
    masks = []
    blocked = np.zeros_like(take[0])
    for k, marked in enumerate(take):
        if k:
            blocked = refine(blocked, 2)
        sel = marked & ~blocked
        masks.append(sel)
        blocked |= sel
    return masks


def frostman_measure(E: GridFunction) -> GridFunction:
    """Density of a measure mu >= 0 on E with mu(Q) <= side(Q)^d everywhere
    and total mass equal to the content of E: `_frostman_stack` with a
    stack of one."""
    occ = _as_occupancy(E)
    if not occ.any():
        raise ValueError("cannot build a Frostman measure on the empty set")
    return GridFunction._adopt(E.config, _frostman_stack(E.config, occ))


def _frostman_stack(config: LatticeConfig, occ: np.ndarray) -> np.ndarray:
    """Frostman densities of nonempty occupancy grids stacked along axis 0,
    2^L rows each, so one `_cost_tables` pass and one descent serve them
    all, as `spaces._sup_norms` stacks its functions: a pair of rows never
    spans two grids above the root, and every step is elementwise, so each
    grid's rows are `==` its own descent.  A stack of one is the grid."""
    costs, child = _cost_tables(config, occ)
    mass = costs[0].copy()  # level-0 mass: the content itself
    for k in range(config.L):
        # mass per unit child cost, formed at the parent level and refined
        # once: the same product per child as refining both factors
        scale = np.divide(1.0, child[k], out=np.zeros_like(child[k]), where=child[k] > 0.0)
        mass = refine(mass * scale, 2) * costs[k + 1]
    return mass / config.cell_volume


def _morton_order(grid: np.ndarray, L: int) -> np.ndarray:
    """Leaf values in Morton order: the 2^n children of every cube sit next
    to each other, and child digit c holds bit (c >> (n-1-a)) & 1 of axis a."""
    n = grid.ndim
    bits = grid.reshape((2,) * (n * L))  # axis a, bit b (msb first) at a*L + b
    return bits.transpose([a * L + b for b in range(L) for a in range(n)]).reshape(-1)


def _level_contents(config: LatticeConfig, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(levels, contents) of a leaf grid f >= 0: its distinct positive
    values t_i, ascending, and the content H^d({f >= t_i}) of each.

    Two kernels give the same floats.  `_dense_profile` runs the value DP
    once per level set, O(V*N) work for V values on N leaves;
    `_merge_profile` runs it once for all of them, O(N log N) and more
    memory.  `_dense_wins(V, N)` picks: V <= 128 or V*N <= 2^17.  The
    distinct values of a strided sample of f, less one for a 0, bound V
    from below, so an f whose sample already fails the rule goes to the
    merge without a sort of every leaf."""
    flat = grid.reshape(-1)
    if _dense_wins(np.unique(flat[:: max(1, flat.size >> 10)]).size - 1, flat.size):
        levels = np.unique(flat[flat > 0.0])
        if _dense_wins(levels.size, flat.size):
            return levels, _dense_profile(config, grid, levels)
    return _merge_profile(config, grid)


def _dense_wins(V: int, N: int) -> bool:
    """The kernel rule, fitted on single-call times (`BENCH_30.json`): the
    dense profile is faster below about 128 values at any N, and up to
    V*N = 2^17 on small lattices, where the merge's fixed cost per level
    dominates.  Decreasing in V, so a lower bound on V that fails it
    decides."""
    return V <= _DENSE_MAX_V or V * N <= _DENSE_MAX_ENTRIES


def _dense_profile(config: LatticeConfig, grid: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """H^d({f >= t}) at each t in `levels`: `_content_values` over the
    level sets stacked along axis 0, at most `_STACK_ENTRIES` leaves (and
    at least one set) per stack, so peak memory is bounded whatever V is."""
    contents = np.empty(levels.size)
    w = max(1, _STACK_ENTRIES // grid.size)
    for s in range(0, levels.size, w):
        t = levels[s:s + w].reshape((-1,) + (1,) * grid.ndim)
        contents[s:s + w] = _content_values(config, (grid >= t).reshape((-1,) + grid.shape[1:]))
    return contents


def _merge_profile(config: LatticeConfig, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_level_contents` by a sorted merge over the distinct values.

    Every cube Q keeps one entry per distinct value t inside it, holding
    the DP cost of {f >= t} on Q.  A parent merges its children's entries
    in descending value; at each of its values a child contributes the
    cost of its latest entry so far (its smallest value >= t), or 0.
    Entries after Q's first one with cost side(Q)^d are dropped: costs
    never fall down the list, so theirs is that same float, and the
    latest-entry rule reads it from the kept one.  The root's kept entries
    stand for every rank up to the next one kept."""
    n, L, d = config.n, config.L, config.d
    leaves = _morton_order(grid, L)
    cube = np.flatnonzero(leaves > 0.0)
    levels, inverse = np.unique(leaves[cube], return_inverse=True)
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
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        start = np.flatnonzero(new)
        key = key[start]
        parent = key >> bits
        # latest[c, g]: child c's latest entry up to group g, as index 2i+1
        # into [0, cost_0, 0, cost_1, ...]; a forward fill from 2 * (the
        # parent's first index), which reads 0 while c has no entry yet.
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
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
    return levels, cost[np.cumsum(kept)][::-1]


def choquet_integral(f: GridFunction) -> float:
    """Layer-cake integral of f >= 0 against the content: the exact sum of
    (t_i - t_{i-1}) * H^d({f >= t_i}) over the distinct positive values."""
    if not f.is_nonnegative():
        raise ValueError("Choquet integral requires f >= 0")
    levels, contents = _level_contents(f.config, f.grid)
    return float((np.diff(levels, prepend=0.0) * contents).sum())


def _profile_norm(levels: np.ndarray, contents: np.ndarray, p: float) -> float:
    """The L^p norm of a level-set profile, levels scaled by 2^-e and the
    result by 2^e (e from frexp of the largest); p = inf gives the largest."""
    if np.isinf(p):
        return float(levels.max(initial=0.0))
    e = np.frexp(levels.max(initial=0.0))[1]
    steps = np.diff(np.ldexp(levels, -e) ** p, prepend=0.0)
    return float(np.ldexp((steps * contents).sum() ** (1.0 / p), e))


def choquet_norm(f: GridFunction, p: float) -> float:
    """The L^p(H^d) functional from the level-set profile of |f|, scaled
    exactly by a power of two; p = inf gives the essential sup (max leaf)."""
    _require_real("exponent p", p)
    if not p > 0:  # false for NaN as well
        raise ValueError(f"exponent must satisfy p > 0, got {p}")
    if np.isinf(p):
        return float(np.abs(f.values).max())
    return _profile_norm(*_level_contents(f.config, np.abs(f.grid)), p)
