"""Dyadic lattice geometry on the root cube [0,1)^n.

Everything lives at a finite resolution level L: the root cube is split
into 2^(nL) leaf cells, and the lattice consists of all dyadic cubes of
levels 0..L inside the root.  Step functions constant on leaf cells double
as set indicators and as measure densities.

Leaf storage is dense: a flat float array in row-major (C) order over the
(2^L,)*n coordinate grid.  This ordering is part of the file format and
must not change.

The cube tree is walked through a few primitives that every module uses:
`children` for a single cube, and for whole levels held as arrays shaped
(2^k,)*n, `coarsen` (combine 2x...x2 blocks with a ufunc, one level up),
`refine` (repeat entries, levels down) and `cube_blocks` (one row of leaf
values per level-k cube).  A set of cubes is held as `level_masks` (one
bool array per level); `paint` sums per-cube values over such a set onto
the leaves, and `pyramid` combines a leaf grid up through every level.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeConfig",
    "CubeId",
    "GridFunction",
    "Tiling",
    "TilingReport",
    "children",
    "cube_slices",
    "indicator",
    "measure_of_cube",
    "validate_tiling",
    "validate_masks",
    "all_cubes",
    "coarsen",
    "refine",
    "cube_blocks",
    "level_masks",
    "paint",
    "pyramid",
]

_MAX_NL = 24  # largest n*L: 2^24 leaf cells, 128 MB per float64 grid


def _require_count(name: str, value, least: int | None = None) -> None:
    """ValueError unless value is an integer (Python or NumPy, not bool),
    at least `least` when that is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _require_real(name: str, value) -> None:
    """ValueError unless value is a real number (Python or NumPy, not bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class LatticeConfig:
    """Fixed lattice context: dimension n, max level L, content exponent d.

    n >= 1 and L >= 0 are integers (Python or NumPy, not bool), and n and
    n*L may be at most 24: the 2^(nL) leaf cells of a larger lattice
    do not fit a float64 grid in memory, and n is the grid's number of axes
    whatever L is (numpy takes at most 64).  d is a real number (Python
    or NumPy, not bool) with 0 < d < n."""

    n: int
    L: int
    d: float

    def __post_init__(self):
        _require_count("dimension n", self.n, 1)
        _require_count("resolution level L", self.L, 0)
        for name in ("n", "L"):  # NumPy integers held as int: n*L cannot wrap, and `to_json` writes them
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.n > _MAX_NL:
            raise ValueError(f"dimension n must be at most {_MAX_NL}, got {self.n}")
        if self.n * self.L > _MAX_NL:
            raise ValueError(
                f"lattice too large: n*L = {self.n * self.L} exceeds {_MAX_NL} (2^{_MAX_NL} leaf cells)"
            )
        _require_real("content exponent d", self.d)
        if not 0.0 < self.d < self.n:
            raise ValueError(f"content exponent d must satisfy 0 < d < n, got d={self.d}, n={self.n}")
        object.__setattr__(self, "d", float(self.d))  # so `to_json` writes a NumPy d too

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (2**self.L,) * self.n

    @property
    def num_cells(self) -> int:
        return 2 ** (self.n * self.L)

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.n * self.L)


@dataclass(frozen=True)
class CubeId:
    """A dyadic cube 2^(-level) * (index + [0,1)^n) inside the root cube."""

    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        """level and each index entry are integers (Python or NumPy, not
        bool), held as int; each entry lies in [0, 2^level)."""
        level, index = self.level, tuple(self.index)
        # Python ints skip the checks: they would add a third to a 77k-cube cover
        if type(level) is not int or not all(type(j) is int for j in index):
            _require_count("cube level", level)
            for j in index:
                _require_count("cube index entry", j)
            level, index = int(level), tuple(map(int, index))
            object.__setattr__(self, "level", level)
        if level < 0:
            raise ValueError(f"cube level must be >= 0, got {level}")
        for j in index:
            if j < 0 or j >> level:  # j >= 2^level, without building 2^level
                raise ValueError(f"cube index {index} out of range at level {level}")
        object.__setattr__(self, "index", index)

    @property
    def side(self) -> float:
        return 2.0**-self.level

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.level * len(self.index))

    def __str__(self) -> str:
        return f"{self.level}:{','.join(str(j) for j in self.index)}"

    @classmethod
    def parse(cls, s: str) -> "CubeId":
        """Parse the serialized form "k:j0,j1,..."."""
        try:
            level_str, idx_str = s.split(":")
            return cls(int(level_str), tuple(int(t) for t in idx_str.split(",")))
        except ValueError as exc:
            raise ValueError(f"malformed cube address {s!r}") from exc


class LevelOverflowError(ValueError):
    """Requested cubes below the lattice's finest level."""


def children(config: LatticeConfig, q: CubeId) -> set[CubeId]:
    """The 2^n cubes at level q.level+1 partitioning q, a cube of the
    lattice above its finest level."""
    cube_slices(config, q)  # raises for a cube outside the lattice
    if q.level >= config.L:
        raise LevelOverflowError(f"cube {q} is at the finest level L={config.L}")
    return {CubeId(q.level + 1, tuple(2 * j + c for j, c in zip(q.index, corner)))
            for corner in np.ndindex(*(2,) * config.n)}


def cube_slices(config: LatticeConfig, q: CubeId) -> tuple[slice, ...]:
    """Slices selecting q's leaf cells from the (2^L,)*n coordinate grid."""
    if q.level > config.L:
        raise LevelOverflowError(f"cube {q} is finer than the lattice level L={config.L}")
    if len(q.index) != config.n:
        raise ValueError(f"cube {q} has wrong dimension for n={config.n}")
    w = 2 ** (config.L - q.level)
    return tuple(slice(j * w, (j + 1) * w) for j in q.index)


def all_cubes(config: LatticeConfig, max_level: int | None = None):
    """All lattice cubes, coarsest first."""
    top = config.L if max_level is None else max_level
    for k in range(top + 1):
        for idx in np.ndindex(*(2**k,) * config.n):
            yield CubeId(k, idx)


def coarsen(a: np.ndarray, op=np.add) -> np.ndarray:
    """Combine each 2x...x2 block with the ufunc `op`, halving every axis:
    one level up the cube tree.  The block is reduced one axis at a time,
    axis 0 first, as `a.sum` (`op=np.add`) or `a.min` (`op=np.minimum`).
    Each axis is one `op` of its even and odd slices, the same value as a
    reduce over a length-2 axis but without its length-2 inner loops."""
    for ax in range(a.ndim):
        head = (slice(None),) * ax
        a = op(a[head + (slice(0, None, 2),)], a[head + (slice(1, None, 2),)])
    return a


def refine(a: np.ndarray, factor: int) -> np.ndarray:
    """Repeat each entry `factor` times along every axis: a per-cube array
    taken log2(factor) levels down the cube tree.  The last axis goes
    first, while the array is smallest; the others repeat whole rows."""
    for ax in reversed(range(a.ndim)):
        a = np.repeat(a, factor, axis=ax)
    return a


def cube_blocks(grid: np.ndarray, k: int) -> np.ndarray:
    """Reshape a (2^L,)*n grid to (2^(nk), cells-per-cube): one row per
    level-k cube, rows in C order of the cube index."""
    n = grid.ndim
    w = grid.shape[0] // 2**k
    a = grid.reshape(sum(((2**k, w) for _ in range(n)), ()))
    order = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    return a.transpose(order).reshape(2 ** (n * k), w**n)


def level_masks(config: LatticeConfig, cubes) -> list[np.ndarray]:
    """The cube set as one bool array per level 0..L, shaped (2^k,)*n, true
    at the members.  Raises ValueError for a cube outside the lattice."""
    masks = [np.zeros((2**k,) * config.n, dtype=bool) for k in range(config.L + 1)]
    for q in cubes:
        cube_slices(config, q)  # raises for a cube outside the lattice
        masks[q.level][q.index] = True
    return masks


def paint(masks: list[np.ndarray], per_level) -> np.ndarray:
    """The leaf grid where each cell holds the sum, over the marked cubes
    containing it, of per_level[k]: a scalar or an array shaped like
    masks[k] (one value per level-k cube).  Terms are added coarsest first,
    one `refine` per level."""
    out = np.where(masks[0], per_level[0], 0)
    for m, v in zip(masks[1:], per_level[1:]):
        out = refine(out, 2) + np.where(m, v, 0)
    return out


def pyramid(grid: np.ndarray, op=np.add) -> list[np.ndarray]:
    """Every cube's `op`-combination of the leaf values inside it, one array
    per level shaped (2^k,)*n, coarsest first: repeated `coarsen`."""
    levels = [grid]
    while levels[-1].shape[0] > 1:
        levels.append(coarsen(levels[-1], op))
    return levels[::-1]


def _mean_pyramid(grid: np.ndarray) -> list[np.ndarray]:
    """Every cube's mean of the leaf values inside it, one array per level
    shaped (2^k,)*n, coarsest first.  Each level is the `coarsen` sum of
    the finer level's means times 2^-n: the values are scaled before they
    are added, so no partial sum leaves the float range, and wherever the
    sums stay normal each mean is `==` to its `pyramid` sum over its cell
    count, since scaling by a power of two is exact."""
    levels = [grid]
    while levels[-1].shape[0] > 1:
        levels.append(coarsen(levels[-1] * 0.5**grid.ndim))
    return levels[::-1]


class GridFunction:
    """A step function constant on the 2^(nL) leaf cells of the root cube.

    It owns its values: the constructor copies what it is given, so a
    caller that later writes to its own array changes neither `values` nor
    any cached table of this function.  The package's kernels hand over
    the arrays they have just made through `_adopt`, which keeps them."""

    def __init__(self, config: LatticeConfig, values):
        try:
            values = np.array(values, dtype=float)
        except OverflowError:  # a Python int beyond the float range
            raise ValueError("leaf values must be within the float range") from None
        self._hold(config, values)

    @classmethod
    def _adopt(cls, config: LatticeConfig, values: np.ndarray) -> "GridFunction":
        """The GridFunction holding `values` itself, not a copy, when it is
        a float array: for arrays made by the caller that nothing else
        holds, so no kernel pays a copy of its own output."""
        f = cls.__new__(cls)
        f._hold(config, np.asarray(values, dtype=float))
        return f

    def _hold(self, config: LatticeConfig, values: np.ndarray) -> None:
        values = values.reshape(-1)
        if values.size != config.num_cells:
            raise ValueError(f"expected {config.num_cells} leaf values, got {values.size}")
        if not np.isfinite(values).all():
            raise ValueError("leaf values must be finite, got NaN or inf")
        self.config = config
        self.values = values
        self.values.flags.writeable = False

    @property
    def grid(self) -> np.ndarray:
        """Read-only view shaped (2^L,)*n, coordinate axes in order."""
        return self.values.reshape(self.config.grid_shape)

    def is_indicator(self) -> bool:
        return bool(np.all((self.values == 0.0) | (self.values == 1.0)))

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.values >= 0.0))

    def restrict(self, q: CubeId) -> np.ndarray:
        """The leaf values inside cube q (a view of the grid)."""
        return self.grid[cube_slices(self.config, q)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GridFunction)
            and self.config == other.config
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        c = self.config
        return f"GridFunction(n={c.n}, L={c.L}, d={c.d}, {c.num_cells} cells)"

    @classmethod
    def constant(cls, config: LatticeConfig, c: float) -> "GridFunction":
        return cls._adopt(config, np.full(config.num_cells, float(c)))

    @classmethod
    def zeros(cls, config: LatticeConfig) -> "GridFunction":
        return cls.constant(config, 0.0)

    # --- file formats ------------------------------------------------

    def to_json(self) -> str:
        c = self.config
        return json.dumps({"n": c.n, "L": c.L, "d": c.d, "values": self.values.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "GridFunction":
        """A JSON object with integer n and L, a number d and a flat list of
        numbers as values; anything else is a ValueError naming the field.
        JSON true/false are not numbers here, though Python's bool is an int."""
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object with n, L, d and values, got a JSON {type(obj).__name__}")
        for field in ("n", "L", "d", "values"):
            if field not in obj:
                raise ValueError(f"missing field {field!r}")
        for field in ("n", "L"):
            if type(obj[field]) is not int:  # 2.9 would truncate
                raise ValueError(f"{field} must be a JSON integer, got {json.dumps(obj[field])}")
        if type(obj["d"]) not in (int, float):
            raise ValueError(f"d must be a JSON number, got {json.dumps(obj['d'])}")
        values = obj["values"]
        if type(values) is not list or not set(map(type, values)) <= {int, float}:
            raise ValueError("values must be a flat JSON list of numbers")
        try:
            return cls(LatticeConfig(obj["n"], obj["L"], float(obj["d"])), values)
        except OverflowError:  # a JSON integer d beyond the float range
            raise ValueError("d must be within the float range") from None

    def to_csv(self, path) -> None:
        """CSV alternative: one leaf value per row, row-major leaf order."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for v in self.values:
                w.writerow([repr(float(v))])

    @classmethod
    def from_csv(cls, path, config: LatticeConfig) -> "GridFunction":
        """One number per non-empty row; anything else is a ValueError
        naming the 1-based row."""
        vals = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                for i, row in enumerate(reader, 1):
                    if not row:
                        continue
                    try:
                        (v,) = row
                        vals.append(float(v))
                    except ValueError:
                        raise ValueError(f"row {i}: expected one number, got {','.join(row)!r}") from None
            except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
                raise ValueError(f"row {reader.line_num}: {exc}") from None
        return cls(config, vals)


def indicator(config: LatticeConfig, cubes) -> GridFunction:
    """Indicator of a union of lattice cubes."""
    masks = level_masks(config, [cubes] if isinstance(cubes, CubeId) else cubes)
    return GridFunction._adopt(config, (paint(masks, [1] * len(masks)) > 0).astype(float))


def measure_of_cube(mu: GridFunction, q: CubeId) -> float:
    """Total mass of the density mu inside q: sum of cell values times cell volume."""
    if not mu.is_nonnegative():
        raise ValueError("density has negative cell values")
    return float(mu.restrict(q).sum() * mu.config.cell_volume)


@dataclass(frozen=True)
class _CubeSet:
    """A set of `CubeId`s, iterated in (level, index) order; any other member is a ValueError."""

    cubes: frozenset[CubeId]

    def __init__(self, cubes):
        try:
            cubes = frozenset(cubes)
        except TypeError as exc:  # not iterable, or an unhashable member
            raise ValueError(f"cubes must be an iterable of CubeId: {exc}") from None
        for q in cubes:
            if not isinstance(q, CubeId):
                raise ValueError(f"cubes must be CubeId instances, got {q!r}")
        object.__setattr__(self, "cubes", cubes)

    def __iter__(self):
        return iter(sorted(self.cubes, key=lambda q: (q.level, q.index)))

    def __len__(self):
        return len(self.cubes)


@dataclass(frozen=True, init=False)
class Tiling(_CubeSet):
    """A partition of the root cube into dyadic cubes."""


@dataclass(frozen=True)
class TilingReport:
    ok: bool
    cell: tuple[int, ...] | None = None  # a witness leaf cell on failure
    coverage: int | None = None  # how many cubes cover the witness cell

    @property
    def kind(self) -> str | None:
        if self.ok:
            return None
        return "under-covered" if self.coverage == 0 else "over-covered"


def validate_tiling(config: LatticeConfig, t: Tiling) -> TilingReport:
    """Accept iff the cubes cover every leaf cell exactly once."""
    return validate_masks(level_masks(config, t.cubes))


def validate_masks(masks: list[np.ndarray]) -> TilingReport:
    """`validate_tiling` for a cube set already held as `level_masks`."""
    counts = paint(masks, [1] * len(masks))
    bad = np.argwhere(counts != 1)
    if bad.size == 0:
        return TilingReport(ok=True)
    cell = tuple(int(x) for x in bad[0])
    return TilingReport(ok=False, cell=cell, coverage=int(counts[cell]))
