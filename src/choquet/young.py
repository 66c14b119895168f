"""Young functions, complementary functions, and Luxemburg norms.

Built-ins: identity t, powers t^p, t*log(e+t), and e^t - 1.  Each built-in
registers a closed-form complementary; `NumericConjugate` provides the
grid-based Legendre transform for cross-checking and for Young functions
without a registered pair.  The identity, the powers and their conjugates
are power forms Phi = c t^r: each declares (c, r) on `_PowerForm`, which
writes Phi and Phi' once.  The identity's conjugate keeps its own Phi and
Phi' and declares r = inf.

Extended-real values are first-class: a Young function may be +inf beyond
a finite threshold (the complementary of the identity is the canonical
example), and Phi-averages propagate +inf deterministically.

Luxemburg norms inf{lam : mean Phi(|f|/lam) <= 1} have one solver behind
`luxemburg_norm`, `luxemburg_norm_table` and `amemiya_functional`: 2-D
row blocks streamed in (a cube, table levels, a dual witness's tiles,
the candidate cubes of a sup norm) and grouped into solves of at most
`_LUX_GROUP_ENTRIES` entries, one read-only array of row norms per block
out; a group's rows are segments of one flat array, summed by
`np.add.reduceat`.  For the four power-form types (the exact types: a
subclass may override Phi) both norms are closed forms in (phi.c,
phi.r); every other Phi takes a Newton iteration on s -> mean Phi(s|f|)
inside a bisection bracket, or bisection alone when Phi's class defines
no `deriv` (decided once per solve).  Each row stops on its own and sums
its own entries only, so a cube's norm does not depend on which rows
share its solve: a table (one array per level, shaped like `pyramid`'s)
and any set of cubes solved together equal the single-cube values.  Phi
and Phi' at the same points come from one `value_and_deriv` call, so
t log(e + t) takes one log.  The Amemiya norm inf_s s(1 + mean
Phi(|f|/s)) solves the same way for Psi = t Phi' - Phi.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .lattice import CubeId, GridFunction, cube_blocks

__all__ = [
    "YoungFunction",
    "Identity",
    "Power",
    "PowerConjugate",
    "LlogL",
    "ExpM1",
    "ExpM1Conjugate",
    "IdentityConjugate",
    "NumericConjugate",
    "by_name",
    "luxemburg_norm",
    "luxemburg_norm_table",
    "phi_average",
    "young_equality_residual",
    "amemiya_functional",
]

_LUX_REL_TOL = 1e-10
_LUX_MAX_STEPS = 200


class LuxemburgConvergenceError(RuntimeError):
    """The root search failed to bracket or converge; the Young function is malformed."""


class YoungFunction:
    """Convex, nondecreasing, left-continuous Phi with Phi(0)=0, Phi(inf)=inf."""

    name = "young"
    finite_threshold = np.inf  # sup{t : Phi(t) < inf}

    def __call__(self, t):
        raise NotImplementedError

    def deriv(self, t):
        """Right-derivative Phi'(t)."""
        raise NotImplementedError(f"{self.name} has no registered derivative")

    def value_and_deriv(self, t):
        """(Phi(t), Phi'(t)), each `==` its own call; a subclass shares the
        work the two have in common."""
        return self(t), self.deriv(t)

    def complementary(self) -> "YoungFunction":
        """The convex conjugate sup{ts - Phi(s)}."""
        return NumericConjugate(self)

    def __repr__(self):
        return f"<YoungFunction {self.name}>"

    def _cache_key(self):
        """Type and parameters, for caches: `name` rounds the parameters for
        display.  An instance with an unhashable attribute is its own key."""
        params = tuple(sorted((k, v) for k, v in vars(self).items() if k != "name"))
        try:
            hash(params)
        except TypeError:
            return self
        return type(self), params


def _power_exponent(p) -> float:
    if not 1.0 < p < np.inf:
        raise ValueError(f"power exponent must lie in (1, inf), got {p}")
    return float(p)


class _PowerForm(YoungFunction):
    """Phi(t) = c t^r, with c and r declared by each subclass.  The exact
    types in `_POWER_FORMS` have both norms in closed form in (c, r)."""

    def __call__(self, t):
        return self.c * np.asarray(t, dtype=float) ** self.r

    def deriv(self, t):
        return self.c * self.r * np.asarray(t, dtype=float) ** (self.r - 1.0)


class Identity(_PowerForm):
    name = "identity"
    c, r = 1.0, 1.0

    def complementary(self):
        return IdentityConjugate()


class IdentityConjugate(YoungFunction):
    """Conjugate of t: zero on [0,1], +inf beyond; the power form r = inf."""

    name = "conjugate:identity"
    finite_threshold = 1.0
    c, r = 1.0, np.inf

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= 1.0, 0.0, np.inf)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t >= 1.0):
            raise ValueError("conjugate of identity is not differentiable at or beyond t=1")
        return np.zeros_like(t)

    def complementary(self):
        return Identity()


class Power(_PowerForm):
    """Phi(t) = t^p, 1 < p < inf."""

    c = 1.0

    def __init__(self, p: float):
        self.p = self.r = _power_exponent(p)
        self.name = f"power:{self.p:g}"

    def complementary(self):
        return PowerConjugate(self.p)


class PowerConjugate(_PowerForm):
    """Conjugate of t^p, 1 < p < inf: (p-1) p^(-p') s^(p'), p' = p/(p-1)."""

    def __init__(self, p: float):
        self.p = _power_exponent(p)
        self.r = self.p / (self.p - 1.0)
        self.c = (self.p - 1.0) * self.p**-self.r
        self.name = f"conjugate:power:{self.p:g}"

    def complementary(self):
        return Power(self.p)


class LlogL(YoungFunction):
    """Phi(t) = t log(e + t)."""

    name = "llogl"

    def __call__(self, t):
        # on [0, inf] no step is invalid, and t = inf gives inf * inf = inf
        t = np.asarray(t, dtype=float)
        return t * np.log(np.e + t)

    def deriv(self, t):
        # t / (e + t) is inf / inf at t = inf, where its limit is 1
        t = np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore"):
            ratio = t / (np.e + t)
        return np.log(np.e + t) + np.where(np.isinf(t), 1.0, ratio)

    def value_and_deriv(self, t):
        # the operations of both calls, on two arrays: + and * commute exactly;
        # e + t is a NumPy scalar on a 0-d t, so it is made an array to write to
        t = np.asarray(t, dtype=float)
        deriv = np.asarray(np.e + t)
        value = np.log(deriv)
        with np.errstate(invalid="ignore"):
            np.divide(t, deriv, out=deriv)
        np.putmask(deriv, np.isinf(t), 1.0)
        deriv += value
        value *= t
        return value, deriv

    def complementary(self):
        # Canonical pairing used throughout: e^t - 1.  The exact conjugate
        # differs from it on t <= 1; use NumericConjugate(LlogL()) for a
        # two-sided comparison.
        return ExpM1()


class ExpM1(YoungFunction):
    """Phi(t) = e^t - 1, paired with t log(e + t)."""

    name = "expm1"

    def __call__(self, t):
        with np.errstate(over="ignore"):
            return np.expm1(np.asarray(t, dtype=float))

    def deriv(self, t):
        with np.errstate(over="ignore"):
            return np.exp(np.asarray(t, dtype=float))

    def complementary(self):
        return ExpM1Conjugate()


class ExpM1Conjugate(YoungFunction):
    """Exact conjugate of e^t - 1: s log s - s + 1 on s >= 1, zero below."""

    name = "conjugate:expm1"

    def __call__(self, t):
        # t log t - t is inf - inf at t = inf, where the conjugate is inf
        t = np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            val = t * np.log(t) - t + 1.0
        val = np.where(t <= 1.0, 0.0, val)
        np.putmask(val, np.isinf(t), np.inf)
        return val

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(t <= 1.0, 0.0, np.log(t))

    def complementary(self):
        return ExpM1()


class NumericConjugate(YoungFunction):
    """Grid Legendre transform: sup over s in [2^-40, 2^40] of ts - Phi(s),
    locally refined by ternary search to relative tolerance 1e-9.  A pure
    function: a call solves its distinct nonzero arguments together, each
    stopping on its own; the maximiser is the derivative, (Phi*)' = (Phi')^-1."""

    _GRID = np.exp2(np.linspace(-40.0, 40.0, 641))  # 8 points per octave

    def __init__(self, phi: YoungFunction):
        self.phi = phi
        self.name = f"conjugate:{phi.name}"
        # Phi is convex, so its chord slopes are nondecreasing (+inf where Phi
        # is); ts - Phi(s) rises from grid point j to j+1 iff t > slope j.
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = np.diff(phi(self._GRID)) / np.diff(self._GRID)
        self._slopes = np.where(np.isnan(slopes), np.inf, slopes)

    def _objective(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        """ts - Phi(s), -inf where that is NaN; under the caller's errstate."""
        return np.fmax(t * s - self.phi(s), -np.inf)

    def _grid_argmax(self, t: np.ndarray) -> np.ndarray:
        """The first grid index maximising ts - Phi(s) at each argument t:
        the number of chord slopes below t."""
        return np.searchsorted(self._slopes, t)

    def _solve(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Value and maximiser at each argument t."""
        grid, top = self._GRID, len(self._GRID) - 1
        best = self._grid_argmax(t)
        lo, hi = grid[np.maximum(best - 1, 0)], grid[np.minimum(best + 1, top)]
        lo_out, hi_out = lo.copy(), hi.copy()
        idx, tt = np.arange(len(t)), t
        with np.errstate(over="ignore", invalid="ignore"):
            best_val = self._objective(t, grid[best])
            # ternary refinement on the unimodal objective, both thirds in one call
            for _ in range(200):
                third = (hi - lo) / 3.0
                m = np.concatenate((lo + third, hi - third)).reshape(2, -1)
                val = self._objective(tt, m)
                left = val[0] < val[1]
                lo, hi = np.where(left, m[0], lo), np.where(left, hi, m[1])
                done = hi - lo <= 1e-9 * hi
                finished = np.count_nonzero(done)
                if finished:
                    lo_out[idx[done]], hi_out[idx[done]] = lo[done], hi[done]
                    if finished == len(done):
                        break
                    keep = ~done
                    idx, tt, lo, hi = idx[keep], tt[keep], lo[keep], hi[keep]
            mid = 0.5 * (lo_out + hi_out)
            mid_val = self._objective(t, mid)
        base = np.maximum(best_val, 0.0)
        value = np.maximum(base, mid_val)
        arg = np.where(mid_val >= base, mid, np.where(best_val > 0.0, grid[best], 0.0))
        return value, arg

    def _lookup(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Value and maximiser at each entry of t, both 0 at t = 0: each
        distinct nonzero entry is solved once."""
        t = np.asarray(t, dtype=float)
        uniq, inv = np.unique(t.reshape(-1), return_inverse=True)
        value, arg = np.zeros_like(uniq), np.zeros_like(uniq)
        nonzero = uniq != 0.0
        value[nonzero], arg[nonzero] = self._solve(uniq[nonzero])
        inv = inv.reshape(-1)
        return value[inv].reshape(t.shape), arg[inv].reshape(t.shape)

    def __call__(self, t):
        return self._lookup(t)[0]

    def deriv(self, t):
        return self._lookup(t)[1]

    def value_and_deriv(self, t):
        return self._lookup(t)

    def _cache_key(self):
        return type(self), self.phi._cache_key()


def by_name(name: str) -> YoungFunction:
    """Resolve CLI/config names: identity, power:p, llogl, expm1, conjugate:<name>.
    The conjugate: prefixes are stripped in a loop, so any number resolves."""
    depth = 0
    while name.startswith("conjugate:"):
        name, depth = name[len("conjugate:"):], depth + 1
    if name == "identity":
        phi = Identity()
    elif name == "llogl":
        phi = LlogL()
    elif name == "expm1":
        phi = ExpM1()
    elif name.startswith("power:"):
        phi = Power(float(name.split(":", 1)[1]))
    else:
        raise ValueError(f"unknown Young function {name!r}")
    for _ in range(depth):
        phi = phi.complementary()
    return phi


def _phi_means(phi: YoungFunction, x: np.ndarray, phix: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Mean of phix = Phi(x) over each segment of the flat array x (segment
    i starts at starts[i] and has lens[i] entries); +inf on a segment with
    an entry beyond the finiteness threshold."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mean = np.add.reduceat(phix, starts) / lens
    if np.isfinite(phi.finite_threshold):
        mean[np.logical_or.reduceat(x > phi.finite_threshold, starts)] = np.inf
    return mean


def _phi_mean(phi: YoungFunction, x: np.ndarray) -> float:
    """`_phi_means` over all of x as one segment."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        phix = phi(x)
    return float(_phi_means(phi, x, phix, np.zeros(1, dtype=int), np.array([x.size]))[0])


# The exact types whose norms are read off (phi.c, phi.r) in closed form: a
# subclass may override Phi, so it goes to the iterative solver.
_POWER_FORMS = (Identity, Power, PowerConjugate, IdentityConjugate)


def _step_means(phi: YoungFunction, w: np.ndarray, s: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                newton: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """G(s) - 1 = mean Phi(s w) - 1 on each segment and, with `newton` (set
    once per solve from Phi's class), its slope mean w Phi'(s w) from the
    same `value_and_deriv` call, else None.  The per-entry arrays of a step
    live in this frame alone, so they are freed before the next step's."""
    x = np.repeat(s, lens)
    x *= w
    if not newton:
        return _phi_means(phi, x, phi(x), starts, lens) - 1.0, None
    phix, dphi = phi.value_and_deriv(x)
    g = _phi_means(phi, x, phix, starts, lens) - 1.0
    del x, phix  # the slope's product reuses their memory
    return g, np.add.reduceat(w * dphi, starts) / lens


def _unit_roots(phi: YoungFunction, w: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The s > 0 with G(s) = mean Phi(s w) = 1 on each segment w of the flat
    array `w` (segment i has lens[i] entries, the largest of them 1).

    G is convex and nondecreasing.  A Newton step from a point with G > 1
    moves down to the root without passing it, and one from a point with
    G <= 1 lands at or beyond the root, so the iterates fall monotonically
    after the first step across.  Each iterate narrows a bracket [lo, hi],
    which starts as [0, inf].  The step doubles s, halves it or bisects the
    bracket instead when the Newton step is not finite, leaves the bracket,
    more than doubles s, or is over half the step before last (so a slow
    linear phase, as for e^t far right of the root, still halves the
    bracket), and always when Phi's class defines no `deriv` of its own
    (decided before the first step).  A segment leaves the active set once
    its step or its bracket is within the tolerance.  Its sums are
    `reduceat` over its own entries, so its answer depends on its values
    alone, not on the segments solved beside it."""
    out = np.empty(len(lens))
    idx = np.arange(len(lens))
    starts = lens.cumsum() - lens
    s = np.ones(len(lens))
    lo, hi = np.zeros_like(s), np.full_like(s, np.inf)
    last, before_last = hi.copy(), hi.copy()
    newton = type(phi).deriv is not YoungFunction.deriv
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_LUX_MAX_STEPS):
            g, slope = _step_means(phi, w, s, starts, lens, newton)
            over = g > 0.0
            lo, hi = np.where(over, lo, s), np.where(over, s, hi)
            new = np.where(np.isinf(hi), 2.0 * lo, 0.5 * (lo + hi))
            if newton:
                cand = s - g / slope
                ok = ((slope > 0.0) & (slope < np.inf) & (cand > 0.0) & (cand >= lo)
                      & (cand <= np.minimum(hi, 2.0 * s)) & (np.abs(cand - s) <= 0.5 * before_last))
                new = np.where(ok, cand, new)
            step = np.abs(new - s)
            done = (step <= _LUX_REL_TOL * new) | (hi - lo <= _LUX_REL_TOL * lo)
            s, last, before_last = new, step, last
            if done.any():
                out[idx[done]] = s[done]
                keep = ~done
                if not keep.any():
                    return out
                w = w[np.repeat(keep, lens)]
                idx, lens, s, lo, hi = idx[keep], lens[keep], s[keep], lo[keep], hi[keep]
                last, before_last = last[keep], before_last[keep]
                starts = lens.cumsum() - lens
    if np.isinf(hi).any() or not lo.all():
        raise LuxemburgConvergenceError("failed to bracket the root")
    raise LuxemburgConvergenceError(f"root not found in {_LUX_MAX_STEPS} steps")


# Consecutive blocks share a solve up to this many entries: past that, one
# Newton step's arrays outgrow the CPU caches (ladder in `BENCH_23.json`).
_LUX_GROUP_ENTRIES = 2**14


def _luxemburg_rows(phi: YoungFunction, blocks) -> list[np.ndarray]:
    """Luxemburg norm of each row of each 2-D block read from the iterable
    `blocks`, one read-only array per block: consecutive blocks are solved
    together while they hold at most `_LUX_GROUP_ENTRIES` entries, a bigger
    block alone, so extra memory is one group plus the block just read."""
    out, group = [], []
    for block in blocks:
        if group and sum(b.size for b in group) + block.size > _LUX_GROUP_ENTRIES:
            out += _luxemburg_group(phi, group)
            group = []
        group.append(block)
    if group:
        out += _luxemburg_group(phi, group)
    return out


def _luxemburg_group(phi: YoungFunction, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """`_luxemburg_rows` on one group: every row is a segment of one flat
    copy of all the entries, solved together.  Each row is divided by its
    largest |entry| m first, so no power overflows.  For Phi = c t^r the
    norm is m (c mean w^r)^(1/r), and m itself at r = inf; otherwise it is
    m / s with s from `_unit_roots`.  c <= 1 in every power form, so only
    m / s can pass the float range: that is a ValueError, not inf."""
    rows = [len(b) for b in blocks]
    lens = np.array([b.shape[1] for b in blocks]).repeat(rows)
    # Each later copy of the entries is bound to `vals` and frees the one before.
    vals = np.concatenate(blocks, axis=None)
    np.abs(vals, out=vals)
    mx = np.maximum.reduceat(vals, lens.cumsum() - lens)
    out = np.zeros(len(lens))
    active = mx > 0.0
    if active.any():
        m = mx[active]
        vals = vals[np.repeat(active, lens)]
        lens = lens[active]
        vals /= np.repeat(m, lens)
        if type(phi) in _POWER_FORMS:
            c, r = phi.c, phi.r
            out[active] = m if np.isinf(r) else m * (c * np.add.reduceat(vals**r, lens.cumsum() - lens) / lens) ** (1.0 / r)
        else:
            # A one-entry row scales to [1]: solve the first one, copy it to the rest.
            single = np.flatnonzero(lens == 1)
            solve = np.ones(len(lens), dtype=bool)
            solve[single[1:]] = False
            unit = np.empty(len(lens))
            unit[solve] = _unit_roots(phi, vals[np.repeat(solve, lens)], lens[solve])
            unit[single] = unit[single[:1]]
            with np.errstate(over="ignore"):
                out[active] = m / unit
            if np.isinf(out).any():
                raise ValueError("Luxemburg norm beyond the float range")
    out.flags.writeable = False  # and so every block's view of it
    return [out[end - r : end] for r, end in zip(rows, accumulate(rows))]


def luxemburg_norm(f: GridFunction, q: CubeId, phi: YoungFunction) -> float:
    """The Phi-average over q: inf{lam > 0 : mean of Phi(|f|/lam) over q <= 1}."""
    return float(_luxemburg_rows(phi, [f.restrict(q).reshape(1, -1)])[0][0])


def luxemburg_norm_table(f: GridFunction, phi: YoungFunction) -> list[np.ndarray]:
    """Luxemburg norms of f over every lattice cube, one read-only array per
    level shaped (2^k,)*n like `pyramid`, each entry `==` to
    `luxemburg_norm` on that cube.  The levels stream through
    `_luxemburg_rows`, which groups them into solves.  Cached per
    (function, phi._cache_key()): a GridFunction owns its values, which
    are read-only, so the table never goes stale."""
    cache = f.__dict__.setdefault("_lux_tables", {})
    key = phi._cache_key()
    if key not in cache:
        norms = _luxemburg_rows(phi, (cube_blocks(f.grid, k) for k in range(f.config.L + 1)))
        cache[key] = [a.reshape((2**k,) * f.config.n) for k, a in enumerate(norms)]
    return cache[key]


def phi_average(f: GridFunction, q: CubeId, phi: YoungFunction, lam: float) -> float:
    """Mean of Phi(|f|/lam) over q, lam > 0, with deterministic +inf
    propagation."""
    if not lam > 0.0:
        raise ValueError(f"phi_average needs lam > 0, got {lam!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.abs(f.restrict(q)).reshape(-1) / lam
    return _phi_mean(phi, scaled)


def young_equality_residual(phi: YoungFunction, t: float, phibar: YoungFunction | None = None) -> float:
    """|t Phi'(t) - Phi(t) - Phibar(Phi'(t))|, the dual-equation residual
    at t >= 0."""
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"young_equality_residual needs t >= 0, got {t!r}")
    if phibar is None:
        phibar = phi.complementary()
    value, deriv = phi.value_and_deriv(np.array([t]))
    s = float(deriv[0])
    lhs = t * s
    rhs = float(value[0]) + float(phibar(np.array([s]))[0])
    if not np.isfinite(lhs) or not np.isfinite(rhs):
        raise ValueError(f"{phi.name} is not finite/differentiable at t={t}")
    return abs(lhs - rhs)


class _AmemiyaPsi(YoungFunction):
    """Psi(t) = t Phi'(t) - Phi(t), nondecreasing since Psi' = t Phi'', from
    one `value_and_deriv` call.  Its class defines no `deriv`, so
    `_unit_roots` bisects on it."""

    def __init__(self, phi: YoungFunction):
        self.phi = phi
        self.name = f"amemiya:{phi.name}"
        self.finite_threshold = phi.finite_threshold

    def __call__(self, t):
        value, deriv = self.phi.value_and_deriv(t)
        return t * deriv - value


def amemiya_functional(g: GridFunction, q: CubeId, phi: YoungFunction) -> float:
    """The Amemiya norm inf_s s(1 + mean of Phi(|g|/s) over q).

    The objective is convex in s with derivative 1 - mean Psi(|g|/s), where
    Psi(t) = t Phi'(t) - Phi(t) is nondecreasing, so the minimiser s* solves
    mean Psi(|g|/s*) = 1 (Rao-Ren, Theory of Orlicz Spaces, 1991): it is the
    Luxemburg norm of |g| for Psi, from the same solver.  The value lies
    between the Luxemburg norm and twice it; beyond the float range it is
    a ValueError, not inf.
    """
    vals = np.abs(g.restrict(q)).reshape(1, -1)
    m = float(vals.max())
    if m == 0.0:
        out = 0.0
    elif type(phi) not in _POWER_FORMS:
        s = float(_luxemburg_rows(_AmemiyaPsi(phi), [vals])[0][0])
        out = s * (1.0 + _phi_mean(phi, vals.reshape(-1) / s))
    else:
        # Phi = c t^r at w = |g| / m: the identity's Psi is 0 (the infimum is
        # the limit s -> 0, the mean), its conjugate's is 0 then +inf (the
        # minimum is at s = 1), and otherwise s* = ((r-1) c mean w^r)^(1/r)
        # gives s* r/(r-1).
        c, r = phi.c, phi.r
        w = vals / m
        if r == 1.0:
            out = m * float(np.mean(w))
        elif np.isinf(r):
            out = m
        else:
            out = m * (r / (r - 1.0) * ((r - 1.0) * c * float(np.mean(w**r))) ** (1.0 / r))
    if not np.isfinite(out):
        raise ValueError("Amemiya norm beyond the float range")
    return out
