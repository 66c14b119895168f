"""Young functions, complementary functions, and Luxemburg norms.

Built-ins: identity t, powers t^p, t*log(e+t), and e^t - 1.  Each built-in
registers a closed-form complementary; `numeric_conjugate` provides the
grid-based Legendre transform for cross-checking and for Young functions
without a registered pair.

Extended-real values are first-class: a Young function may be +inf beyond
a finite threshold (the complementary of the identity is the canonical
example), and Phi-averages propagate +inf deterministically.

Luxemburg norms inf{lam : mean Phi(|f|/lam) <= 1} have one solver behind
`luxemburg_norm`, `luxemburg_norm_table` and `amemiya_functional`.  It uses
closed forms for the identity, powers and their conjugates (the mean, the
max, (mean |f|^p)^(1/p)), and for every other Phi a Newton iteration on
s -> mean Phi(s|f|) inside a bisection bracket.  Each row stops on its own,
so a cube's norm does not depend on which cubes share its batch.
"""

from __future__ import annotations

from functools import lru_cache

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
    "numeric_conjugate",
    "complementary",
    "by_name",
    "luxemburg_norm",
    "luxemburg_norm_table",
    "phi_average",
    "young_equality_residual",
    "check_delta2",
    "check_nabla2",
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


class Identity(YoungFunction):
    name = "identity"

    def __call__(self, t):
        return np.asarray(t, dtype=float)

    def deriv(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def complementary(self):
        return IdentityConjugate()


class IdentityConjugate(YoungFunction):
    """Conjugate of t: zero on [0,1], +inf beyond."""

    name = "conjugate:identity"
    finite_threshold = 1.0

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


class Power(YoungFunction):
    """Phi(t) = t^p, 1 < p < inf."""

    def __init__(self, p: float):
        if not 1.0 < p < np.inf:
            raise ValueError(f"power exponent must lie in (1, inf), got {p}")
        self.p = float(p)
        self.name = f"power:{self.p:g}"

    def __call__(self, t):
        return np.asarray(t, dtype=float) ** self.p

    def deriv(self, t):
        return self.p * np.asarray(t, dtype=float) ** (self.p - 1.0)

    def complementary(self):
        return PowerConjugate(self.p)


class PowerConjugate(YoungFunction):
    """Conjugate of t^p: (p-1) p^(-p') s^(p'), p' = p/(p-1)."""

    def __init__(self, p: float):
        self.p = float(p)
        self.pprime = p / (p - 1.0)
        self.coeff = (p - 1.0) * p**-self.pprime
        self.name = f"conjugate:power:{self.p:g}"

    def __call__(self, t):
        return self.coeff * np.asarray(t, dtype=float) ** self.pprime

    def deriv(self, t):
        return self.coeff * self.pprime * np.asarray(t, dtype=float) ** (self.pprime - 1.0)

    def complementary(self):
        return Power(self.p)


class LlogL(YoungFunction):
    """Phi(t) = t log(e + t)."""

    name = "llogl"

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore"):
            out = t * np.log(np.e + t)
        return np.where(np.isinf(t), np.inf, out)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        return np.log(np.e + t) + t / (np.e + t)

    def complementary(self):
        # Canonical pairing used throughout: e^t - 1.  The exact conjugate
        # differs from it on t <= 1; use numeric_conjugate(LlogL()) for a
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
        t = np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            val = t * np.log(t) - t + 1.0
        return np.where(t <= 1.0, 0.0, val)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(t <= 1.0, 0.0, np.log(t))

    def complementary(self):
        return ExpM1()


class NumericConjugate(YoungFunction):
    """Grid Legendre transform: sup over s in [2^-40, 2^40] of ts - Phi(s),
    locally refined by ternary search to relative tolerance 1e-8."""

    _GRID = np.exp2(np.linspace(-40.0, 40.0, 641))  # 8 points per octave

    def __init__(self, phi: YoungFunction):
        self.phi = phi
        self.name = f"conjugate:{phi.name}"
        self._eval_scalar = lru_cache(maxsize=None)(self._eval_uncached)

    def _objective(self, t: float, s: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            val = t * s - self.phi(s)
        return np.where(np.isnan(val), -np.inf, val)

    def _eval_uncached(self, t: float) -> float:
        if t == 0.0:
            return 0.0
        vals = self._objective(t, self._GRID)
        best = int(np.argmax(vals))
        base = max(0.0, float(vals[best]))
        lo = self._GRID[max(best - 1, 0)]
        hi = self._GRID[min(best + 1, len(self._GRID) - 1)]
        # ternary refinement on the unimodal objective
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            v1 = float(self._objective(t, np.array([m1]))[0])
            v2 = float(self._objective(t, np.array([m2]))[0])
            if v1 < v2:
                lo = m1
            else:
                hi = m2
            if hi - lo <= 1e-9 * hi:
                break
        mid = 0.5 * (lo + hi)
        return max(base, float(self._objective(t, np.array([mid]))[0]), 0.0)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        out = np.array([self._eval_scalar(float(x)) for x in flat])
        return out.reshape(t.shape)

    def deriv(self, t, h: float = 1e-6):
        t = np.asarray(t, dtype=float)
        return (self(t + h) - self(np.maximum(t - h, 0.0))) / (2.0 * h)

    def _cache_key(self):
        return type(self), self.phi._cache_key()


def numeric_conjugate(phi: YoungFunction) -> NumericConjugate:
    return NumericConjugate(phi)


def complementary(phi: YoungFunction) -> YoungFunction:
    return phi.complementary()


def by_name(name: str) -> YoungFunction:
    """Resolve CLI/config names: identity, power:p, llogl, expm1, conjugate:<name>."""
    if name == "identity":
        return Identity()
    if name == "llogl":
        return LlogL()
    if name == "expm1":
        return ExpM1()
    if name.startswith("power:"):
        return Power(float(name.split(":", 1)[1]))
    if name.startswith("conjugate:"):
        return by_name(name.split(":", 1)[1]).complementary()
    raise ValueError(f"unknown Young function {name!r}")


def _phi_mean(phi: YoungFunction, scaled: np.ndarray) -> np.ndarray:
    """Row-wise mean of Phi(scaled); +inf where any entry exceeds the
    finiteness threshold."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mean = phi(scaled).mean(axis=1)
    if np.isfinite(phi.finite_threshold):
        mean = np.where((scaled > phi.finite_threshold).any(axis=1), np.inf, mean)
    return mean


# The norm of each row w of a batch whose largest entry is 1, for the Young
# functions where mean Phi(w / lam) = 1 solves in closed form.  Keyed on the
# exact type: a subclass may override Phi and goes to the iterative solver.
_CLOSED_FORMS = {
    Identity: lambda phi, w: w.mean(axis=1),
    IdentityConjugate: lambda phi, w: np.ones(w.shape[0]),
    Power: lambda phi, w: (w**phi.p).mean(axis=1) ** (1.0 / phi.p),
    PowerConjugate: lambda phi, w: (phi.coeff * (w**phi.pprime).mean(axis=1)) ** (1.0 / phi.pprime),
}


def _unit_roots(phi: YoungFunction, w: np.ndarray) -> np.ndarray:
    """The s > 0 with G(s) = mean Phi(s w) = 1 on each row w (largest entry 1).

    G is convex and nondecreasing.  A Newton step from a point with G > 1
    moves down to the root without passing it, and one from a point with
    G <= 1 lands at or beyond the root, so the iterates fall monotonically
    after the first step across.  Each iterate narrows a bracket [lo, hi],
    which starts as [0, inf].  The step doubles s, halves it or bisects the
    bracket instead when the Newton step is not finite, leaves the bracket,
    more than doubles s, or is over half the step before last (so a slow
    linear phase, as for e^t far right of the root, still halves the
    bracket), and always when Phi has no `deriv`.  A row leaves the active
    set once its step or its bracket is within the tolerance, so its answer
    depends on its own values alone."""
    out = np.empty(w.shape[0])
    idx = np.arange(w.shape[0])
    s = np.ones(w.shape[0])
    lo, hi = np.zeros_like(s), np.full_like(s, np.inf)
    last, before_last = hi.copy(), hi.copy()
    newton = True
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_LUX_MAX_STEPS):
            x = s[:, None] * w
            g = _phi_mean(phi, x) - 1.0
            over = g > 0.0
            lo, hi = np.where(over, lo, s), np.where(over, s, hi)
            new = np.where(np.isinf(hi), 2.0 * lo, 0.5 * (lo + hi))
            if newton:
                try:
                    dphi = phi.deriv(x)
                except NotImplementedError:
                    newton = False
                else:
                    slope = (w * dphi).mean(axis=1)
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
                idx, w, s, lo, hi = idx[keep], w[keep], s[keep], lo[keep], hi[keep]
                last, before_last = last[keep], before_last[keep]
    if np.isinf(hi).any() or not lo.all():
        raise LuxemburgConvergenceError("failed to bracket the root")
    raise LuxemburgConvergenceError(f"root not found in {_LUX_MAX_STEPS} steps")


def _luxemburg_rows(phi: YoungFunction, vals: np.ndarray) -> np.ndarray:
    """Luxemburg norm of each row of `vals`.  Each row is divided by its
    largest |entry| m first, so no power overflows; the norm is m times the
    closed form, or m / s with s from `_unit_roots`."""
    vals = np.abs(vals)
    mx = vals.max(axis=1)
    out = np.zeros(vals.shape[0])
    active = mx > 0.0
    if active.any():
        m = mx[active]
        w = vals[active] / m[:, None]
        closed = _CLOSED_FORMS.get(type(phi))
        out[active] = m / _unit_roots(phi, w) if closed is None else m * closed(phi, w)
    return out


def luxemburg_norm(f: GridFunction, q: CubeId, phi: YoungFunction) -> float:
    """The Phi-average over q: inf{lam > 0 : mean of Phi(|f|/lam) over q <= 1}."""
    vals = f.restrict(q).reshape(1, -1)
    return float(_luxemburg_rows(phi, vals)[0])


def luxemburg_norm_table(f: GridFunction, phi: YoungFunction) -> list[np.ndarray]:
    """Luxemburg norms of f over every lattice cube, one flat array per
    level (C order of the cube index), each `==` to `luxemburg_norm` on
    that cube.  Cached per (function, phi._cache_key()): GridFunction values
    are immutable, so the table never goes stale."""
    cache = f.__dict__.setdefault("_lux_tables", {})
    key = phi._cache_key()
    if key not in cache:
        grid = np.abs(f.grid)
        cache[key] = [_luxemburg_rows(phi, cube_blocks(grid, k)) for k in range(f.config.L + 1)]
    return cache[key]


def phi_average(f: GridFunction, q: CubeId, phi: YoungFunction, lam: float) -> float:
    """Mean of Phi(|f|/lam) over q, with deterministic +inf propagation."""
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.abs(f.restrict(q)).reshape(1, -1) / lam
    return float(_phi_mean(phi, scaled)[0])


def young_equality_residual(phi: YoungFunction, t: float, phibar: YoungFunction | None = None) -> float:
    """|t Phi'(t) - Phi(t) - Phibar(Phi'(t))|, the dual-equation residual."""
    if phibar is None:
        phibar = phi.complementary()
    t = float(t)
    s = float(phi.deriv(np.array([t]))[0])
    lhs = t * s
    rhs = float(phi(np.array([t]))[0]) + float(phibar(np.array([s]))[0])
    if not np.isfinite(lhs) or not np.isfinite(rhs):
        raise ValueError(f"{phi.name} is not finite/differentiable at t={t}")
    return abs(lhs - rhs)


_PROBE_GRID = np.exp2(np.linspace(-20.0, 20.0, 401))


def check_delta2(phi: YoungFunction) -> dict:
    """Probe Phi(2t) <= K Phi(t) on a geometric grid.  Returns the estimated
    K when bounded by 2^20, otherwise a witness t."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = phi(2.0 * _PROBE_GRID) / phi(_PROBE_GRID)
    ratio = np.where(np.isnan(ratio), np.inf, ratio)
    worst = float(np.max(ratio))
    if worst <= 2.0**20:
        return {"holds": True, "K": worst}
    return {"holds": False, "witness": float(_PROBE_GRID[int(np.argmax(ratio))])}


def check_nabla2(phi: YoungFunction, t_min: float = 0.0) -> dict:
    """Search K in {2, 4, ..., 2^20} with Phi(t) <= Phi(Kt)/(2K) on the grid.

    Functions with Phi'(0) > 0 (e^t - 1 among them) fail the global
    condition near 0 but may satisfy the large-argument variant; pass
    t_min to probe only t >= t_min.
    """
    grid = _PROBE_GRID[_PROBE_GRID >= t_min]
    base = phi(grid)
    K = 2.0
    while K <= 2.0**20:
        with np.errstate(over="ignore", invalid="ignore"):
            bound = phi(K * grid) / (2.0 * K)
        if np.all(base <= bound):
            return {"holds": True, "K": K}
        K *= 2.0
    return {"holds": False}


def amemiya_functional(g: GridFunction, q: CubeId, phi: YoungFunction, points: int = 2000) -> float:
    """Dense-scan approximation of inf_s s(1 + mean of Phi(|g|/s) over q).

    Sandwiches the Luxemburg norm between itself and twice itself.
    """
    vals = np.abs(g.restrict(q)).reshape(-1)
    if not vals.any():
        return 0.0
    center = float(_luxemburg_rows(phi, vals.reshape(1, -1))[0])
    def objective(s: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            obj = s * (1.0 + _phi_mean(phi, vals[None, :] / s[:, None]))
        return np.where(np.isnan(obj), np.inf, obj)

    s_grid = center * np.exp2(np.linspace(-10.0, 10.0, points))
    obj = objective(s_grid)
    best = int(np.argmin(obj))
    lo = s_grid[max(best - 1, 0)]
    hi = s_grid[min(best + 1, points - 1)]
    # the objective is convex in s (perspective of Phi plus a linear term)
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
