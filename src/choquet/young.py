"""Young functions, complementary functions, and Luxemburg norms.

Built-ins: identity t, powers t^p, t*log(e+t), and e^t - 1.  Each built-in
registers a closed-form complementary; `numeric_conjugate` provides the
grid-based Legendre transform for cross-checking and for Young functions
without a registered pair.

Extended-real values are first-class: a Young function may be +inf beyond
a finite threshold (the complementary of the identity is the canonical
example), and Phi-averages propagate +inf deterministically.
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
    """Bisection failed to bracket or converge; the Young function is malformed."""


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


def _phi_mean(phi: YoungFunction, vals: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Row-wise mean of Phi(vals / lam); +inf where any entry exceeds the
    finiteness threshold."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scaled = vals / lam[:, None]
        out = phi(scaled)
        mean = out.mean(axis=1)
    if np.isfinite(phi.finite_threshold):
        blown = (scaled > phi.finite_threshold).any(axis=1)
        mean = np.where(blown, np.inf, mean)
    return mean


def _luxemburg_rows(phi: YoungFunction, vals: np.ndarray) -> np.ndarray:
    """Luxemburg norm of each row of `vals` (nonnegative), via monotone
    bisection on lambda -> mean Phi(vals/lambda)."""
    vals = np.abs(vals)
    mx = vals.max(axis=1)
    out = np.zeros(vals.shape[0])
    active = mx > 0.0
    if not active.any():
        return out
    v = vals[active]
    start = mx[active]

    hi = start.copy()
    for _ in range(_LUX_MAX_STEPS):
        over = _phi_mean(phi, v, hi) > 1.0
        if not over.any():
            break
        hi[over] *= 2.0
    else:
        raise LuxemburgConvergenceError("failed to bracket from above")

    lo = np.minimum(start, hi) / 2.0
    for _ in range(_LUX_MAX_STEPS):
        under = _phi_mean(phi, v, lo) <= 1.0
        if not under.any():
            break
        lo[under] /= 2.0
    else:
        raise LuxemburgConvergenceError("failed to bracket from below")

    for _ in range(_LUX_MAX_STEPS):
        if np.all(hi - lo <= _LUX_REL_TOL * hi):
            break
        mid = 0.5 * (lo + hi)
        ok = _phi_mean(phi, v, mid) <= 1.0
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    else:
        raise LuxemburgConvergenceError("bisection did not converge in 200 steps")

    out[active] = hi
    return out


def luxemburg_norm(f: GridFunction, q: CubeId, phi: YoungFunction) -> float:
    """The Phi-average over q: inf{lam > 0 : mean of Phi(|f|/lam) over q <= 1}."""
    vals = f.restrict(q).reshape(1, -1)
    return float(_luxemburg_rows(phi, vals)[0])


def luxemburg_norm_table(f: GridFunction, phi: YoungFunction) -> list[np.ndarray]:
    """Luxemburg norms of f over every lattice cube, one flat array per
    level (C order of the cube index).  Cached per (function, phi name):
    GridFunction values are immutable, so the table never goes stale."""
    cache = f.__dict__.setdefault("_lux_tables", {})
    if phi.name not in cache:
        grid = np.abs(f.grid)
        cache[phi.name] = [_luxemburg_rows(phi, cube_blocks(grid, k)) for k in range(f.config.L + 1)]
    return cache[phi.name]


def phi_average(f: GridFunction, q: CubeId, phi: YoungFunction, lam: float) -> float:
    """Mean of Phi(|f|/lam) over q, with deterministic +inf propagation."""
    vals = np.abs(f.restrict(q)).reshape(1, -1)
    return float(_phi_mean(phi, vals, np.array([lam]))[0])


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
            means = phi(vals[None, :] / s[:, None]).mean(axis=1)
            if np.isfinite(phi.finite_threshold):
                blown = (vals[None, :] / s[:, None] > phi.finite_threshold).any(axis=1)
                means = np.where(blown, np.inf, means)
            obj = s * (1.0 + means)
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
