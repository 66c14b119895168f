"""Verification suites: randomized and exhaustive checks of the content,
Orlicz, maximal, and sparse-operator inequalities, with deterministic
seeding and empirical-constant reporting.

Each suite is one row of the SUITES table: a seeded trial
(ctx, i) -> (ratio, payload), the bound it is asserted against and its
tolerance.  `run_suite` runs the trials and reports the worst ratio, with
that trial's payload as the counterexample when the bound fails.
Inequalities with an explicit constant are asserted against it;
equivalences whose constants are only cited elsewhere are recorded (bound
is None, status is pass as long as every trial is finite).  Composite
suites normalize each sub-check by its own tolerance, so their bound is 1.
The few suites whose report is not the worst ratio declare a `summary`.

Trials are generated from per-trial child seeds, so each trial is
independent of the others and of the order they run in.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .content import choquet_integral, choquet_norm, frostman_measure
from .lattice import (
    CubeId,
    GridFunction,
    LatticeConfig,
    Tiling,
    _require_count,
    children,
    coarsen,
    level_masks,
    paint,
    pyramid,
)
from .maximal import fractional_measure_maximal, hl_maximal, orlicz_fractional_maximal
from .sparse import (
    CantorConfig,
    SparseFamily,
    SparseReport,
    apply_sparse,
    cantor_content,
    cantor_family,
    cantor_lux_bound,
    unboundedness_demo,
    verify_sparse,
)
from .spaces import (
    SpaceSpec,
    _tiling_dp,
    associate_lower_bound,
    block_norm,
    dual_witness,
    enumerate_tilings,
    orlicz_morrey_norm,
    pairing,
)
from .young import (
    ExpM1,
    LlogL,
    NumericConjugate,
    Power,
    amemiya_functional,
    luxemburg_norm,
    luxemburg_norm_table,
    phi_average,
    young_equality_residual,
)

__all__ = ["VerificationReport", "run_suite", "random_instance", "SUITES"]

_DEFAULT_TOL = 1e-9
_LUX_TOL = 1e-8


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    trials: int
    L: int
    seed: int
    n: int
    d: float
    bound: float | None
    worst_ratio: float
    empirical_constant: float
    tolerance: float
    status: str  # "pass" | "fail"
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def _random_values(rng: np.random.Generator, cells: int) -> np.ndarray:
    """Mixture law: uniform, lacunary (2^-j scaled), or sparse-support."""
    law = int(rng.integers(0, 3))
    if law == 0:
        return rng.random(cells)
    if law == 1:
        return np.exp2(-rng.integers(0, 9, cells).astype(float)) * rng.random(cells)
    vals = rng.random(cells) * (rng.random(cells) < 0.25)
    if not vals.any():
        vals[int(rng.integers(0, cells))] = rng.random()
    return vals


def _random_frostman(rng: np.random.Generator, config: LatticeConfig) -> GridFunction:
    """Frostman measure of a random leaf set with a random density (never empty)."""
    mask = rng.random(config.num_cells) < max(rng.random(), 2.0 / config.num_cells)
    if not mask.any():
        mask[0] = True
    return frostman_measure(GridFunction._adopt(config, mask.astype(float)))


def _random_tiling(rng: np.random.Generator, config: LatticeConfig) -> Tiling:
    cubes = []
    stack = [CubeId(0, (0,) * config.n)]
    while stack:
        q = stack.pop()
        if q.level < config.L and rng.random() < 0.5:
            stack.extend(sorted(children(config, q), key=lambda c: c.index))
        else:
            cubes.append(q)
    return Tiling(cubes)


def _random_sparse_family(rng: np.random.Generator, config: LatticeConfig) -> tuple[SparseFamily, SparseReport]:
    """Random subtree selection, thinned until the canonical-witness check
    clears sparseness 1/2.  Returns the family and its last `verify_sparse`
    report."""
    # Cube indices run over levels 0..min(L, 4), coarsest first, level k a
    # run of 2^(nk) indices in `np.ndindex` order, as `all_cubes` lists them.
    n, top = config.n, min(config.L, 4)
    pool = (2 ** (n * (top + 1)) - 1) // (2**n - 1)
    count = int(rng.integers(1, min(12, pool) + 1))
    cubes = set()
    for i in rng.choice(pool, size=count, replace=False).tolist():
        k = 0
        while i >= 2 ** (n * k):
            i, k = i - 2 ** (n * k), k + 1
        cubes.add(CubeId(k, np.unravel_index(i, (2**k,) * n)))
    cubes.add(CubeId(0, (0,) * n))
    while True:
        fam = SparseFamily(cubes, 0.5)
        report = verify_sparse(config, fam)
        if report.is_sparse(fam.eta) or len(cubes) == 1:
            return fam, report
        cubes.discard(report.worst_cube)


def random_instance(kind: str, config: LatticeConfig, seed):
    """Seed-deterministic generator for functions, densities, tilings, and
    sparse families (sparseness 1/2).  `seed` may be an int or a sequence
    of ints."""
    rng = np.random.default_rng(seed)
    if kind == "function":
        return GridFunction._adopt(config, _random_values(rng, config.num_cells))
    if kind == "density":
        if rng.random() < 0.5:
            return _random_frostman(rng, config)
        return GridFunction._adopt(config, _random_values(rng, config.num_cells))
    if kind == "tiling":
        return _random_tiling(rng, config)
    if kind == "sparse_family":
        return _random_sparse_family(rng, config)[0]
    raise ValueError(f"unknown instance kind {kind!r}")


# ---------------------------------------------------------------------------
# suite machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteContext:
    config: LatticeConfig
    seed: int

    def rng_for(self, trial: int, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, trial, salt])

    def instance(self, kind: str, trial: int, salt: int = 0):
        return random_instance(kind, self.config, [self.seed, trial, salt])


def _max_ratio(results):
    """The default report: the max ratio is both the worst ratio and the
    empirical constant, and its trial's payload is the counterexample.
    Returns (worst_ratio, empirical_constant, payload, details)."""
    worst, payload = -np.inf, None
    for ratio, pl in results:
        if ratio > worst:
            worst, payload = ratio, pl
    return worst, worst, payload, {}


@dataclass(frozen=True)
class Suite:
    """One row of the suite table.

    `trial(ctx, i)` returns (ratio, payload).  The suite passes when the
    worst ratio is at most bound + tolerance, or, with bound None, when it
    is finite.  `summary` maps the trial results to (worst_ratio,
    empirical_constant, payload, details); `once` runs the single trial 0
    whatever the trial count, for a suite with nothing random in it."""

    trial: Callable
    bound: float | None
    tolerance: float
    summary: Callable = _max_ratio
    once: bool = False


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num <= 0.0 else np.inf
    return num / den


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """`_ratio` elementwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0.0, np.where(num <= 0.0, 0.0, np.inf), num / den)


# ---------------------------------------------------------------------------
# suites with fixed analytic constants
# ---------------------------------------------------------------------------


def _adams(ctx: SuiteContext, i: int):
    f = ctx.instance("function", i, salt=1)
    mu = ctx.instance("density", i, salt=2)
    lhs = pairing(f, mu)
    md = fractional_measure_maximal(mu).values
    rhs = choquet_integral(GridFunction._adopt(ctx.config, f.values * md.values))
    return _ratio(lhs, rhs), {"f": f, "mu": mu}


def _simple_trick(ctx: SuiteContext, i: int):
    config = ctx.config
    mu = ctx.instance("density", i)
    sums = pyramid(mu.grid * config.cell_volume)
    mins = pyramid(fractional_measure_maximal(mu).values.grid, np.minimum)
    worst = 0.0
    for k in range(config.L, -1, -1):
        ratio = sums[k] * 2.0 ** (k * config.d)
        ok = mins[k] > 0.0
        r = np.where(ok & (ratio > 0.0), ratio / np.where(ok, mins[k], 1.0), 0.0)
        worst = max(worst, float(r.max()))
    return worst, {"mu": mu}


def _triangle(ctx: SuiteContext, i: int):
    p = [1.0, 2.0, 4.0][i % 3]
    f = ctx.instance("function", i, salt=1)
    g = ctx.instance("function", i, salt=2)
    both = GridFunction._adopt(ctx.config, f.values + g.values)
    return _ratio(choquet_norm(both, p), choquet_norm(f, p) + choquet_norm(g, p)), {"f": f, "g": g, "p": p}


def _hoelder(ctx: SuiteContext, i: int):
    p = [1.0, 2.0, 4.0][i % 3]
    pprime = np.inf if p == 1.0 else p / (p - 1.0)
    f = ctx.instance("function", i, salt=1)
    g = ctx.instance("function", i, salt=2)
    num = choquet_integral(GridFunction._adopt(ctx.config, f.values * g.values))
    den = choquet_norm(f, p) * choquet_norm(g, pprime)
    return _ratio(num, den), {"f": f, "g": g, "p": p}


_YOUNG_TS = np.exp2(np.linspace(-6.0, 6.0, 25))
_YOUNG_PHIS = [Power(2.0), Power(1.5), LlogL()]


@cache
def _numeric_young_residuals(t: float) -> tuple[float, float]:
    """Young residuals of e^t - 1 (at min(t, 8)) and t log(e + t) against
    numeric conjugates, over 1e-6: trials ask only the 25 `_YOUNG_TS`."""
    return (young_equality_residual(ExpM1(), min(t, 8.0), NumericConjugate(ExpM1())) / 1e-6,
            young_equality_residual(LlogL(), t, NumericConjugate(LlogL())) / 1e-6)


def _young(ctx: SuiteContext, i: int):
    """Composite Orlicz checks, each normalized by its own tolerance."""
    config = ctx.config
    ts = _YOUNG_TS
    phi = _YOUNG_PHIS[i % 3]
    phibar = phi.complementary()
    f = ctx.instance("function", i, salt=1)
    g = ctx.instance("function", i, salt=2)
    rng = ctx.rng_for(i, salt=3)
    k = int(rng.integers(0, config.L + 1))
    q = CubeId(k, tuple(int(rng.integers(0, 2**k)) for _ in range(config.n)))
    root = CubeId(0, (0,) * config.n)
    checks = {}

    a = luxemburg_norm(f, q, phi)
    if a > 0.0:
        checks["normalization"] = abs(phi_average(f, q, phi, a) - 1.0) / _LUX_TOL

    t = float(ts[i % len(ts)])
    checks["young_eq_closed"] = young_equality_residual(Power([1.5, 2.0, 3.0][i % 3]), t) / _LUX_TOL
    checks["young_eq_numeric_exp"], checks["young_eq_numeric_llogl"] = _numeric_young_residuals(t)

    b = luxemburg_norm(g, q, phibar)
    prod = float(np.abs(f.restrict(q) * g.restrict(q)).mean())
    checks["orlicz_hoelder"] = _ratio(prod, 2.0 * a * b) / (1.0 + _DEFAULT_TOL)

    if b > 0.0:
        am = amemiya_functional(g, q, phibar)
        checks["amemiya_lower"] = _ratio(b, am) / (1.0 + _LUX_TOL)
        checks["amemiya_upper"] = _ratio(am, 2.0 * b) / (1.0 + _LUX_TOL)

    scale = float(np.exp2(rng.uniform(-3.0, 3.0)))
    h = GridFunction._adopt(config, scale * f.values)
    norm_h = luxemburg_norm(h, root, phi)
    mass = float(phi(np.abs(h.values)).mean())
    if 0.0 < norm_h <= 1.0:
        checks["lemma34_small"] = _ratio(mass, norm_h) / (1.0 + _LUX_TOL)
    elif norm_h > 1.0:
        checks["lemma34_large"] = _ratio(norm_h, mass) / (1.0 + _LUX_TOL)
    if norm_h > 0.0:
        checks["lemma34_max"] = _ratio(norm_h, max(1.0, mass)) / (1.0 + _LUX_TOL)

    theta = float(rng.uniform(0.05, 0.95))
    gap_lo = float(np.max(phi(theta * ts) - theta * phi(ts)))
    theta = float(rng.uniform(1.05, 8.0))
    small = ts[ts * theta < 50.0]
    gap_hi = float(np.max(theta * phi(small) - phi(theta * small)))
    checks["convexity_scaling"] = max(gap_lo, gap_hi) / _LUX_TOL

    worst_key = max(checks, key=checks.get)
    return checks[worst_key], {"check": worst_key, "phi": phi.name, "cube": str(q)}


_PAIRS = [(Power(2.0), Power(2.0).complementary()), (LlogL(), ExpM1())]


def _verification_ineq(ctx: SuiteContext, i: int):
    config = ctx.config
    _, phibar = _PAIRS[i % 2]
    g = ctx.instance("function", i, salt=1)
    t = ctx.instance("tiling", i, salt=2)
    table = luxemburg_norm_table(g, phibar)
    masks = level_masks(config, t.cubes)

    # inside[Q] = sum over tiles T in Q of ||g||_T times T's leaf-cell count,
    # bottom-up: a level-k tile adds its own term, a coarser cube its children's
    worst = 0.0
    for k in range(config.L, -1, -1):
        tiles = np.where(masks[k], table[k] * 2.0 ** (config.n * (config.L - k)), 0.0)
        inside = tiles if k == config.L else tiles + coarsen(inside)
        side = 2.0**-k
        lhs = inside * config.cell_volume * side**-config.d
        rhs = side ** (config.n - config.d) * table[k]
        worst = max(worst, float(_ratios(lhs, rhs).max()))
    return worst, {"g": g, "tiling": [str(q) for q in t], "phibar": phibar.name}


def _thm31_first(ctx: SuiteContext, i: int):
    phi, phibar = _PAIRS[i % 2]
    p = [1.0, 2.0][(i // 2) % 2]
    pprime = np.inf if p == 1.0 else p / (p - 1.0)
    f = ctx.instance("function", i, salt=1)
    g = ctx.instance("function", i, salt=2)
    t = ctx.instance("tiling", i, salt=3)
    lhs = pairing(f, g)
    bn = block_norm(f, p, phi, t)
    mg = orlicz_morrey_norm(g, pprime, phibar)
    return _ratio(lhs, bn * mg), {"f": f, "g": g, "tiling": [str(q) for q in t], "p": p, "phi": phi.name}


def _thm31_witness(ctx: SuiteContext, i: int):
    phi, _ = _PAIRS[i % 2]
    p = 2.0
    f = ctx.instance("function", i, salt=1)
    t = ctx.instance("tiling", i, salt=2)
    mu = _random_frostman(ctx.rng_for(i, salt=3), ctx.config)
    dw = dual_witness(f, mu, p, phi, t)
    worst = 0.0
    for _, cert, a in dw.certificates:
        if a > 0.0:
            worst = max(worst, cert / a ** (p - 1.0))
    return worst, {"f": f, "tiling": [str(q) for q in t], "phi": phi.name}


# ---------------------------------------------------------------------------
# recorded / decomposed suites (constants inherited from the literature)
# ---------------------------------------------------------------------------


def _thm21_empirical(ctx: SuiteContext, i: int):
    """Sparse-operator pairing against the decomposed proof chain.

    The end-to-end constant has no citable numeric value, so the direct
    ratio is recorded while the assertion uses the per-trial decomposition
    (1/eta) * c_M * c_SST, every factor of which is computed exactly for
    the trial at hand."""
    config = ctx.config
    p = [1.0, 2.0][i % 2]
    pprime = np.inf if p == 1.0 else p / (p - 1.0)
    f = ctx.instance("function", i, salt=1)
    g = ctx.instance("function", i, salt=2)
    # ctx.instance("sparse_family", i, salt=3) draws from this generator; its report comes with it
    fam, report = _random_sparse_family(ctx.rng_for(i, salt=3), config)

    num = pairing(g, apply_sparse(f, fam))
    # the Orlicz-Morrey norm of g is the Choquet L^p' norm of this maximal
    # function (at p' = inf its max, the sup over cubes)
    omg = orlicz_fractional_maximal(g, config.n - config.d, LlogL()).values
    om = choquet_norm(omg, pprime)
    fp = choquet_norm(f, p)
    direct = _ratio(num, fp * om)

    mf = hl_maximal(f).values
    mg = hl_maximal(g).values
    c_m = _ratio(choquet_norm(mf, p), fp)
    mdmg = fractional_measure_maximal(mg).values.values
    with np.errstate(divide="ignore", invalid="ignore"):
        c_sst = float(np.nanmax(np.where(omg.values > 0, mdmg / omg.values, 0.0)))
    budget = (1.0 / report.min_ratio) * c_m * c_sst
    asserted = _ratio(direct, budget)
    return asserted, {"direct": direct, "budget": budget, "p": p}


def _thm21_summary(results):
    """The asserted ratio is the worst; the empirical constant is the
    largest direct ratio."""
    worst, _, payload, details = _max_ratio(results)
    return worst, max(pl["direct"] for _, pl in results), payload, details


def _maximal_equiv(ctx: SuiteContext, i: int):
    """Ratio range M_d(M f) / M_{alpha,LlogL} f over the cells where the
    denominator is positive: (max, min)."""
    config = ctx.config
    f = ctx.instance("function", i)
    mdm = fractional_measure_maximal(hl_maximal(f).values).values.values
    om = orlicz_fractional_maximal(f, config.n - config.d, LlogL()).values.values
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(om > 0, mdm / om, np.nan)
    return float(np.nanmax(r)), float(np.nanmin(r))


def _maximal_equiv_summary(results):
    c2 = max(r for r, _ in results)
    c1 = min(c for _, c in results)
    finite = all(np.isfinite(r) for r, _ in results) and c1 > 0.0
    return c2 if finite else np.inf, c2, {"c1": c1}, {"c1": c1, "c2": c2}


def _cantor(ctx: SuiteContext, i: int):
    """Snapped Cantor family at d = n/m (m >= 2 an integer): exact content,
    growth law, Luxemburg majorant and sparseness, each normalized by its
    tolerance."""
    config = ctx.config
    m = round(config.n / config.d)
    if m < 2 or CantorConfig(config.n, m, 0).d != config.d:
        raise ValueError(f"cantor_suite needs d = n/m for an integer m >= 2, got d={config.d} at n={config.n}")
    K = min(config.L // m, 4)
    c = CantorConfig(config.n, m, K)
    checks = {}

    for k in range(K + 1):
        checks[f"content_{k}"] = abs(cantor_content(c, k, config.L) - 1.0) / _DEFAULT_TOL

    rows = unboundedness_demo(c, 1.0, config.L)
    for depth, norm in rows:
        checks[f"growth_{depth}"] = abs(norm - (depth + 1)) / _DEFAULT_TOL
    norms = [norm for _, norm in rows]
    checks["growth_monotone"] = 0.0 if all(b > a for a, b in zip(norms, norms[1:])) else np.inf

    lb = cantor_lux_bound(c, config.L)
    checks["lux_majorization"] = _ratio(lb["computed_norm"], lb["lambda_star"]) / (1.0 + _LUX_TOL)

    fam = cantor_family(c, config.L)
    report = verify_sparse(config, fam.family)
    checks["sparseness"] = abs(report.min_ratio - c.eta) / _DEFAULT_TOL

    worst_key = max(checks, key=checks.get)
    return checks[worst_key], {"check": worst_key, "lb": lb, "depth": K}


def _cantor_summary(results):
    ((worst, pl),) = results
    lb = pl["lb"]
    return worst, lb["computed_norm"], {"check": pl["check"]}, {"lambda_star": lb["lambda_star"], "depth": pl["depth"]}


def _min_block_norm(f: GridFunction, p: float, phi, config: LatticeConfig) -> float:
    """Infimum of the block norm over tilings: exhaustive for L <= 3 in one
    dimension (or L <= 2 otherwise), where it is exact; beyond, the block
    norm of the tiling from `spaces._tiling_dp`.  At alpha = 0 a tiling's
    profile is `paint(masks, table)`, so the norm is `==` `block_norm` of
    that tiling, with no `CubeId` or `Tiling` built.

    The DP minimizes sum side^d * a^p over tilings, an upper bound for the
    block norm to the p, so its tiling need not have the least block norm.
    Against the greedy split descent it replaced (4 trials per seed): below
    d = n/2 no trial's infimum moved; at d = n/2 a few rose, by at most
    4.4%; above, some rose (by up to 31%) and some fell, and no report's
    `empirical_constant` fell.  On spiky data the greedy was up to 2.8x
    worse than the DP's tiling.  Neither certifies the infimum."""
    exhaustive = config.L <= 3 if config.n == 1 else config.L <= 2
    if exhaustive:
        return min(block_norm(f, p, phi, t) for t in enumerate_tilings(config))
    _, masks = _tiling_dp(f, p, phi)
    return choquet_norm(GridFunction._adopt(config, paint(masks, luxemburg_norm_table(f, phi))), p)


def _cor32(ctx: SuiteContext, i: int):
    phi, phibar = _PAIRS[i % 2]
    f = ctx.instance("function", i, salt=1)
    inf_block = _min_block_norm(f, 1.0, phi, ctx.config)
    lower = associate_lower_bound(f, SpaceSpec("orlicz_morrey_inf", phi=phibar), witnesses=24, seed=ctx.seed + i)
    return _ratio(inf_block, lower), None


def _cor32_summary(results):
    ratios = [r for r, _ in results]
    finite = all(np.isfinite(r) and r > 0 for r in ratios)
    details = {"ratio_min": min(ratios), "ratio_max": max(ratios)}
    return max(ratios) if finite else np.inf, max(ratios), {"ratios": ratios}, details


def _thm33(ctx: SuiteContext, i: int):
    f = ctx.instance("function", i, salt=1)
    fam = ctx.instance("sparse_family", i, salt=2)
    inf_block = _min_block_norm(apply_sparse(f, fam), 1.0, ExpM1(), ctx.config)
    return _ratio(inf_block, choquet_norm(f, 1.0)), None


def _thm33_summary(results):
    ratios = [r for r, _ in results]
    finite = all(np.isfinite(r) for r in ratios)
    return max(ratios) if finite else np.inf, max(ratios), {"ratios": ratios}, {"ratio_max": max(ratios)}


SUITES = {
    "adams": Suite(_adams, 1.0, _DEFAULT_TOL),
    "simple_trick": Suite(_simple_trick, 1.0, _DEFAULT_TOL),
    "triangle": Suite(_triangle, 1.0, _DEFAULT_TOL),
    "hoelder": Suite(_hoelder, 1.0, _DEFAULT_TOL),
    "young_suite": Suite(_young, 1.0, _DEFAULT_TOL),
    "verification_ineq": Suite(_verification_ineq, 2.0, _LUX_TOL),
    "thm31_first": Suite(_thm31_first, 4.0, _LUX_TOL),
    "thm31_witness": Suite(_thm31_witness, 1.0, _LUX_TOL),
    "thm21_empirical": Suite(_thm21_empirical, 1.0, _DEFAULT_TOL, summary=_thm21_summary),
    "maximal_equiv": Suite(_maximal_equiv, None, _DEFAULT_TOL, summary=_maximal_equiv_summary),
    "cantor_suite": Suite(_cantor, 1.0, _DEFAULT_TOL, summary=_cantor_summary, once=True),
    "cor32": Suite(_cor32, None, _DEFAULT_TOL, summary=_cor32_summary),
    "thm33": Suite(_thm33, None, _DEFAULT_TOL, summary=_thm33_summary),
}


class UnknownSuiteError(ValueError):
    pass


def _serialize_payload(payload):
    if payload is None:
        return None
    out = {}
    for key, val in payload.items():
        if isinstance(val, GridFunction):
            out[key] = json.loads(val.to_json())
        elif isinstance(val, (np.floating, np.integer)):
            out[key] = float(val)
        else:
            out[key] = val
    return out


def run_suite(name: str, trials: int, L: int, seed: int, n: int = 1, d: float = 0.5) -> VerificationReport:
    """Run a registered suite; deterministic given (name, trials, L, seed, n, d)."""
    if name not in SUITES:
        raise UnknownSuiteError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    _require_count("trials", trials, 1)
    _require_count("seed", seed, 0)
    trials, seed = int(trials), int(seed)  # a NumPy integer too, so the report serialises
    suite = SUITES[name]
    ctx = SuiteContext(LatticeConfig(n, L, d), seed)
    results = [suite.trial(ctx, i) for i in range(1 if suite.once else trials)]
    worst, empirical, payload, details = suite.summary(results)
    worst = float(worst)
    if suite.bound is None:
        passed = math.isfinite(worst)
    else:
        passed = worst <= suite.bound + suite.tolerance
    return VerificationReport(
        suite=name,
        trials=trials,
        L=ctx.config.L,
        seed=seed,
        n=ctx.config.n,
        d=d,
        bound=suite.bound,
        worst_ratio=worst,
        empirical_constant=float(empirical),
        tolerance=suite.tolerance,
        status="pass" if passed else "fail",
        counterexample=None if passed else _serialize_payload(payload),
        details=details,
    )
