import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet import young
from choquet.lattice import CubeId, GridFunction, LatticeConfig, all_cubes, cube_blocks
from choquet.young import (
    ExpM1,
    ExpM1Conjugate,
    Identity,
    IdentityConjugate,
    LlogL,
    LuxemburgConvergenceError,
    Power,
    PowerConjugate,
    YoungFunction,
    _LUX_GROUP_ENTRIES,
    amemiya_functional,
    by_name,
    _luxemburg_group,
    _luxemburg_rows,
    luxemburg_norm,
    luxemburg_norm_table,
    NumericConjugate,
    phi_average,
    young_equality_residual,
)

from conftest import bisect_luxemburg_rows, scan_amemiya, scan_conjugate_index

ROOT1 = CubeId(0, (0,))

# Derandomized so every run checks the same examples; no example database.
oracle_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)

LEAF_VALUES = {
    "continuous": lambda rng, size: rng.random(size) * 3.0,
    "sparse": lambda rng, size: rng.random(size) * (rng.random(size) < 0.3),
    "spread": lambda rng, size: np.exp(rng.normal(0.0, 4.0, size)),
    "spike": lambda rng, size: np.where(np.arange(size) == rng.integers(size), 7.0, 1e-6),
    "constant": lambda rng, size: np.full(size, 1.75),
    "zero": lambda rng, size: np.zeros(size),
}
MAX_L = {1: 6, 2: 3, 3: 2}
NUMERIC_LLOGL = NumericConjugate(LlogL())


@st.composite
def lattice_functions(draw, max_cells=None):
    n = draw(st.integers(1, 3))
    max_l = MAX_L[n] if max_cells is None else min(MAX_L[n], int(np.log2(max_cells)) // n)
    cfg = LatticeConfig(n, draw(st.integers(0, max_l)), 0.5)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return GridFunction(cfg, LEAF_VALUES[draw(st.sampled_from(sorted(LEAF_VALUES)))](rng, cfg.num_cells))


@st.composite
def builtin_phis(draw):
    p = draw(st.floats(1.05, 6.0))
    return draw(st.sampled_from([Identity(), IdentityConjugate(), Power(p), PowerConjugate(p),
                                 LlogL(), ExpM1(), ExpM1Conjugate()]))


def _assert_matches_oracle(f, phi):
    table = luxemburg_norm_table(f, phi)
    grid = np.abs(f.grid)
    for k in range(f.config.L + 1):
        want = bisect_luxemburg_rows(phi, cube_blocks(grid, k))
        assert np.array_equal(table[k].reshape(-1) == 0.0, want == 0.0)
        np.testing.assert_allclose(table[k].reshape(-1), want, rtol=1e-9, atol=0.0)


def _assert_table_is_single_cube(f, phi):
    table = luxemburg_norm_table(f, phi)
    assert [a.shape for a in table] == [(2**k,) * f.config.n for k in range(f.config.L + 1)]
    for q in all_cubes(f.config):
        assert luxemburg_norm(f, q, phi) == table[q.level][q.index], q


def test_power_conjugate_closed_form():
    # sup_s (ts - s^p/p) = t^q/q with q = p/(p-1); at p=2, t=3 this is 2.25
    assert Power(2).complementary()(3.0) == pytest.approx(2.25)
    p = 3.0
    conj = Power(p).complementary()
    # direct numeric check instead of re-deriving the constant
    s = np.linspace(0, 50, 200001)
    for t in [0.25, 1.0, 4.0]:
        assert conj(t) == pytest.approx(np.max(t * s - Power(p)(s)), rel=1e-6)


POWER_TS = np.array([0.0, 2.0**-40, 0.5, 1.0, 3.0, 2.0**40])


def _power_form_formulas(phi, t):
    """Phi(t) and Phi'(t) as each power form wrote them out by hand."""
    if type(phi) is Identity:
        return np.asarray(t, dtype=float), np.ones_like(np.asarray(t, dtype=float))
    if type(phi) is IdentityConjugate:
        return np.where(np.asarray(t) <= 1.0, 0.0, np.inf), np.zeros_like(np.asarray(t, dtype=float))
    p = phi.p
    if type(phi) is Power:
        return np.asarray(t, dtype=float) ** p, p * np.asarray(t, dtype=float) ** (p - 1.0)
    pprime = p / (p - 1.0)
    coeff = (p - 1.0) * p**-pprime
    return (coeff * np.asarray(t, dtype=float) ** pprime,
            coeff * pprime * np.asarray(t, dtype=float) ** (pprime - 1.0))


@pytest.mark.parametrize("phi", [Identity(), IdentityConjugate()]
                         + [cls(p) for cls in (Power, PowerConjugate) for p in (1.05, 1.5, 2, 2.5, 3.0, 6.0)],
                         ids=lambda phi: phi.name)
def test_power_forms_equal_their_formulas(phi):
    # Phi = c t^r and Phi' = c r t^(r-1) from (c, r), `==` the formulas each class wrote out
    ts = POWER_TS[POWER_TS < 1.0] if type(phi) is IdentityConjugate else POWER_TS  # Phi' only below 1
    with np.errstate(over="ignore"):
        for t in [ts, *ts]:
            value, deriv = _power_form_formulas(phi, t)
            assert np.array_equal(phi(t), value) and np.array_equal(phi.deriv(t), deriv), t


@pytest.mark.parametrize("p", [0.5, 1.0, np.inf, np.nan])
def test_power_conjugate_needs_exponent_above_one(p):
    with pytest.raises(ValueError, match=r"power exponent must lie in \(1, inf\)") as conj:
        PowerConjugate(p)
    with pytest.raises(ValueError) as power:
        Power(p)
    assert str(conj.value) == str(power.value)


class _SquareTimesTwo(Power):
    """A Power subclass with Phi of its own, 2t^2: not a power form by type."""

    def __init__(self):
        super().__init__(2.0)

    def __call__(self, t):
        return 2.0 * np.asarray(t, dtype=float) ** 2

    def deriv(self, t):
        return 4.0 * np.asarray(t, dtype=float)


def test_power_subclass_goes_to_iterative_solver(monkeypatch):
    # the closed forms are read for the exact types alone
    unit_roots, solves = young._unit_roots, []
    monkeypatch.setattr(young, "_unit_roots", lambda *args: solves.append(1) or unit_roots(*args))
    cfg = LatticeConfig(2, 3, 1.0)
    f = GridFunction(cfg, np.exp(np.random.default_rng(8).normal(0.0, 2.0, cfg.num_cells)))
    phi = _SquareTimesTwo()
    table = luxemburg_norm_table(f, phi)
    assert solves
    for k, level in enumerate(table):
        want = bisect_luxemburg_rows(phi, cube_blocks(np.abs(f.grid), k))
        np.testing.assert_allclose(level.reshape(-1), want, rtol=1e-9, atol=0.0)
    # mean 2 (f/lam)^2 = 1 at lam = sqrt(2) times Power(2)'s norm
    np.testing.assert_allclose(table[0], np.sqrt(2.0) * luxemburg_norm_table(f, Power(2))[0], rtol=1e-9)
    vals = np.abs(f.values)
    root = CubeId(0, (0, 0))
    solves.clear()
    assert amemiya_functional(f, root, phi) == pytest.approx(2.0 * np.sqrt(2.0 * np.mean(vals**2)), rel=1e-9)
    assert solves


def test_identity_conjugate_is_indicator_like():
    conj = Identity().complementary()
    assert isinstance(conj, IdentityConjugate)
    assert conj(0.5) == 0.0
    assert conj(1.0) == 0.0
    assert np.isinf(conj(1.5))


def test_expm1_conjugate_closed_form():
    conj = ExpM1().complementary()
    assert isinstance(conj, ExpM1Conjugate)
    assert conj(1.0) == pytest.approx(0.0, abs=1e-15)
    assert conj(np.e) == pytest.approx(1.0)
    assert conj(0.5) == 0.0


def test_llogl_values_on_its_domain():
    # t log(e + t) on [0, inf], inf included, with no warning (tier-1 makes
    # a RuntimeWarning an error); the values are pinned bit for bit
    got = LlogL()(np.array([0.0, 5e-324, 2.0, 1e300, np.inf]))
    want = [0.0, 5e-324, float.fromhex("0x1.8d2b7b13e3e66p+1"), float.fromhex("0x1.01dec9d9c1ad2p+1006"), np.inf]
    assert got.tolist() == want


@pytest.mark.parametrize("phi", [Identity(), Power(1.5), Power(3.0), PowerConjugate(1.5), PowerConjugate(3.0), LlogL(),
                                 ExpM1(), ExpM1Conjugate(), IdentityConjugate()], ids=lambda p: p.name)
def test_closed_forms_are_defined_at_infinity(phi):
    # Phi(inf) = Phi'(inf) = inf with no warning (tier-1 makes a
    # RuntimeWarning an error): LlogL's t / (e + t) and the e^t - 1
    # conjugate's t log t - t are each inf / inf or inf - inf there
    t = np.array([0.0, 2.0, np.inf])
    value = phi(t)
    assert not np.isnan(value).any() and value[2] == np.inf
    assert phi(np.inf) == np.inf
    if isinstance(phi, IdentityConjugate):  # not differentiable at or beyond t = 1
        with pytest.raises(ValueError):
            phi.deriv(t)
        return
    deriv = phi.deriv(t)
    assert not np.isnan(deriv).any() and deriv[2] == (1.0 if isinstance(phi, Identity) else np.inf)
    both = phi.value_and_deriv(t)
    assert np.array_equal(both[0], value) and np.array_equal(both[1], deriv)


_METHODS = {"call": lambda phi, t: (phi(t),), "deriv": lambda phi, t: (phi.deriv(t),),
            "value_and_deriv": lambda phi, t: phi.value_and_deriv(t)}


@pytest.mark.parametrize("t", [0.5, 2.0])
@pytest.mark.parametrize("method", sorted(_METHODS))
@pytest.mark.parametrize("make", [float, np.float64, np.array], ids=["float", "np.float64", "0-d"])
@pytest.mark.parametrize("phi", [Identity(), IdentityConjugate(), Power(1.5), Power(3.0), PowerConjugate(1.5), LlogL(),
                                 ExpM1(), ExpM1Conjugate(), NumericConjugate(ExpM1())], ids=lambda p: p.name)
def test_scalar_argument_gives_the_one_element_value(phi, make, method, t):
    # a scalar or 0-d argument gives, in shape (), what a 1-element array gives
    call = _METHODS[method]
    if isinstance(phi, IdentityConjugate) and t >= 1.0 and method != "call":  # not differentiable there
        with pytest.raises(ValueError):
            call(phi, make(t))
        return
    got, want = call(phi, make(t)), call(phi, np.array([t]))
    assert [np.shape(g) for g in got] == [()] * len(want)
    assert [float(g) for g in got] == [float(w[0]) for w in want]


@pytest.mark.parametrize("make", [float, np.float64, np.array], ids=["float", "np.float64", "0-d"])
def test_amemiya_psi_takes_a_scalar(make):
    psi = young._AmemiyaPsi(LlogL())
    assert float(psi(make(2.0))) == float(psi(np.array([2.0]))[0])


def test_llogl_canonical_pairing():
    assert isinstance(LlogL().complementary(), ExpM1)


def test_by_name():
    assert by_name("identity").name == "identity"
    assert by_name("power:2.5")(2.0) == pytest.approx(2.0**2.5)
    assert by_name("llogl").name == "llogl"
    assert by_name("expm1")(1.0) == pytest.approx(np.e - 1.0)
    assert by_name("conjugate:power:2")(3.0) == pytest.approx(2.25)
    with pytest.raises(ValueError):
        by_name("nope")


@pytest.mark.parametrize("base", ["identity", "llogl", "expm1", "power:2.5"])
@pytest.mark.parametrize("depth", [0, 1, 2, 3, 1200])
def test_by_name_any_number_of_conjugates(base, depth):
    # the prefixes come off in a loop: each one is one .complementary()
    want = by_name(base)
    for _ in range(depth):
        want = want.complementary()
    got = by_name("conjugate:" * depth + base)
    assert got._cache_key() == want._cache_key()


@pytest.mark.parametrize("name", ["conjugate:nope", "conjugate:" * 1200 + "nope", "conjugate:"], ids=["one", "many", "empty"])
def test_by_name_unknown_names_the_base(name):
    base = name.replace("conjugate:", "")
    with pytest.raises(ValueError, match=f"unknown Young function {base!r}$"):
        by_name(name)


def test_numeric_conjugate_matches_closed_form():
    num = NumericConjugate(Power(2))
    exact = PowerConjugate(2)
    for t in [0.1, 0.7, 1.0, 3.0, 10.0]:
        assert num(t) == pytest.approx(exact(t), rel=1e-6, abs=1e-9)
    # the derivative is the maximiser (Phi')^-1(t): t/2 here, log t or 0 for e^t - 1
    ts = np.array([0.0, 0.1, 0.7, 1.0, 3.0, 10.0])
    np.testing.assert_allclose(num.deriv(ts), exact.deriv(ts), rtol=1e-7, atol=0.0)
    np.testing.assert_allclose(NumericConjugate(ExpM1()).deriv(ts), ExpM1Conjugate().deriv(ts),
                               rtol=1e-7, atol=1e-12)


def test_numeric_conjugate_argument_does_not_depend_on_batch(rng):
    # all arguments refine together, each stopping on its own
    ts = np.concatenate([rng.random(40) * 3.0, np.exp(rng.normal(0.0, 4.0, 40)), [0.0, 1.0]])
    for phi in [LlogL(), ExpM1(), Power(1.3)]:
        batch = NumericConjugate(phi)
        value, slope = batch(ts), batch.deriv(ts)
        for t, v, d in zip(ts, value, slope):
            alone = NumericConjugate(phi)
            assert (alone(t), alone.deriv(t)) == (v, d)
        assert batch(np.zeros((2, 0))).shape == (2, 0)


def test_numeric_conjugate_writes_no_state(rng):
    # a pure function: calls on any arguments leave the instance as built
    conj = NumericConjugate(LlogL())
    before = dict(vars(conj))
    ts = np.concatenate([rng.random(60) * 3.0, np.exp(rng.normal(0.0, 4.0, 60)), [0.0, 0.0, 2.5]])
    conj(ts), conj.deriv(ts[::-1]), conj.value_and_deriv(ts[:30].reshape(5, 6))
    after = vars(conj)
    assert after.keys() == before.keys() and all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("phi", [LlogL(), ExpM1(), Power(2.0), Power(1.3)], ids=lambda p: p.name)
def test_numeric_conjugate_grid_index_matches_scan(phi):
    # the sorted search on chord slopes against the 641-point scan
    conj = NumericConjugate(phi)
    rng = np.random.default_rng(17)
    ts = np.concatenate([[0.0], np.exp2(np.arange(-30.0, 31.0)), np.exp2(rng.uniform(-30.0, 30.0, 4000))])
    np.testing.assert_array_equal(conj._grid_argmax(ts), scan_conjugate_index(phi, ts))
    # Phi'(2^40) bounds every chord slope, so twice it lies beyond the last chord
    last = len(conj._GRID) - 1
    beyond = 2.0 * phi.deriv(conj._GRID[-1:])
    if np.isfinite(beyond[0]):
        assert conj._grid_argmax(beyond)[0] == scan_conjugate_index(phi, beyond)[0] == last


def test_numeric_biconjugate_recovers_power():
    phi = Power(3)
    bi = NumericConjugate(NumericConjugate(phi))
    for t in [0.5, 1.0, 2.0]:
        assert bi(t) == pytest.approx(phi(t), rel=1e-5)


def test_young_inequality_grid():
    # ts <= Phi(t) + conj(s) everywhere for exact conjugate pairs
    ts = np.geomspace(1e-3, 1e3, 61)
    for phi, phibar in [(Power(2), PowerConjugate(2)), (ExpM1(), ExpM1Conjugate())]:
        for t in ts:
            with np.errstate(over="ignore"):
                vals = phi(t) + phibar(ts)
            assert np.all(t * ts <= vals * (1 + 1e-12) + 1e-12)


def test_young_equality_residual():
    for t in [0.25, 1.0, 3.0]:
        assert young_equality_residual(Power(2), t) <= 1e-12
        assert young_equality_residual(Power(1.5), t) <= 1e-10
    num = NumericConjugate(ExpM1())
    for t in [0.5, 1.0, 2.0]:
        assert young_equality_residual(ExpM1(), t, num) <= 1e-6


@pytest.mark.parametrize("t", [-1.0, -1e-300, np.nan, -np.inf])
def test_young_equality_residual_needs_nonnegative_t(t):
    # at t = -1 the Power(2) residual read 0.0
    with pytest.raises(ValueError, match="needs t >= 0"):
        young_equality_residual(Power(2), t)


def test_luxemburg_constant():
    cfg = LatticeConfig(1, 2, 0.5)
    f = GridFunction.constant(cfg, 3.0)
    # mean Phi(3/lam) = 1 has closed-form solutions for these shapes
    assert luxemburg_norm(f, ROOT1, Power(2)) == pytest.approx(3.0, rel=1e-9)
    assert luxemburg_norm(f, ROOT1, Power(5)) == pytest.approx(3.0, rel=1e-9)
    assert luxemburg_norm(f, ROOT1, ExpM1()) == pytest.approx(3.0 / np.log(2.0), rel=1e-9)
    got = luxemburg_norm(f, ROOT1, LlogL())
    lams = np.geomspace(0.1, 30, 400001)
    want = lams[np.searchsorted(-LlogL()(3.0 / lams), -1.0)]
    assert got == pytest.approx(want, rel=1e-4)


def test_luxemburg_half_indicator_power2():
    cfg = LatticeConfig(1, 1, 0.5)
    f = GridFunction(cfg, [1.0, 0.0])
    assert luxemburg_norm(f, ROOT1, Power(2)) == pytest.approx(2**-0.5, rel=1e-9)


def test_luxemburg_dense_scan_oracle(rng):
    cfg = LatticeConfig(1, 3, 0.5)
    for phi in [Power(2), LlogL(), ExpM1()]:
        for _ in range(5):
            f = GridFunction(cfg, rng.random(cfg.num_cells) * 3)
            got = luxemburg_norm(f, ROOT1, phi)
            lams = np.geomspace(max(got, 1e-6) / 4, max(got, 1e-6) * 4, 200001)
            with np.errstate(over="ignore"):
                means = np.mean(phi(f.values / lams[:, None]), axis=1)
            want = lams[np.searchsorted(-means, -1.0)]
            assert got == pytest.approx(want, rel=1e-4)


def test_luxemburg_homogeneous_and_monotone(rng):
    cfg = LatticeConfig(2, 2, 1.0)
    q = CubeId(1, (0, 1))
    f = GridFunction(cfg, rng.random(cfg.num_cells))
    g = GridFunction(cfg, f.values * 2.5)
    for phi in [Power(3), LlogL()]:
        assert luxemburg_norm(g, q, phi) == pytest.approx(
            2.5 * luxemburg_norm(f, q, phi), rel=1e-8)


def test_luxemburg_zero_function():
    cfg = LatticeConfig(1, 2, 0.5)
    assert luxemburg_norm(GridFunction.zeros(cfg), ROOT1, Power(2)) == 0.0


def test_luxemburg_normalization_unit_mean(rng):
    # eq: averaging Phi(|f| / ||f||) over the cube gives exactly 1
    cfg = LatticeConfig(1, 4, 0.5)
    for phi in [Power(2), Power(1.5), LlogL()]:
        for _ in range(10):
            f = GridFunction(cfg, rng.random(cfg.num_cells) + 0.05)
            lam = luxemburg_norm(f, ROOT1, phi)
            assert phi_average(f, ROOT1, phi, lam) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("lam", [0.0, -0.0, np.nan, -1.0, -np.inf])
def test_phi_average_needs_positive_lam(lam):
    # lam = 0 or NaN read NaN, and lam = -1 read 17.5 for arange(8) at (1, 3)
    f = GridFunction(LatticeConfig(1, 3, 0.5), np.arange(8.0))
    with pytest.raises(ValueError, match="needs lam > 0"):
        phi_average(f, ROOT1, Power(2), lam)


def test_luxemburg_non_convergence():
    class Flat(YoungFunction):
        name = "flat"

        def __call__(self, t):
            return np.zeros_like(np.asarray(t, dtype=float))

    cfg = LatticeConfig(1, 1, 0.5)
    with pytest.raises(LuxemburgConvergenceError):
        luxemburg_norm(GridFunction.constant(cfg, 1.0), ROOT1, Flat())


@oracle_settings
@given(lattice_functions(), builtin_phis(), st.integers(0, 2**32 - 1))
def test_amemiya_matches_scan_oracle(f, phi, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, f.config.L + 1))
    q = CubeId(k, tuple(int(x) for x in rng.integers(0, 2**k, f.config.n)))
    vals = np.abs(f.restrict(q))
    got = amemiya_functional(f, q, phi)
    # Psi = t Phi' - Phi is 0 for the identity (the infimum is the limit s -> 0)
    # and kinked for its conjugate (the minimum sits at s = max |f|)
    if isinstance(phi, Identity):
        assert got == pytest.approx(vals.mean(), rel=1e-15, abs=0.0)
    elif isinstance(phi, IdentityConjugate):
        assert got == vals.max()
    else:
        assert got == pytest.approx(scan_amemiya(phi, vals), rel=1e-12, abs=0.0)


def test_amemiya_sandwich(rng):
    # the Amemiya value is within [lux, 2 lux]
    cfg = LatticeConfig(1, 3, 0.5)
    for phi in [Power(2), LlogL()]:
        for _ in range(5):
            f = GridFunction(cfg, rng.random(cfg.num_cells) + 0.1)
            lux = luxemburg_norm(f, ROOT1, phi)
            am = amemiya_functional(f, ROOT1, phi)
            assert lux - 1e-8 <= am <= 2 * lux + 1e-8


@oracle_settings
@given(lattice_functions(), builtin_phis())
def test_luxemburg_matches_bisection_oracle(f, phi):
    _assert_matches_oracle(f, phi)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(lattice_functions(max_cells=64))
def test_luxemburg_numeric_conjugate_matches_bisection_oracle(f):
    # Both halves with one solve each, as every conjugate call costs a grid
    # search.  The oracle bisects every cube's row at once, each repeated up
    # to the lattice's cell count (the same mean, so the same norm).  The
    # single-cube half is one `_luxemburg_rows` call with a block per cube,
    # which is `luxemburg_norm` on each cube, since a row's norm does not
    # depend on the rows solved with it; the root is also solved alone.
    table = luxemburg_norm_table(f, NUMERIC_LLOGL)
    cubes = list(all_cubes(f.config))
    got = np.array([table[q.level][q.index] for q in cubes])
    rows = [np.abs(f.restrict(q)).reshape(1, -1) for q in cubes]
    want = bisect_luxemburg_rows(NUMERIC_LLOGL, np.concatenate([r.repeat(f.config.num_cells // r.size, axis=1)
                                                                for r in rows]))
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
    assert [float(a[0]) for a in _luxemburg_rows(NUMERIC_LLOGL, rows)] == got.tolist()
    assert luxemburg_norm(f, cubes[0], NUMERIC_LLOGL) == got[0]


@oracle_settings
@given(lattice_functions(), builtin_phis())
def test_luxemburg_table_equals_single_cube(f, phi):
    _assert_table_is_single_cube(f, phi)


@oracle_settings
@given(lattice_functions(), builtin_phis())
def test_luxemburg_table_equals_level_rows(f, phi):
    # all levels in one segmented solve against each level solved on its own
    grid = np.abs(f.grid)
    for k, norms in enumerate(luxemburg_norm_table(f, phi)):
        assert norms.shape == (2**k,) * f.config.n
        assert list(norms.reshape(-1)) == list(_luxemburg_rows(phi, [cube_blocks(grid, k)])[0])


@pytest.mark.parametrize("phi", [Identity(), IdentityConjugate(), Power(2.5), PowerConjugate(2.5), LlogL(),
                                 ExpM1(), ExpM1Conjugate()], ids=lambda p: p.name)
@pytest.mark.parametrize("n, L", [(1, 4), (2, 3), (3, 2)])
def test_luxemburg_table_levels_are_pyramid_shaped(phi, n, L):
    # read-only levels shaped (2^k,)*n, each entry the single-cube value
    f = GridFunction(LatticeConfig(n, L, n / 2), np.exp(np.random.default_rng(n + L).normal(0.0, 2.0, 2 ** (n * L))))
    _assert_table_is_single_cube(f, phi)
    assert not any(a.flags.writeable for a in luxemburg_norm_table(f, phi))


@pytest.mark.parametrize("phi", [ExpM1(), LlogL(), ExpM1Conjugate(), Power(3.0), IdentityConjugate()],
                         ids=lambda p: p.name)
def test_luxemburg_table_split_into_groups(phi):
    # a lattice whose levels do not fit one solve: the table is still level
    # by level and cube by cube the same
    cfg = LatticeConfig(2, 6, 1.0)
    assert cfg.num_cells < _LUX_GROUP_ENTRIES < (cfg.L + 1) * cfg.num_cells
    rng = np.random.default_rng(11)
    f = GridFunction(cfg, np.exp(rng.normal(0.0, 2.0, cfg.num_cells)) * (rng.random(cfg.num_cells) < 0.8))
    table = luxemburg_norm_table(f, phi)
    for k, norms in enumerate(table):
        assert list(norms.reshape(-1)) == list(_luxemburg_rows(phi, [cube_blocks(np.abs(f.grid), k)])[0])
    for q in list(all_cubes(f.config))[::53]:
        assert luxemburg_norm(f, q, phi) == table[q.level][q.index], q


@oracle_settings
@given(lattice_functions(), builtin_phis(), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_luxemburg_row_does_not_depend_on_batch(f, phi, level, seed):
    # f's level-k cubes solved alone and as the middle block of unrelated
    # rows of another width; every returned array is read-only, and the
    # input blocks are left as they were
    rows = -cube_blocks(f.grid, min(level, f.config.L))
    given_rows = rows.copy()
    rng = np.random.default_rng(seed)
    others = np.exp(rng.normal(0.0, 3.0, (5, rows.shape[1] + 1))) * (rng.random((5, rows.shape[1] + 1)) < 0.7)
    batch = _luxemburg_rows(phi, [others, rows, others])
    alone = [_luxemburg_rows(phi, [row[None, :]]) for row in rows]
    assert [len(a) for a in batch] == [len(others), len(rows), len(others)]
    assert list(batch[1]) == [a[0][0] for a in alone]
    assert np.array_equal(batch[0], batch[2])
    assert not any(a.flags.writeable for a in batch + sum(alone, []))
    assert np.array_equal(rows, given_rows)


@oracle_settings
@given(lattice_functions(), builtin_phis(), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_luxemburg_homogeneous_and_monotone_property(f, phi, c, seed):
    shrink = np.random.default_rng(seed).random(f.config.num_cells)
    scaled = GridFunction(f.config, c * f.values)
    smaller = GridFunction(f.config, shrink * f.values)
    for q in all_cubes(f.config):
        norm = luxemburg_norm(f, q, phi)
        assert luxemburg_norm(scaled, q, phi) == pytest.approx(c * norm, rel=1e-9, abs=0.0)
        assert luxemburg_norm(smaller, q, phi) <= norm * (1.0 + 1e-9)


def test_luxemburg_table_cache_keys_on_parameters():
    # `name` prints p with :g, so both exponents are named "power:1.5"
    cfg = LatticeConfig(1, 3, 0.5)
    f = GridFunction(cfg, np.arange(1.0, 9.0))
    near = Power(1.5000004)
    assert near.name == Power(1.5).name == "power:1.5"
    assert luxemburg_norm_table(f, Power(1.5))[0][0] != luxemburg_norm(f, ROOT1, near)
    assert luxemburg_norm_table(f, near)[0][0] == luxemburg_norm(f, ROOT1, near)
    # parameters inside a numeric conjugate count too; equal parameters share
    g = GridFunction(cfg, np.arange(1.0, 9.0) / 8.0)
    for phi in [NumericConjugate(Power(2.0)), NumericConjugate(Power(2.0000001))]:
        assert luxemburg_norm_table(g, phi)[0][0] == luxemburg_norm(g, ROOT1, phi)
    assert luxemburg_norm_table(f, Power(1.5)) is luxemburg_norm_table(f, Power(1.5))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lattice_functions(), st.one_of(builtin_phis(), st.just(NumericConjugate(ExpM1()))),
       st.sampled_from(["kept", "one entry", "one level", "three levels"]))
def test_luxemburg_table_groups_levels_by_budget(f, phi, budget):
    # the levels split into solves of at most `_LUX_GROUP_ENTRIES` entries
    # (one level at least), patched small so small lattices split too; the
    # table is the same whatever the split, and cached
    cells, levels = f.config.num_cells, f.config.L + 1
    entries = {"kept": _LUX_GROUP_ENTRIES, "one entry": 1, "one level": cells, "three levels": 3 * cells}[budget]
    alone = luxemburg_norm_table(GridFunction(f.config, f.values), phi)
    solves = []

    def counted(phi, blocks):
        solves.append([b.shape for b in blocks])
        return _luxemburg_group(phi, blocks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(young, "_luxemburg_group", counted)
        mp.setattr(young, "_LUX_GROUP_ENTRIES", entries)
        table = luxemburg_norm_table(f, phi)
        assert luxemburg_norm_table(f, phi) is table
    assert [a.shape for a in table] == [a.shape for a in alone]
    assert all(np.array_equal(a, b) for a, b in zip(table, alone))
    per_solve = max(1, entries // cells)
    assert [len(shapes) for shapes in solves] == [min(per_solve, levels - k) for k in range(0, levels, per_solve)]
    assert sum(solves, []) == [(2 ** (f.config.n * k), cells // 2 ** (f.config.n * k)) for k in range(levels)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 9)), max_size=8), builtin_phis(), st.integers(1, 40),
       st.integers(0, 2**32 - 1))
def test_luxemburg_rows_reads_blocks_lazily(shapes, phi, cap, seed):
    # a generator of blocks gives the list's answer in the same solves:
    # consecutive blocks while they hold at most `cap` entries, a bigger one
    # alone; and a block is drawn only once every group before the one
    # holding the block before it has been solved
    rng = np.random.default_rng(seed)
    blocks = [np.exp(rng.normal(0.0, 2.0, s)) * (rng.random(s) < 0.8) for s in shapes]
    groups, drawn = [], []

    def counted(phi, group):
        groups.append(len(group))
        return _luxemburg_group(phi, group)

    def stream():
        for b in blocks:
            drawn.append(len(groups))
            yield b

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(young, "_luxemburg_group", counted)
        mp.setattr(young, "_LUX_GROUP_ENTRIES", cap)
        lazy = _luxemburg_rows(phi, stream())
        lazy_groups, groups[:] = groups[:], []
        eager = _luxemburg_rows(phi, list(blocks))
    assert len(lazy) == len(eager) == len(blocks)
    assert all(np.array_equal(a, b) for a, b in zip(lazy, eager))
    parts = []  # block sizes per solve, grouped greedily
    for b in blocks:
        if parts and sum(parts[-1]) + b.size <= cap:
            parts[-1].append(b.size)
        else:
            parts.append([b.size])
    assert lazy_groups == groups == [len(part) for part in parts]
    owner = [j for j, part in enumerate(parts) for _ in part]
    assert drawn == ([0] + owner)[:len(blocks)]


@pytest.mark.parametrize("phi", [LlogL(), NumericConjugate(ExpM1())], ids=["llogl", "numeric_expm1"])
def test_value_and_deriv_is_both_calls(phi):
    t = np.concatenate([[0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 2.0, 37.0, 1e3],
                        np.exp(np.random.default_rng(4).normal(0.0, 3.0, 500))])
    value, deriv = phi.value_and_deriv(t)
    assert np.array_equal(value, phi(t)) and np.array_equal(deriv, phi.deriv(t))


class _SeparateLlogL(LlogL):
    value_and_deriv = YoungFunction.value_and_deriv


class _SeparateNumericConjugate(NumericConjugate):
    value_and_deriv = YoungFunction.value_and_deriv


class _OneCallLlogL(LlogL):
    """LlogL whose Phi and Phi' may only be asked together."""

    def __call__(self, t):
        raise AssertionError("Phi asked on its own")

    def deriv(self, t):
        raise AssertionError("Phi' asked on its own")


@pytest.mark.parametrize("fast, separate", [(LlogL(), _SeparateLlogL()), (_OneCallLlogL(), _SeparateLlogL()),
                                            (NumericConjugate(ExpM1()), _SeparateNumericConjugate(ExpM1()))],
                         ids=["llogl", "llogl_one_call_per_step", "numeric_expm1"])
@pytest.mark.parametrize("n, L", [(1, 6), (2, 3), (3, 2)])
def test_luxemburg_table_same_with_one_call_per_step(fast, separate, n, L):
    # Newton with value_and_deriv against Phi and Phi' called one by one
    rng = np.random.default_rng(n + L)
    cfg = LatticeConfig(n, L, n / 2)
    for values in [rng.random(cfg.num_cells) * 3.0, np.exp(rng.normal(0.0, 2.0, cfg.num_cells))]:
        f = GridFunction(cfg, values)
        for got, want in zip(luxemburg_norm_table(f, fast), luxemburg_norm_table(f, separate)):
            assert np.array_equal(got, want)


class _CountingLlogL(LlogL):
    """LlogL that counts how it is asked: Phi alone, Phi' alone, or both."""

    def __init__(self):
        self.calls = {"phi": 0, "deriv": 0, "both": 0}

    def __call__(self, t):
        self.calls["phi"] += 1
        return super().__call__(t)

    def deriv(self, t):
        self.calls["deriv"] += 1
        return super().deriv(t)

    def value_and_deriv(self, t):
        self.calls["both"] += 1
        return super().value_and_deriv(t)


def test_phi_and_deriv_at_the_same_points_come_from_one_call():
    phi = _CountingLlogL()
    assert young_equality_residual(phi, 2.0, ExpM1()) == young_equality_residual(LlogL(), 2.0, ExpM1())
    assert phi.calls == {"phi": 0, "deriv": 0, "both": 1}
    t = np.array([0.0, 0.5, 3.0])
    phi.calls["both"] = 0
    assert np.array_equal(young._AmemiyaPsi(phi)(t), young._AmemiyaPsi(LlogL())(t))
    assert phi.calls == {"phi": 0, "deriv": 0, "both": 1}
    # Psi once per bisection step, then one mean of Phi at the minimiser
    cfg = LatticeConfig(1, 3, 0.5)
    f = GridFunction(cfg, np.random.default_rng(9).random(cfg.num_cells) * 3.0)
    phi.calls["both"] = 0
    assert amemiya_functional(f, ROOT1, phi) == amemiya_functional(f, ROOT1, LlogL())
    assert phi.calls["phi"] == 1 and phi.calls["deriv"] == 0 and phi.calls["both"] > 1


def test_luxemburg_without_deriv_bisects():
    class Cube(YoungFunction):
        name = "cube"

        def __call__(self, t):
            return np.asarray(t, dtype=float) ** 3

    with pytest.raises(NotImplementedError):
        Cube().deriv(np.ones(1))
    cfg = LatticeConfig(2, 3, 1.0)
    rng = np.random.default_rng(5)
    for values in [rng.random(cfg.num_cells), np.exp(rng.normal(0.0, 4.0, cfg.num_cells))]:
        f = GridFunction(cfg, values)
        for got, want in zip(luxemburg_norm_table(f, Cube()), luxemburg_norm_table(f, Power(3))):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
        _assert_table_is_single_cube(f, Cube())


def test_luxemburg_without_deriv_calls_phi_once_per_step(monkeypatch):
    # the mode is read off Phi's class: a Phi with no deriv of its own is
    # asked once per step and never for value_and_deriv
    class CountedCube(YoungFunction):
        name = "counted_cube"
        calls = 0

        def __call__(self, t):
            CountedCube.calls += 1
            return np.asarray(t, dtype=float) ** 3

        def value_and_deriv(self, t):
            raise AssertionError("value_and_deriv asked of a Phi without deriv")

    step_means, steps = young._step_means, []

    def counted(*args):
        steps.append(args[-1])  # the newton flag
        return step_means(*args)

    monkeypatch.setattr(young, "_step_means", counted)
    cfg = LatticeConfig(2, 3, 1.0)
    f = GridFunction(cfg, np.exp(np.random.default_rng(6).normal(0.0, 2.0, cfg.num_cells)))
    got = luxemburg_norm_table(f, CountedCube())
    assert steps and not any(steps) and CountedCube.calls == len(steps)
    for a, b in zip(got, luxemburg_norm_table(f, Power(3))):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("phi", [LlogL(), ExpM1()], ids=["llogl", "expm1"])
def test_luxemburg_norm_beyond_float_range_is_value_error(phi):
    # the norm of the constant 1.7e308 is 1.7e308 / s with s < 1: inf once
    f = GridFunction.constant(LatticeConfig(1, 2, 0.5), 1.7e308)
    with pytest.raises(ValueError, match="beyond the float range"):
        luxemburg_norm(f, ROOT1, phi)
    with pytest.raises(ValueError, match="beyond the float range"):
        luxemburg_norm_table(f, phi)
    # the power closed forms stay at or below the largest value
    assert luxemburg_norm(f, ROOT1, Power(2.0)) == pytest.approx(1.7e308, rel=1e-15)


@pytest.mark.parametrize("phi", [Power(2.0), LlogL()], ids=["power2", "llogl"])
def test_amemiya_beyond_float_range_is_value_error(phi):
    # the Amemiya norm of the constant 1.7e308 is above it: 2x for t^2
    f = GridFunction.constant(LatticeConfig(1, 2, 0.5), 1.7e308)
    with pytest.raises(ValueError, match="Amemiya norm beyond the float range"):
        amemiya_functional(f, ROOT1, phi)
