import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import mask_cubes

from choquet import harness, lattice, spaces
from choquet.harness import SUITES, Suite, UnknownSuiteError, _ratio, _ratios, random_instance, run_suite
from choquet.lattice import CubeId, LatticeConfig, all_cubes, validate_tiling
from choquet.sparse import SparseFamily, verify_sparse
from choquet.young import ExpM1, LlogL, NumericConjugate, young_equality_residual

SMALL = dict(trials=10, L=3, seed=17, n=1, d=0.5)


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("made_up", **SMALL)


def test_registry_is_complete():
    assert set(SUITES) == {
        "adams", "simple_trick", "triangle", "hoelder", "young_suite",
        "verification_ineq", "thm31_first", "thm31_witness", "thm21_empirical",
        "maximal_equiv", "cantor_suite", "cor32", "thm33",
    }


@pytest.mark.parametrize("n, m", [(1, 3), (2, 3), (1, 4)])
def test_cantor_suite_snaps_at_requested_d(n, m):
    # m = n/d sets the contraction; the identities hold exactly for every m >= 2
    r = run_suite("cantor_suite", 1, 6, 0, n=n, d=n / m)
    assert r.status == "pass", r.to_json()
    assert r.details["depth"] == 6 // m


@pytest.mark.parametrize("n, d", [(1, 0.3), (1, 0.9), (2, 1.5)])
def test_cantor_suite_rejects_unsnapped_d(n, d):
    # no integer m gives these d; snapping at m = 2 would check d = n/2 instead
    with pytest.raises(ValueError, match="d = n/m"):
        run_suite("cantor_suite", 1, 6, 0, n=n, d=d)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_small(name):
    r = run_suite(name, **SMALL)
    assert r.status == "pass", r.to_json()
    assert r.counterexample is None
    assert np.isfinite(r.worst_ratio)
    if r.bound is not None:
        assert r.worst_ratio <= r.bound + r.tolerance


@pytest.mark.parametrize("name", ["adams", "young_suite", "cor32"])
def test_reports_are_deterministic(name):
    a = run_suite(name, **SMALL).to_json()
    b = run_suite(name, **SMALL).to_json()
    assert a == b


def test_cached_young_residuals_equal_fresh_conjugates():
    # the cache keeps what fresh numeric conjugates give at every trial point
    for t in harness._YOUNG_TS.tolist():
        want = (young_equality_residual(ExpM1(), min(t, 8.0), NumericConjugate(ExpM1())) / 1e-6,
                young_equality_residual(LlogL(), t, NumericConjugate(LlogL())) / 1e-6)
        assert harness._numeric_young_residuals(t) == want
    assert harness._numeric_young_residuals.cache_info().currsize <= len(harness._YOUNG_TS)


def test_young_suite_same_with_cold_and_warm_cache():
    args = dict(SMALL, trials=30)
    harness._numeric_young_residuals.cache_clear()
    cold = run_suite("young_suite", **args).to_json()
    assert harness._numeric_young_residuals.cache_info().currsize == len(harness._YOUNG_TS)
    assert run_suite("young_suite", **args).to_json() == cold


def test_seed_changes_output():
    a = run_suite("adams", trials=10, L=3, seed=1, n=1, d=0.5)
    b = run_suite("adams", trials=10, L=3, seed=2, n=1, d=0.5)
    assert a.worst_ratio != b.worst_ratio


@pytest.mark.parametrize("field, bad", [("trials", t) for t in [2.5, True, 0, -1, 3.0, None]]
                         + [("seed", s) for s in [1.5, -1, False, np.int64(-2), "7", None]])
def test_run_suite_needs_integer_counts(field, bad):
    # a float count used to fail with TypeError, and trials=True ran one trial
    # reported as "trials": true
    args = {**SMALL, "trials": 4, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        run_suite("adams", **args)


def test_run_suite_takes_numpy_integers():
    args = dict(SMALL, trials=np.int64(4), L=np.int64(3), seed=np.uint32(17))
    assert run_suite("adams", **args).to_json() == run_suite("adams", **dict(SMALL, trials=4)).to_json()


def test_report_json_shape():
    r = run_suite("triangle", **SMALL)
    doc = json.loads(r.to_json())
    for key in ["suite", "trials", "L", "seed", "n", "d", "bound",
                "worst_ratio", "empirical_constant", "tolerance", "status"]:
        assert key in doc
    assert doc["suite"] == "triangle"
    assert doc["trials"] == SMALL["trials"]
    assert doc["status"] == "pass"


def test_failure_reports_counterexample(monkeypatch):
    broken = Suite(lambda ctx, i: (2.0, {"trial": i}), bound=1.0, tolerance=0.0)
    monkeypatch.setitem(SUITES, "broken", broken)
    r = run_suite("broken", **SMALL)
    assert r.status == "fail"
    assert r.counterexample == {"trial": 0}
    assert r.worst_ratio == r.empirical_constant == 2.0
    assert not r.passed


GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())


def _assert_same_report(got, want, path="report"):
    # floats to 1e-9 relative (libm may differ across CPUs), all else exact
    if isinstance(want, float) and isinstance(got, float):
        assert got == want or math.isclose(got, want, rel_tol=1e-9), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            _assert_same_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_report(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, path


@pytest.mark.parametrize("want", GOLDEN, ids=lambda r: f"{r['suite']}-n{r['n']}L{r['L']}")
def test_reports_match_golden(want):
    # 13 suites at (1,6,0.5) and (2,4,1.0), recorded before the suite table
    got = run_suite(want["suite"], want["trials"], want["L"], want["seed"], n=want["n"], d=want["d"])
    _assert_same_report(json.loads(got.to_json()), want)


def test_random_instance_function_contract():
    cfg = LatticeConfig(1, 4, 0.5)
    f = random_instance("function", cfg, seed=[1, 2])
    assert f.config == cfg
    assert f.is_nonnegative()
    g = random_instance("function", cfg, seed=[1, 2])
    assert np.array_equal(f.values, g.values)


def test_random_instance_density():
    cfg = LatticeConfig(2, 3, 1.0)
    mu = random_instance("density", cfg, seed=[4, 5])
    assert mu.config == cfg
    assert mu.is_nonnegative()


def test_random_instance_tiling_valid():
    cfg = LatticeConfig(1, 4, 0.5)
    for s in range(5):
        t = random_instance("tiling", cfg, seed=[7, s])
        assert validate_tiling(cfg, t).ok


def test_random_instance_sparse_family():
    cfg = LatticeConfig(1, 4, 0.5)
    from choquet.sparse import verify_sparse
    for s in range(5):
        fam = random_instance("sparse_family", cfg, seed=[9, s])
        rep = verify_sparse(cfg, fam)
        assert rep.min_ratio >= 0.5 - 1e-12


def _pool_sparse_family(rng, config, eta):
    """The sparse-family draw that lists the cube pool and indexes it."""
    pool = list(all_cubes(config, max_level=min(config.L, 4)))
    count = int(rng.integers(1, min(12, len(pool)) + 1))
    cubes = {pool[i] for i in rng.choice(len(pool), size=count, replace=False)}
    cubes.add(CubeId(0, (0,) * config.n))
    while True:
        fam = SparseFamily(cubes, eta)
        report = verify_sparse(config, fam)
        if report.min_ratio >= eta or len(cubes) == 1:
            return fam
        cubes.discard(report.worst_cube)


@pytest.mark.parametrize("n, L", [(1, 0), (1, 2), (1, 6), (2, 1), (2, 4), (2, 6), (3, 3)])
def test_random_sparse_family_equals_pool_draw(n, L):
    # cube indices mapped by arithmetic pick the cubes the listed pool did
    cfg = LatticeConfig(n, L, n / 2)
    for s in range(20):
        got = random_instance("sparse_family", cfg, seed=[9, s])
        assert got == _pool_sparse_family(np.random.default_rng([9, s]), cfg, 0.5), s


def test_random_instance_unknown_kind():
    cfg = LatticeConfig(1, 2, 0.5)
    with pytest.raises(ValueError):
        random_instance("nope", cfg, seed=[1])


def test_recorded_suites_have_no_bound():
    for name in ["maximal_equiv", "cor32", "thm33"]:
        r = run_suite(name, trials=4, L=3, seed=5, n=1, d=0.5)
        assert r.bound is None
        assert np.isfinite(r.worst_ratio)
        assert r.empirical_constant is not None


def test_ratios_is_ratio_elementwise():
    num = np.array([0.0, -1.0, 2.0, 3.0, 0.0, np.nan, -0.0])
    den = np.array([0.0, 0.0, 0.0, 4.0, 5.0, 0.0, 0.0])
    got = _ratios(num, den)
    want = [_ratio(float(a), float(b)) for a, b in zip(num, den)]
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n, L, d", [(1, 6, 0.5), (2, 4, 1.0), (1, 6, 0.8), (3, 3, 2.2)])
def test_min_block_norm_is_block_norm_of_dp_tiling(n, L, d, monkeypatch):
    # beyond the exhaustive range: the block norm of the DP's tiling, `==`
    # block_norm on its Tiling, with no CubeId, Tiling or greedy search made
    config = LatticeConfig(n, L, d)
    rng = np.random.default_rng(n + L)
    for phi in [LlogL(), ExpM1()]:
        f = random_instance("function", config, [n, L, int(rng.integers(100))])
        _, masks = spaces._tiling_dp(f, 1.0, phi)
        tiling = lattice.Tiling(mask_cubes(masks))
        want = spaces.block_norm(f, 1.0, phi, tiling)

        def forbidden(*args, **kwargs):
            raise AssertionError("built a cube, a tiling or a greedy search")

        with monkeypatch.context() as mp:
            mp.setattr(lattice.CubeId, "__post_init__", forbidden)
            mp.setattr(lattice.Tiling, "__init__", forbidden)
            mp.setattr(spaces, "greedy_min_tiling", forbidden)
            assert harness._min_block_norm(f, 1.0, phi, config) == want
