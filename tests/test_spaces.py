import numpy as np
import pytest
from conftest import configs, per_tile_dual_witness, slice_paint, tilings
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet.content import choquet_integral, choquet_norm, frostman_measure
from choquet.lattice import (
    CubeId,
    GridFunction,
    LatticeConfig,
    Tiling,
    indicator,
    measure_of_cube,
    validate_tiling,
)
from choquet.maximal import fractional_measure_maximal
from choquet.spaces import (
    InadmissibleMeasureError,
    SpaceSpec,
    associate_lower_bound,
    block_norm,
    dual_witness,
    enumerate_tilings,
    greedy_min_tiling,
    morrey_norm,
    orlicz_morrey_norm,
    pairing,
    space_norm,
    tiling_orlicz_morrey_norm,
)
from choquet.young import ExpM1, Identity, LlogL, Power, luxemburg_norm, luxemburg_norm_table

ROOT1 = CubeId(0, (0,))
LEAVES = lambda cfg: Tiling([CubeId(cfg.L, (j,)) for j in range(2**cfg.L)])


def test_morrey_norm_examples():
    cfg = LatticeConfig(1, 2, 0.5)
    leb = GridFunction.constant(cfg, 1.0)
    # M_d(Lebesgue) is identically 1, so every p gives 1
    for p in [1.5, 2.0, np.inf]:
        assert morrey_norm(leb, p) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        morrey_norm(leb, 1.0)


def test_morrey_is_choquet_norm_of_maximal(rng):
    cfg = LatticeConfig(1, 3, 0.5)
    mu = GridFunction(cfg, rng.random(cfg.num_cells))
    md = fractional_measure_maximal(mu).values
    for p in [1.5, 2.0]:
        assert morrey_norm(mu, p) == pytest.approx(choquet_norm(md, p), rel=1e-12)


def test_orlicz_morrey_identity_reduction(rng):
    # with the trivial Young function the Orlicz layer collapses to Morrey
    cfg = LatticeConfig(1, 3, 0.5)
    g = GridFunction(cfg, rng.random(cfg.num_cells))
    for p in [1.5, 2.0]:
        assert orlicz_morrey_norm(g, p, Identity()) == pytest.approx(
            morrey_norm(g, p), rel=1e-9)


def test_orlicz_morrey_sup_branch():
    cfg = LatticeConfig(1, 2, 0.5)
    g = GridFunction.constant(cfg, 2.0)
    # p = inf: sup over cubes of side^(n-d) * ||g||_{Phi;Q}; constants peak at the root
    got = orlicz_morrey_norm(g, np.inf, Power(2))
    assert got == pytest.approx(2.0, rel=1e-9)


def test_block_norm_single_tile(rng):
    cfg = LatticeConfig(1, 3, 0.5)
    f = GridFunction(cfg, rng.random(cfg.num_cells))
    t = Tiling([ROOT1])
    # one tile with content(root) = 1: the norm collapses to the tile norm
    want = luxemburg_norm(f, ROOT1, Power(2))
    got = block_norm(f, 2.0, Power(2), t)
    assert got == pytest.approx(want, rel=1e-9)


def test_block_norm_leaf_tiles_layer_cake(rng):
    cfg = LatticeConfig(1, 3, 0.5)
    vals = rng.random(cfg.num_cells)
    f = GridFunction(cfg, vals)
    # leaf tiles: the profile equals |f| cellwise, independent of phi
    got = block_norm(f, 2.0, Power(2), LEAVES(cfg))
    want = choquet_integral(GridFunction(cfg, vals**2)) ** 0.5
    assert got == pytest.approx(want, rel=1e-9)


oracle_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@oracle_settings
@given(data=st.data())
def test_tiled_norms_match_slice_oracle(data):
    # the tile profile is scalar arithmetic on each tile's norm, painted once: ==
    config = data.draw(configs())
    t = data.draw(tilings(config))
    phi = data.draw(st.sampled_from([Power(2.0), LlogL(), ExpM1()]))
    p = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = GridFunction(config, rng.random(config.num_cells))
    alpha = config.n - config.d

    def oracle(term):
        step = slice_paint(config, t, lambda q: term(q.side, luxemburg_norm(f, q, phi)))
        return choquet_integral(GridFunction(config, step)) ** (1.0 / p)

    assert block_norm(f, p, phi, Tiling(t)) == oracle(lambda side, a: a**p)
    assert tiling_orlicz_morrey_norm(f, p, phi, Tiling(t)) == oracle(lambda side, a: (side**alpha * a) ** p)
    want = max(q.side**alpha * luxemburg_norm(f, q, phi) for q in t)
    assert tiling_orlicz_morrey_norm(f, np.inf, phi, Tiling(t)) == want


@pytest.mark.parametrize("p", [np.inf, np.nan, 0.5])
def test_block_norm_requires_finite_p_at_least_one(p):
    # p = inf once returned 1.0 silently when every tile norm was below 1 (0**0)
    cfg = LatticeConfig(1, 2, 0.5)
    h = GridFunction(cfg, [0.0, 0.07, 0.03, 0.05])
    with pytest.raises(ValueError, match="block exponent must be finite"):
        block_norm(h, p, Power(2), Tiling([CubeId(1, (0,)), CubeId(1, (1,))]))


def test_tiling_orlicz_morrey_single_tile(rng):
    cfg = LatticeConfig(1, 3, 0.5)
    g = GridFunction(cfg, rng.random(cfg.num_cells))
    want = luxemburg_norm(g, ROOT1, LlogL())
    assert tiling_orlicz_morrey_norm(g, np.inf, LlogL(), Tiling([ROOT1])) == pytest.approx(
        want, rel=1e-9)


def test_pairing():
    cfg = LatticeConfig(1, 2, 0.5)
    f = GridFunction(cfg, [2, 0, 1, 0])
    assert pairing(f, f) == pytest.approx((4 + 0 + 1 + 0) / 4)
    assert pairing(f, GridFunction.constant(cfg, 1.0)) == pytest.approx(0.75)


def test_dual_witness_lebesgue_unit():
    cfg = LatticeConfig(1, 2, 0.5)
    f = GridFunction.constant(cfg, 1.0)
    leb = GridFunction.constant(cfg, 1.0)
    w = dual_witness(f, leb, 2.0, Power(2), Tiling([ROOT1]))
    assert np.allclose(w.F.values, w.F.values[0])
    (q, cert, a) = w.certificates[0]
    assert q == ROOT1
    assert a == pytest.approx(1.0, rel=1e-9)
    assert cert <= a + 1e-8


def test_dual_witness_certificates_random(rng):
    cfg = LatticeConfig(1, 4, 0.5)
    for _ in range(10):
        f = GridFunction(cfg, rng.random(cfg.num_cells) + 0.01)
        mask = rng.random(cfg.num_cells) < 0.5
        if not mask.any():
            continue
        mu = frostman_measure(GridFunction(cfg, mask.astype(float)))
        t = Tiling([CubeId(2, (j,)) for j in range(4)])
        w = dual_witness(f, mu, 2.0, Power(2), t)
        for q, cert, a in w.certificates:
            assert cert <= a ** (2.0 - 1.0) + 1e-8
        # the witness pairs against f at least as well as the plain average
        assert pairing(f, w.F) >= 0.0


def test_dual_witness_rejects_inadmissible():
    cfg = LatticeConfig(1, 2, 0.5)
    f = GridFunction.constant(cfg, 1.0)
    heavy = GridFunction.constant(cfg, 10.0)
    with pytest.raises(InadmissibleMeasureError) as err:
        dual_witness(f, heavy, 2.0, Power(2), Tiling([ROOT1]))
    assert err.value.cube is not None


def test_dual_witness_rejects_negative_density():
    cfg = LatticeConfig(1, 2, 0.5)
    f = GridFunction.constant(cfg, 1.0)
    mu = GridFunction(cfg, [0.5, -0.25, 0.0, 0.0])
    with pytest.raises(ValueError, match="negative"):
        dual_witness(f, mu, 2.0, Power(2), Tiling([ROOT1]))


def _finest_offender(mu: GridFunction, tol: float = 1e-12):
    """The first cube, finest level first and C order within a level, whose
    mass exceeds side^d."""
    config = mu.config
    for k in range(config.L, -1, -1):
        for idx in np.ndindex(*(2**k,) * config.n):
            if measure_of_cube(mu, CubeId(k, idx)) > 2.0 ** (-k * config.d) + tol:
                return CubeId(k, idx)
    return None


@oracle_settings
@given(config=configs(), seed=st.integers(0, 2**32 - 1))
def test_inadmissible_measure_reports_finest_offender(config, seed):
    rng = np.random.default_rng(seed)
    # dyadic densities: every cube mass is exact, so the scan order alone decides
    scale = 2.0 ** int(rng.integers(-3, config.n * config.L + 1)) / 8.0
    mu = GridFunction(config, rng.integers(0, 9, config.num_cells) * scale)
    f = GridFunction.constant(config, 1.0)
    root = Tiling([CubeId(0, (0,) * config.n)])
    want = _finest_offender(mu)
    if want is None:
        dual_witness(f, mu, 2.0, Power(2), root)
    else:
        with pytest.raises(InadmissibleMeasureError) as err:
            dual_witness(f, mu, 2.0, Power(2), root)
        assert err.value.cube == want


@oracle_settings
@given(data=st.data())
def test_dual_witness_matches_per_tile_oracle(data):
    # tile norms are table entries (== single cubes); F and the certificates
    # sum each tile's Phibar and mass in another order, hence the 1e-14
    config = data.draw(configs())
    t = Tiling(data.draw(tilings(config)))
    phi = data.draw(st.sampled_from([Identity(), Power(1.5), Power(3.0), LlogL(), ExpM1()]))
    p = data.draw(st.floats(1.0, 4.0, exclude_min=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    zero = [q for q in t if rng.random() < 0.3]
    keep = 1.0 - slice_paint(config, zero, lambda q: 1.0)
    f = GridFunction(config, rng.random(config.grid_shape) * keep)
    mask = rng.random(config.num_cells) < rng.random()
    mask[rng.integers(config.num_cells)] = True  # a Frostman measure needs a non-empty set
    mu = frostman_measure(GridFunction(config, mask.astype(float)))

    w = dual_witness(f, mu, p, phi, t)
    F, certs = per_tile_dual_witness(f, mu, p, phi, t)
    assert [(q, a) for q, _, a in w.certificates] == [(q, a) for q, _, a in certs]
    np.testing.assert_allclose(w.F.values, F.values, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose([c for _, c, _ in w.certificates], [c for _, c, _ in certs], rtol=1e-14, atol=0.0)
    for q, cert, a in w.certificates:
        if a == 0.0:
            assert cert == 0.0
            assert not w.F.restrict(q).any()


@oracle_settings
@given(data=st.data())
def test_dual_witness_certificates_match_table_of_F(data):
    # one solve over the tiles gives the entries of F's full Luxemburg table
    config = data.draw(configs())
    t = Tiling(data.draw(tilings(config)))
    phi = data.draw(st.sampled_from([Identity(), Power(1.5), Power(3.0), LlogL(), ExpM1()]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = GridFunction(config, rng.random(config.grid_shape) * (rng.random(config.grid_shape) < 0.8))
    mu = frostman_measure(GridFunction.constant(config, 1.0))
    w = dual_witness(f, mu, 2.5, phi, t)
    table = luxemburg_norm_table(w.F, phi.complementary())
    alpha = config.n - config.d
    assert [cert for _, cert, _ in w.certificates] == [
        q.side**alpha * float(table[q.level][q.index]) if a > 0.0 else 0.0 for q, _, a in w.certificates]


def test_dual_witness_rejects_p_le_1():
    cfg = LatticeConfig(1, 1, 0.5)
    f = GridFunction.constant(cfg, 1.0)
    with pytest.raises(ValueError):
        dual_witness(f, f, 1.0, Power(2), Tiling([ROOT1]))


def test_space_norm_dispatch(rng):
    cfg = LatticeConfig(1, 3, 0.5)
    g = GridFunction(cfg, rng.random(cfg.num_cells))
    assert space_norm(g, SpaceSpec("morrey", p=2.0)) == morrey_norm(g, 2.0)
    t = Tiling([ROOT1])
    assert space_norm(g, SpaceSpec("block", p=2.0, phi=Power(2), tiling=t)) == block_norm(
        g, 2.0, Power(2), t)
    with pytest.raises(ValueError):
        space_norm(g, SpaceSpec("nope"))


@pytest.mark.parametrize("spec, missing", [
    (SpaceSpec("block", p=1.0, phi=Power(2)), "tiling"),
    (SpaceSpec("block", phi=Power(2), tiling=Tiling([ROOT1])), "p"),
    (SpaceSpec("orlicz_morrey", p=2.0), "phi"),
    (SpaceSpec("morrey"), "p"),
    (SpaceSpec("tiling_orlicz_morrey"), "p, phi, tiling"),
    (SpaceSpec("orlicz_morrey_inf"), "phi"),
])
def test_space_norm_names_missing_field(spec, missing):
    g = GridFunction.constant(LatticeConfig(1, 2, 0.5), 1.0)
    with pytest.raises(ValueError, match=f"needs {missing}$"):
        space_norm(g, spec)


def test_associate_lower_bound_basics(rng):
    cfg = LatticeConfig(1, 3, 0.5)
    spec = SpaceSpec("morrey", p=2.0)
    zero = GridFunction.zeros(cfg)
    assert associate_lower_bound(zero, spec, 8, 1) == 0.0
    f = GridFunction(cfg, rng.random(cfg.num_cells))
    few = associate_lower_bound(f, spec, 2, 7)
    many = associate_lower_bound(f, spec, 30, 7)
    assert many >= few - 1e-15
    # determinism
    assert associate_lower_bound(f, spec, 30, 7) == many
    with pytest.raises(ValueError):
        associate_lower_bound(f, spec, 0, 7)


def test_enumerate_tilings_counts():
    # counts follow T(l+1) = T(l)^2 + 1 quadtree recursion: 1, 2, 5, 26
    assert sum(1 for _ in enumerate_tilings(LatticeConfig(1, 1, 0.5))) == 2
    assert sum(1 for _ in enumerate_tilings(LatticeConfig(1, 2, 0.5))) == 5
    assert sum(1 for _ in enumerate_tilings(LatticeConfig(1, 3, 0.5))) == 26
    cfg = LatticeConfig(2, 1, 1.0)
    assert sum(1 for _ in enumerate_tilings(cfg)) == 2


def test_enumerate_tilings_order():
    # a cube alone first, then its children's tilings with the last child varying fastest
    cubes = lambda *names: Tiling(CubeId.parse(c) for c in names)
    assert list(enumerate_tilings(LatticeConfig(1, 2, 0.5))) == [
        cubes("0:0"),
        cubes("1:0", "1:1"),
        cubes("1:0", "2:2", "2:3"),
        cubes("2:0", "2:1", "1:1"),
        cubes("2:0", "2:1", "2:2", "2:3"),
    ]


def test_enumerate_tilings_all_valid():
    cfg = LatticeConfig(1, 3, 0.5)
    for t in enumerate_tilings(cfg):
        assert validate_tiling(cfg, t).ok


def test_greedy_min_tiling_matches_exhaustive(rng):
    cfg = LatticeConfig(1, 3, 0.5)
    g = GridFunction(cfg, rng.random(cfg.num_cells))

    def objective(t):
        return tiling_orlicz_morrey_norm(g, np.inf, LlogL(), t)

    best = min(objective(t) for t in enumerate_tilings(cfg))
    t, val = greedy_min_tiling(cfg, objective)
    assert validate_tiling(cfg, t).ok
    assert val == pytest.approx(objective(t), rel=1e-12)
    # greedy descent cannot beat the exhaustive optimum
    assert val >= best - 1e-12


def test_verification_inequality_constant_two(rng):
    # pairing(f, g) <= 2 ||f||_{L1(H^d)} * tiled dual norm, f supported in one tile
    cfg = LatticeConfig(1, 4, 0.5)
    for _ in range(20):
        g = GridFunction(cfg, rng.random(cfg.num_cells))
        q0 = CubeId(1, (int(rng.integers(0, 2)),))
        grid = np.zeros(cfg.grid_shape)
        sl = (slice(q0.index[0] * 8, (q0.index[0] + 1) * 8),)
        grid[sl] = rng.random(8)
        f = GridFunction(cfg, grid.reshape(-1))
        t = Tiling([CubeId(1, (0,)), CubeId(1, (1,))])
        lhs = pairing(f, g)
        rhs = choquet_norm(f, 1.0) * tiling_orlicz_morrey_norm(g, np.inf, LlogL(), t)
        if rhs > 0:
            assert lhs <= 2.0 * rhs + 1e-10
