import conftest
import numpy as np
import pytest
from conftest import (
    configs,
    mask_cubes,
    per_tile_dual_witness,
    per_witness_lower_bound,
    powered_choquet_norm,
    slice_paint,
    tilings,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet.content import choquet_integral, choquet_norm, frostman_measure
from choquet.lattice import (
    CubeId,
    GridFunction,
    LatticeConfig,
    Tiling,
    children,
    indicator,
    measure_of_cube,
    paint,
    validate_masks,
    validate_tiling,
)
from choquet import spaces, young
from choquet.maximal import fractional_measure_maximal, orlicz_fractional_maximal
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
from choquet.young import (
    ExpM1,
    ExpM1Conjugate,
    Identity,
    IdentityConjugate,
    LlogL,
    NumericConjugate,
    Power,
    PowerConjugate,
    luxemburg_norm,
    luxemburg_norm_table,
)

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


SUP_VALUES = {
    "zero": lambda rng, size: np.zeros(size),
    "constant": lambda rng, size: np.full(size, 1.75),
    "uniform": lambda rng, size: rng.random(size),
    "lognormal": lambda rng, size: np.exp(rng.normal(0.0, 3.0, size)),
    "spiky": lambda rng, size: np.exp2(rng.uniform(0.0, 8.0, size)) * (rng.random(size) < 0.06),
    "one_spike": lambda rng, size: np.where(np.arange(size) == rng.integers(size), 7.0, 1e-6),
    "near_max": lambda rng, size: 1e308 * (0.5 + 0.5 * rng.random(size)) * (rng.random(size) < 0.7),
    "tiny": lambda rng, size: 1e-300 * rng.random(size),
}
SUP_PHIS = [Identity(), IdentityConjugate(), Power(2.5), PowerConjugate(1.5), LlogL(), ExpM1(), ExpM1Conjugate(),
            NumericConjugate(ExpM1())]


@st.composite
def sup_batches(draw):
    """One to three functions on one lattice of at most 64 cells (L = 0 included)."""
    n = draw(st.integers(1, 3))
    cfg = LatticeConfig(n, draw(st.integers(0, 6 // n)), draw(st.sampled_from([0.25, 0.5, 0.9])) * n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(sorted(SUP_VALUES)), min_size=1, max_size=3))
    return [GridFunction(cfg, SUP_VALUES[kind](rng, cfg.num_cells)) for kind in kinds]


def _table_sup(g: GridFunction, phi) -> float:
    """The sup norm read off g's whole Luxemburg table: the slow-path oracle."""
    alpha = g.config.n - g.config.d
    return max(float(2.0 ** (-k * alpha) * a.max()) for k, a in enumerate(luxemburg_norm_table(g, phi)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(sup_batches(), st.sampled_from(SUP_PHIS), st.sampled_from([None, 1, 64]))
def test_orlicz_morrey_sup_equals_table_max(gs, phi, budget):
    # candidate cubes only, one function or several at once, against every
    # cube; a small patched budget splits the candidates into more solves
    want = [_table_sup(GridFunction(g.config, g.values), phi) for g in gs]
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(young, "_LUX_GROUP_ENTRIES", budget)
        assert [orlicz_morrey_norm(g, np.inf, phi) for g in gs] == want
        assert spaces._sup_norms(gs, phi) == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sup_batches(), st.sampled_from(SUP_PHIS))
def test_orlicz_morrey_norm_is_choquet_norm_of_maximal(gs, phi):
    # the norm read off the fractional Orlicz maximal function, as
    # `thm21_empirical` does: at p = inf its max, the same products as the
    # sup over cubes
    for g in gs:
        omg = orlicz_fractional_maximal(g, g.config.n - g.config.d, phi).values
        for p in [2.0, np.inf]:
            assert orlicz_morrey_norm(g, p, phi) == choquet_norm(omg, p)


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
    # the tile profile is one product per tile, painted once, so the norms
    # are == choquet_norm of the slice-painted profile; the Choquet integral
    # of the powered profile rounds its powers differently
    config = data.draw(configs())
    t = data.draw(tilings(config))
    phi = data.draw(st.sampled_from([Power(2.0), LlogL(), ExpM1()]))
    p = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = GridFunction(config, rng.random(config.num_cells))
    alpha = config.n - config.d
    tiling = Tiling(t)

    def profile(power):
        return GridFunction(config, slice_paint(config, t, lambda q: q.side**power * luxemburg_norm(f, q, phi)))

    cases = [(tiling_orlicz_morrey_norm(f, p, phi, tiling), profile(alpha))]
    if p < np.inf:
        cases.append((block_norm(f, p, phi, tiling), profile(0.0)))
    for got, step in cases:
        assert got == choquet_norm(step, p)
        if p < np.inf:
            composed = powered_choquet_norm(step, p)
            assert abs(got - composed) <= 2e-15 * composed


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


def test_pairing_near_the_float_range():
    # the cell volume scales f before the product: 1e155 * 1e155 alone is
    # beyond the range, 1e310 / 64 is not; 1.7e308^2 / 4 * 4 is
    f = GridFunction(LatticeConfig(1, 6, 0.5), [1e155] + [0.0] * 63)
    assert pairing(f, f) == 1.5625e308
    f = GridFunction.constant(LatticeConfig(1, 2, 0.5), 1.7e308)
    with pytest.raises(ValueError, match="beyond the float range"):
        pairing(f, f)


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


@pytest.mark.parametrize("mu_config", [LatticeConfig(1, 3, 0.25), LatticeConfig(1, 2, 0.5)], ids=["other_d", "other_L"])
def test_dual_witness_needs_mu_on_the_lattice_of_f(mu_config):
    # a measure on another lattice is refused, not checked against its own d
    f = GridFunction(LatticeConfig(1, 3, 0.5), np.arange(1.0, 9.0))
    mu = GridFunction.constant(mu_config, 0.5)
    with pytest.raises(ValueError, match="common lattice"):
        dual_witness(f, mu, 2.0, Power(2), Tiling([ROOT1]))


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


def _capped_witness(f, mu, phi, t, cap):
    """dual_witness with the Luxemburg group cap patched to `cap`, and the
    block shapes of each solve of certificates it makes: those are the
    solves for Phibar, whose type differs from phi's, not f's table."""
    group, solves = young._luxemburg_group, []

    def counted(psi, blocks):
        if type(psi) is not type(phi):
            solves.append([b.shape for b in blocks])
        return group(psi, blocks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(young, "_LUX_GROUP_ENTRIES", cap)
        mp.setattr(young, "_luxemburg_group", counted)
        return dual_witness(f, mu, 2.5, phi, t), solves


def _assert_same_witness(w, v):
    assert np.array_equal(w.F.values, v.F.values)
    assert w.certificates == v.certificates


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_dual_witness_same_under_any_group_cap(data):
    # the tiles' blocks, one per level, split into solves by the cap: one
    # entry (a solve per level), one level's entries, the kept cap and one
    # solve for all give the same F and certificates
    config = data.draw(configs())
    t = Tiling(data.draw(tilings(config)))
    phi = data.draw(st.sampled_from([Identity(), Power(3.0), LlogL(), ExpM1()]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = GridFunction(config, rng.random(config.num_cells) * (rng.random(config.num_cells) < 0.8))
    mu = frostman_measure(GridFunction.constant(config, 1.0))
    one, solves = _capped_witness(f, mu, phi, t, 2**62)
    assert len(solves) == 1
    for cap in [1, config.num_cells, young._LUX_GROUP_ENTRIES]:
        w, solves = _capped_witness(f, mu, phi, t, cap)
        _assert_same_witness(w, one)
        if cap == 1:
            assert len(solves) == len({q.level for q in t})


@pytest.mark.parametrize("phi", [Power(3.0), LlogL(), ExpM1()], ids=lambda p: p.name)
def test_dual_witness_obeys_group_cap_on_large_lattices(phi):
    # 2^16 cells of tiles pass the kept cap of 2^14 entries, so the tile
    # blocks split into solves of at most that many entries (a bigger
    # block alone), in (level, index) order, with the one-solve answer
    config = LatticeConfig(2, 8, 1.0)
    rng = np.random.default_rng(3)
    cubes, stack = [], [CubeId(0, (0, 0))]
    while stack:
        q = stack.pop()
        if q.level < config.L and rng.random() < 0.9 - 0.1 * q.level:
            stack.extend(children(config, q))
        else:
            cubes.append(q)
    t = Tiling(cubes)
    f = GridFunction(config, rng.random(config.num_cells))
    mu = frostman_measure(GridFunction.constant(config, 1.0))
    w, solves = _capped_witness(f, mu, phi, t, young._LUX_GROUP_ENTRIES)
    one, _ = _capped_witness(f, mu, phi, t, 2**62)
    _assert_same_witness(w, one)
    levels = sorted({q.level for q in t})
    assert len(levels) > 2 and len(solves) > 1
    assert sum(solves, []) == [(sum(q.level == k for q in t), 4 ** (config.L - k)) for k in levels]
    assert all(len(s) == 1 or sum(r * c for r, c in s) <= young._LUX_GROUP_ENTRIES for s in solves)


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


def _associate_specs(cfg):
    """One spec per `SpaceSpec` tag, on the tiling by the root's children."""
    halves = Tiling(sorted(children(cfg, CubeId(0, (0,) * cfg.n)), key=lambda q: q.index))
    return [
        SpaceSpec("morrey", p=2.0),
        SpaceSpec("orlicz_morrey", p=2.0, phi=LlogL()),
        SpaceSpec("orlicz_morrey_inf", phi=ExpM1()),
        SpaceSpec("block", p=1.5, phi=LlogL(), tiling=halves),
        SpaceSpec("tiling_orlicz_morrey", p=2.0, phi=ExpM1(), tiling=halves),
        SpaceSpec("orlicz_morrey_inf", phi=PowerConjugate(2.0)),
    ]


@pytest.mark.parametrize("n, L", [(1, 6), (2, 4), (3, 2)])
def test_associate_lower_bound_matches_per_witness_loop(n, L, monkeypatch):
    # all witnesses normed together against each normed on its own by
    # space_norm; |f| itself is usually the best witness, so every
    # witness's norm and pairing is compared too, in order.  The inf specs
    # norm every witness in one `_sup_norms` call, the others none.
    cfg = LatticeConfig(n, L, n / 2)
    rng = np.random.default_rng(10 * n + L)
    functions = [GridFunction(cfg, np.exp(rng.normal(0.0, 1.5, cfg.num_cells)) * (rng.random(cfg.num_cells) < 0.6)),
                 GridFunction.zeros(cfg)]

    def recording(fn, log, calls=None):
        def call(*args):
            out = fn(*args)
            if calls is None:
                log.append(out)
            else:
                log.extend(out)
                calls.append(len(out))
            return out
        return call

    for spec in _associate_specs(cfg):
        for f in functions:
            for witnesses, seed in [(24, 3), (7, 11)]:
                runs, sup_calls = [], []
                for module, bound in [(spaces, associate_lower_bound), (conftest, per_witness_lower_bound)]:
                    norms, pairings = [], []
                    with monkeypatch.context() as mp:
                        mp.setattr(module, "space_norm", recording(space_norm, norms))
                        mp.setattr(module, "pairing", recording(pairing, pairings))
                        if module is spaces:
                            mp.setattr(spaces, "_sup_norms", recording(spaces._sup_norms, norms, sup_calls))
                        runs.append((bound(f, spec, witnesses, seed), norms, pairings))
                assert runs[0] == runs[1]
                assert runs[0][1] != []
                assert sup_calls == ([len(runs[0][1])] if spec.tag == "orlicz_morrey_inf" else [])


@pytest.mark.parametrize("n, L, seed", [(1, 3, 0), (2, 2, 14)])
def test_associate_lower_bound_skips_an_empty_random_set(n, L, seed):
    # at these seeds one random set is drawn empty: it is skipped, the
    # later draws keep their order, and the bound is the per-witness loop's
    cfg = LatticeConfig(n, L, n / 2)
    f = GridFunction(cfg, np.arange(1.0, cfg.num_cells + 1.0))
    assert len(spaces._witnesses(f, 24, np.random.default_rng(seed))) < 24
    for spec in _associate_specs(cfg):
        assert associate_lower_bound(f, spec, 24, seed) == per_witness_lower_bound(f, spec, 24, seed)


@pytest.mark.parametrize("spec", [SpaceSpec("sobolev", p=2.0, phi=ExpM1()), SpaceSpec("orlicz_morrey", p=2.0),
                                  SpaceSpec("block", phi=LlogL())], ids=["unknown_tag", "missing_phi", "missing_p_tiling"])
def test_associate_lower_bound_checks_spec_first(spec, monkeypatch):
    # a bad spec fails as in space_norm, before a witness or a norm exists
    f = GridFunction(LatticeConfig(1, 3, 0.5), np.arange(8.0))
    with pytest.raises(ValueError) as want:
        space_norm(f, spec)

    def forbidden(*args, **kwargs):
        raise AssertionError("drew a witness or normed one")

    monkeypatch.setattr(spaces, "_witnesses", forbidden)
    monkeypatch.setattr(spaces, "_sup_norms", forbidden)
    monkeypatch.setattr(young, "_luxemburg_rows", forbidden)
    with pytest.raises(ValueError) as got:
        associate_lower_bound(f, spec, 24, 1)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name, bad", [("witnesses", w) for w in [0, -3, 2.5, 3.0, np.nan, "3", None, True, np.float64(3.0)]]
                         + [("seed", s) for s in [-1, 2.5, None, "7", np.nan, False, np.int64(-2)]])
def test_associate_lower_bound_needs_integer_counts(name, bad, monkeypatch):
    # a ValueError naming the argument, before any witness is drawn: seed=None
    # would draw OS entropy, and a float count used to fail inside range()
    f = GridFunction(LatticeConfig(1, 3, 0.5), np.arange(8.0))

    def forbidden(*args, **kwargs):
        raise AssertionError("drew a witness")

    monkeypatch.setattr(spaces, "_witnesses", forbidden)
    counts = {"witnesses": 3, "seed": 1, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        associate_lower_bound(f, SpaceSpec("orlicz_morrey_inf", phi=ExpM1()), **counts)


def test_associate_lower_bound_takes_numpy_integers():
    f = GridFunction(LatticeConfig(2, 3, 1.0), np.arange(64.0))
    spec = SpaceSpec("orlicz_morrey_inf", phi=ExpM1())
    want = associate_lower_bound(f, spec, 9, 4)
    assert associate_lower_bound(f, spec, np.int64(9), np.uint8(4)) == want
    assert associate_lower_bound(f, spec, np.int32(9), 4) == want


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


def _dp_functions(cfg, rng):
    """Spread data, a spike on one leaf over a faint floor (its optimum is
    not the root at d > n/2), and a spike per half."""
    spike = 1e-3 * rng.random(cfg.num_cells)
    spike[int(rng.integers(cfg.num_cells))] = 50.0
    halves = np.zeros(cfg.num_cells)
    halves[[0, cfg.num_cells - 1]] = [8.0, 3.0]
    return [GridFunction(cfg, np.exp(rng.normal(0.0, 2.0, cfg.num_cells))), GridFunction(cfg, spike),
            GridFunction(cfg, halves)]


@pytest.mark.parametrize("n, L", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)])
@pytest.mark.parametrize("share", [0.3, 0.5, 0.8], ids=["d<n/2", "d=n/2", "d>n/2"])
def test_tiling_dp_matches_enumeration(n, L, share):
    # the DP against every tiling: its value is the least sum of side^d * a^p
    # (to the 1/p), its masks are a tiling, that tiling is the argmin where
    # the argmin is unique, and the painted table is its block norm exactly
    cfg = LatticeConfig(n, L, share * n)
    rng = np.random.default_rng(100 * n + 10 * L + round(10 * share))
    tilings_ = list(enumerate_tilings(cfg))
    for f in _dp_functions(cfg, rng):
        for phi in [LlogL(), ExpM1(), Power(2.0)]:
            table = luxemburg_norm_table(f, phi)
            for p in [1.0, 2.0]:
                value, masks = spaces._tiling_dp(table, p, cfg.d)
                sums = sorted((sum(q.side**cfg.d * table[q.level][q.index] ** p for q in t), i)
                              for i, t in enumerate(tilings_))
                assert value == pytest.approx(sums[0][0] ** (1.0 / p), rel=1e-12)
                assert validate_masks(masks).ok
                t = Tiling(mask_cubes(masks))
                if len(sums) == 1 or sums[1][0] > sums[0][0] * (1.0 + 1e-9):
                    assert t == tilings_[sums[0][1]]
                profile = GridFunction(cfg, paint(masks, table))
                assert choquet_norm(profile, p) == block_norm(f, p, phi, t)


def test_tiling_dp_picks_fine_tiles_for_a_spike():
    # a spike's own leaf is much cheaper than the root at d > n/2: the DP
    # leaves the root, and its sum beats the greedy descent's on the same
    # objective, which it must, being the exact minimum
    cfg = LatticeConfig(1, 6, 0.8)
    f = _dp_functions(cfg, np.random.default_rng(3))[1]
    table = luxemburg_norm_table(f, ExpM1())
    value, masks = spaces._tiling_dp(table, 1.0, cfg.d)
    assert not masks[0].any() and validate_masks(masks).ok
    t, greedy = greedy_min_tiling(cfg, lambda t: sum(q.side**cfg.d * table[q.level][q.index] for q in t))
    assert value <= greedy * (1.0 + 1e-12)


@pytest.mark.parametrize("n, L", [(1, 0), (1, 4), (2, 3), (3, 2)])
def test_tiling_dp_of_zero_is_the_root(n, L):
    f = GridFunction.zeros(LatticeConfig(n, L, n / 2))
    value, masks = spaces._tiling_dp(luxemburg_norm_table(f, LlogL()), 1.0, f.config.d)
    assert value == 0.0
    assert masks[0].all() and not any(m.any() for m in masks[1:])


def test_tiling_dp_scales_before_powers():
    # a^p beyond the float range: the DP divides by the largest a first
    cfg = LatticeConfig(1, 4, 0.5)
    f = GridFunction(cfg, np.full(cfg.num_cells, 1e200))
    value, masks = spaces._tiling_dp(luxemburg_norm_table(f, Power(2.0)), 2.0, cfg.d)
    assert value == pytest.approx(1e200, rel=1e-12) and masks[0].all()


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
