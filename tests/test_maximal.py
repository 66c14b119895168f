from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet import maximal
from choquet.content import frostman_measure
from choquet.lattice import (
    CubeId,
    GridFunction,
    LatticeConfig,
    all_cubes,
    indicator,
    measure_of_cube,
)
from choquet.maximal import fractional_measure_maximal, hl_maximal, orlicz_fractional_maximal
from choquet.young import Identity, LlogL, Power, luxemburg_norm

from conftest import leaf_sweep

oracle_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# The three operators (Orlicz with two Young functions), each a function
# of one nonnegative leaf function.
MAXIMAL_OPS = {
    "hl": hl_maximal,
    "M_d": fractional_measure_maximal,
    "orlicz_identity": lambda f: orlicz_fractional_maximal(f, f.config.n - f.config.d, Identity()),
    "orlicz_power2": lambda f: orlicz_fractional_maximal(f, f.config.n - f.config.d, Power(2.0)),
}


def brute_hl(f):
    """Max cube average over all cubes containing each leaf, by direct scan."""
    cfg = f.config
    out = np.zeros(cfg.grid_shape)
    for q in all_cubes(cfg):
        w = 2 ** (cfg.L - q.level)
        sl = tuple(slice(j * w, (j + 1) * w) for j in q.index)
        out[sl] = np.maximum(out[sl], float(f.restrict(q).mean()))
    return out


def test_hl_constant_is_fixed_point():
    cfg = LatticeConfig(2, 2, 1.0)
    f = GridFunction.constant(cfg, 3.0)
    m = hl_maximal(f)
    assert np.all(m.values.values == 3.0)


def test_hl_example_with_argmax():
    cfg = LatticeConfig(1, 1, 0.5)
    m = hl_maximal(GridFunction(cfg, [2.0, 0.0]))
    assert np.array_equal(m.values.values, [2.0, 1.0])
    # left cell attains its max on the leaf, right cell on the root
    assert m.argmax_cube((0,)) == CubeId(1, (0,))
    assert m.argmax_cube((1,)) == CubeId(0, (0,))


def test_hl_matches_brute_force(rng):
    for cfg in [LatticeConfig(1, 4, 0.5), LatticeConfig(2, 3, 1.0)]:
        for _ in range(10):
            f = GridFunction(cfg, rng.random(cfg.num_cells))
            m = hl_maximal(f)
            assert np.allclose(m.values.grid, brute_hl(f), rtol=1e-13)


def test_hl_dominates_function(rng):
    cfg = LatticeConfig(2, 3, 1.0)
    f = GridFunction(cfg, rng.random(cfg.num_cells))
    assert np.all(hl_maximal(f).values.values >= f.values - 1e-15)


def test_argmax_cube_attains_value(rng):
    cfg = LatticeConfig(1, 4, 0.5)
    f = GridFunction(cfg, rng.random(cfg.num_cells))
    m = hl_maximal(f)
    for cell in [(0,), (5,), (15,)]:
        q = m.argmax_cube(cell)
        # the recorded cube contains the cell and attains the sweep value
        w = 2 ** (cfg.L - q.level)
        assert q.index[0] * w <= cell[0] < (q.index[0] + 1) * w
        assert float(f.restrict(q).mean()) == pytest.approx(m.values.grid[cell], rel=1e-13)


@pytest.mark.parametrize("n, cell", [(1, (8,)), (1, (0, 0)), (1, (-1,)), (1, (1.5,)), (1, (True,)), (1, ()),
                                     (2, (3,)), (2, (0, 8))])
def test_argmax_cube_rejects_cells_off_the_lattice(n, cell):
    # n integer indices in [0, 2^L); an index past the grid or a wrong
    # count used to raise IndexError, and -1 wrapped to the last cell
    cfg = LatticeConfig(n, 3, n / 2)
    m = hl_maximal(GridFunction.constant(cfg, 1.0))
    with pytest.raises(ValueError):
        m.argmax_cube(cell)
    assert m.argmax_cube((np.int64(7),) * n) == CubeId(0, (0,) * n)


def test_fractional_measure_maximal_examples():
    cfg = LatticeConfig(1, 2, 0.5)
    # Lebesgue density 1: mu(Q)/side^d = side^(1-d) maximized at the root
    leb = GridFunction.constant(cfg, 1.0)
    m = fractional_measure_maximal(leb)
    assert np.allclose(m.values.values, 1.0)
    assert np.all(m.argmax_levels == 0)
    # Frostman measure of a set normalizes every point to exactly 1 somewhere
    E = GridFunction(cfg, [1, 0, 1, 0])
    mu = frostman_measure(E)
    got = fractional_measure_maximal(mu)
    assert got.values.grid.max() == pytest.approx(1.0, abs=1e-12)


def test_fractional_measure_maximal_brute(rng):
    cfg = LatticeConfig(2, 3, 1.3)
    mu = GridFunction(cfg, rng.random(cfg.num_cells))
    m = fractional_measure_maximal(mu)
    out = np.zeros(cfg.grid_shape)
    for q in all_cubes(cfg):
        w = 2 ** (cfg.L - q.level)
        sl = tuple(slice(j * w, (j + 1) * w) for j in q.index)
        val = measure_of_cube(mu, q) / q.side**cfg.d
        out[sl] = np.maximum(out[sl], val)
    assert np.allclose(m.values.grid, out, rtol=1e-13)


def test_orlicz_identity_reduces_to_fractional_average(rng):
    cfg = LatticeConfig(1, 3, 0.5)
    f = GridFunction(cfg, rng.random(cfg.num_cells))
    alpha = cfg.n - cfg.d
    got = orlicz_fractional_maximal(f, alpha, Identity())
    out = np.zeros(cfg.grid_shape)
    for q in all_cubes(cfg):
        w = 2 ** (cfg.L - q.level)
        sl = (slice(q.index[0] * w, (q.index[0] + 1) * w),)
        val = q.side**alpha * luxemburg_norm(f, q, Identity())
        out[sl] = np.maximum(out[sl], val)
    assert np.allclose(got.values.grid, out, rtol=1e-10)


def test_orlicz_maximal_dominates_measure_maximal(rng):
    # the pointwise bound behind the maximal equivalence suite:
    # M_d(f dx) <= M_{n-d, LlogL} f up to luxemburg normalization slack
    cfg = LatticeConfig(1, 4, 0.5)
    for _ in range(5):
        f = GridFunction(cfg, rng.random(cfg.num_cells))
        md = fractional_measure_maximal(f).values.values
        mo = orlicz_fractional_maximal(f, cfg.n - cfg.d, LlogL()).values.values
        assert np.all(md <= mo * (1 + 1e-10) + 1e-12)


def test_orlicz_maximal_indicator():
    cfg = LatticeConfig(2, 2, 1.0)
    f = GridFunction.constant(cfg, 1.0)
    m = orlicz_fractional_maximal(f, 1.0, LlogL())
    # constants give side^alpha / ||1||^-1 ... just require root attains max
    assert np.all(m.values.values == m.values.values[0])


def test_maximal_homogeneity(rng):
    cfg = LatticeConfig(1, 3, 0.5)
    f = GridFunction(cfg, rng.random(cfg.num_cells))
    g = GridFunction(cfg, 4.0 * f.values)
    assert np.allclose(hl_maximal(g).values.values,
                       4.0 * hl_maximal(f).values.values, rtol=1e-13)
    mo_f = orlicz_fractional_maximal(f, 0.5, LlogL()).values.values
    mo_g = orlicz_fractional_maximal(g, 0.5, LlogL()).values.values
    assert np.allclose(mo_g, 4.0 * mo_f, rtol=1e-7)


def assert_sweeps_match_leaf_sweep(f):
    """Each operator against the same statistics swept on the leaf grid:
    `==` values, the same argmax levels, and no memory shared with f."""
    for name, op in MAXIMAL_OPS.items():
        got = op(f)
        with mock.patch.object(maximal, "_sweep", leaf_sweep):
            want = op(f)
        assert np.array_equal(got.values.values, want.values.values), name
        assert got.argmax_levels.dtype == want.argmax_levels.dtype, name
        assert got.argmax_levels.shape == want.argmax_levels.shape == f.config.grid_shape, name
        assert np.array_equal(got.argmax_levels, want.argmax_levels), name
        assert not np.shares_memory(got.values.values, f.values), name
        assert not np.shares_memory(got.argmax_levels, f.values), name


@st.composite
def quantised_functions(draw):
    """Values on a few levels, zero included, so cube statistics tie
    across levels and the tie rule decides the argmax."""
    n = draw(st.integers(1, 3))
    cfg = LatticeConfig(n, draw(st.integers(0, 5)), n / 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = draw(st.integers(1, 8))
    return GridFunction(cfg, np.floor(rng.random(cfg.num_cells) * steps) / steps)


@oracle_settings
@given(quantised_functions())
def test_sweeps_match_leaf_sweep_with_ties(f):
    assert_sweeps_match_leaf_sweep(f)


def test_tie_keeps_larger_cube():
    # a constant's statistics tie at every level for hl and Identity
    f = GridFunction.constant(LatticeConfig(2, 3, 1.0), 0.5)
    assert np.all(hl_maximal(f).argmax_levels == 0)
    assert np.all(orlicz_fractional_maximal(f, 1.0, Identity()).argmax_levels == 0)
    assert_sweeps_match_leaf_sweep(f)


@pytest.mark.parametrize("n,L,d", [(2, 9, 1.9), (3, 6, 2.5)])
@pytest.mark.parametrize("steps", [None, 16])
def test_sweeps_match_leaf_sweep_large(n, L, d, steps):
    cfg = LatticeConfig(n, L, d)
    vals = np.random.default_rng(2026).random(cfg.num_cells)
    if steps:
        vals = np.floor(vals * steps) / steps
    assert_sweeps_match_leaf_sweep(GridFunction(cfg, vals))


@pytest.mark.parametrize("n,L", [(1, 0), (2, 0), (3, 0), (2, 3)])
def test_sweep_shares_no_memory_with_statistics(n, L):
    cfg = LatticeConfig(n, L, n / 2)
    stats = [np.full((2**k,) * n, 1.0) for k in range(L + 1)]
    res = maximal._sweep(cfg, stats)
    for s in stats:
        assert not np.shares_memory(res.values.values, s)
        assert not np.shares_memory(res.argmax_levels, s)
    assert res.argmax_levels.dtype == int and res.argmax_levels.shape == cfg.grid_shape
    assert np.all(res.argmax_levels == 0) and np.all(res.values.values == 1.0)
