import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choquet.content import (
    choquet_integral,
    choquet_norm,
    frostman_measure,
    hausdorff_content,
    hausdorff_content_value,
)
from choquet.lattice import (
    CubeId,
    GridFunction,
    LatticeConfig,
    all_cubes,
    indicator,
    measure_of_cube,
)
from choquet.sparse import CantorConfig, apply_sparse, cantor_family

from conftest import (
    brute_force_content,
    content_values_batch,
    lp_cover_value,
    lp_frostman_value,
    mask_choquet_integral,
    merge_choquet_integral,
    random_leaf_mask,
    sorted_cover_strings,
    stack_walk_cover,
    two_refine_frostman_measure,
)

# Derandomized so every run checks the same examples; no example database.
oracle_settings = settings(max_examples=300, deadline=None, derandomize=True, database=None)

LEAF_VALUES = {
    "continuous": lambda rng, size: rng.random(size),
    "quantised": lambda rng, size: np.floor(rng.random(size) * 5) / 4,
    "sparse": lambda rng, size: rng.random(size) * (rng.random(size) < 0.3),
    "indicator": lambda rng, size: (rng.random(size) < rng.uniform(0.1, 0.9)).astype(float),
    "constant": lambda rng, size: np.full(size, 1.75),
    "zero": lambda rng, size: np.zeros(size),
}
MAX_L = {1: 8, 2: 5, 3: 3}


@st.composite
def lattice_functions(draw, kinds=tuple(LEAF_VALUES)):
    n = draw(st.integers(1, 3))
    cfg = LatticeConfig(n, draw(st.integers(0, MAX_L[n])), draw(st.floats(0.05, n - 0.05)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return GridFunction(cfg, LEAF_VALUES[draw(st.sampled_from(kinds))](rng, cfg.num_cells))


def test_content_root():
    cfg = LatticeConfig(1, 3, 0.5)
    r = hausdorff_content(GridFunction.constant(cfg, 1.0))
    assert r.value == 1.0
    assert r.optimal_cover == frozenset({CubeId(0, (0,))})


def test_content_empty_set():
    cfg = LatticeConfig(2, 2, 1.0)
    r = hausdorff_content(GridFunction.zeros(cfg))
    assert r.value == 0.0
    assert r.optimal_cover == frozenset()


def test_content_single_cube_is_side_power_d():
    for n, d, L in [(1, 0.5, 4), (2, 1.0, 3), (2, 1.7, 3)]:
        cfg = LatticeConfig(n, L, d)
        for k in range(L + 1):
            q = CubeId(k, (0,) * n)
            r = hausdorff_content(indicator(cfg, [q]))
            assert r.value == pytest.approx(2.0 ** (-k * d), rel=1e-14)


def test_content_two_gap_intervals_merge_to_root():
    # covering both quarters with the root costs 1, separately costs 2*(1/2)
    cfg = LatticeConfig(1, 2, 0.5)
    r = hausdorff_content(GridFunction(cfg, [1, 0, 1, 0]))
    assert r.value == 1.0
    assert r.optimal_cover == frozenset({CubeId(0, (0,))})


def test_content_tie_prefers_single_cube():
    # with d=1 the costs tie at every split; the cover must stay coarse
    cfg = LatticeConfig(2, 2, 1.0)
    r = hausdorff_content(GridFunction.constant(cfg, 1.0))
    assert r.optimal_cover == frozenset({CubeId(0, (0, 0))})


def test_cover_is_valid_and_achieves_value(rng):
    cfg = LatticeConfig(2, 3, 1.3)
    for _ in range(20):
        mask = random_leaf_mask(cfg, rng)
        E = GridFunction(cfg, mask.astype(float))
        r = hausdorff_content(E)
        covered = np.zeros(cfg.grid_shape, dtype=bool)
        cost = 0.0
        for q in r.optimal_cover:
            covered[
                tuple(slice(j * 2 ** (cfg.L - q.level), (j + 1) * 2 ** (cfg.L - q.level))
                      for j in q.index)
            ] = True
            cost += 2.0 ** (-q.level * cfg.d)
        assert covered[mask].all()
        assert cost == pytest.approx(r.value, rel=1e-12)


@pytest.mark.parametrize("d", [0.3, 0.5, 0.9])
def test_content_matches_brute_force_enumeration(d, rng):
    cfg = LatticeConfig(1, 3, d)
    for _ in range(12):
        mask = random_leaf_mask(cfg, rng)
        got = hausdorff_content_value(cfg, mask)
        want = brute_force_content(cfg, mask)
        assert got == pytest.approx(want, rel=1e-12)


def test_content_matches_lp_covering(rng):
    for cfg in [LatticeConfig(1, 3, 0.5), LatticeConfig(2, 2, 1.0), LatticeConfig(2, 2, 1.5)]:
        for _ in range(10):
            mask = random_leaf_mask(cfg, rng)
            got = hausdorff_content_value(cfg, mask)
            want = lp_cover_value(cfg, mask)
            assert got == pytest.approx(want, abs=1e-9)


def test_content_monotone_and_subadditive(rng):
    cfg = LatticeConfig(2, 3, 1.0)
    for _ in range(20):
        a = random_leaf_mask(cfg, rng)
        b = random_leaf_mask(cfg, rng)
        ha = hausdorff_content_value(cfg, a)
        hb = hausdorff_content_value(cfg, b)
        hab = hausdorff_content_value(cfg, a | b)
        assert hab >= max(ha, hb) - 1e-12
        assert hab <= ha + hb + 1e-12


@oracle_settings
@given(lattice_functions(kinds=("indicator",)))
@example(GridFunction(LatticeConfig(1, 2, 0.5), [1.0, 0.0, 1.0, 0.0]))
@example(GridFunction.constant(LatticeConfig(3, 2, 1.0), 1.0))
def test_content_is_choquet_integral_of_indicator(E):
    # one recurrence in two kernels: absent children read 0, children add
    # axis 0 first, and min(side^d, total) at every level
    value = hausdorff_content(E).value
    assert choquet_integral(E) == value == hausdorff_content_value(E.config, E.grid > 0.5)


@pytest.mark.parametrize("n,L", [(2, 9), (3, 6)])
@pytest.mark.parametrize("share", [0.05, 0.3, 0.9])
def test_content_is_choquet_integral_of_indicator_large(n, L, share):
    rng = np.random.default_rng(2026)
    for d in (0.3 * n, n / 3, 0.9 * n):
        E = GridFunction(LatticeConfig(n, L, d), (rng.random(2 ** (n * L)) < share).astype(float))
        assert choquet_integral(E) == hausdorff_content(E).value


@oracle_settings
@given(lattice_functions(kinds=("indicator",)), st.integers(0, 2**32 - 1))
def test_content_strongly_subadditive(A, seed):
    # H(A u B) + H(A n B) <= H(A) + H(B): the content is 2-alternating
    cfg = A.config
    a, b = A.grid > 0.5, random_leaf_mask(cfg, np.random.default_rng(seed))
    h = lambda m: hausdorff_content_value(cfg, m)  # noqa: E731
    assert h(a | b) + h(a & b) <= (h(a) + h(b)) * (1.0 + 1e-12)


def test_content_values_batch_matches_scalar(rng):
    cfg = LatticeConfig(1, 4, 0.5)
    masks = np.stack([random_leaf_mask(cfg, rng) for _ in range(16)])
    batch = content_values_batch(cfg, masks)
    for i in range(16):
        assert batch[i] == pytest.approx(hausdorff_content_value(cfg, masks[i]), rel=1e-14)


@oracle_settings
@given(lattice_functions(kinds=("indicator",)))
def test_cover_matches_stack_walk_oracle(E):
    assert hausdorff_content(E).optimal_cover == stack_walk_cover(E.config, E.grid > 0.5)


@oracle_settings
@given(lattice_functions(kinds=("indicator",)))
@example(GridFunction.zeros(LatticeConfig(2, 3, 1.0)))
@example(GridFunction.constant(LatticeConfig(3, 2, 2.5), 1.0))
def test_cover_arrays_match_cube_objects(E):
    r = hausdorff_content(E)
    assert r.to_json_dict()["cover"] == sorted_cover_strings(r.optimal_cover)
    assert len(r.optimal_cover) == sum(len(rows) for rows in r.cover)
    assert len(r.cover) == E.config.L + 1
    for rows in r.cover:
        assert rows.shape[1] == E.config.n and not rows.flags.writeable


def test_cover_tie_takes_parent():
    # two occupied children at d=1 cost 2 * 1/2, a tie with the root
    cfg = LatticeConfig(2, 2, 1.0)
    E = indicator(cfg, [CubeId(1, (0, 0)), CubeId(1, (1, 1))])
    cover = hausdorff_content(E).optimal_cover
    assert cover == frozenset({CubeId(0, (0, 0))})
    assert cover == stack_walk_cover(cfg, E.grid > 0.5)


def test_frostman_example():
    cfg = LatticeConfig(1, 2, 0.5)
    E = GridFunction(cfg, [1, 0, 1, 0])
    mu = frostman_measure(E)
    assert np.array_equal(mu.values, [2.0, 0.0, 2.0, 0.0])
    assert measure_of_cube(mu, CubeId(0, (0,))) == 1.0


@pytest.mark.parametrize("n,L,d", [(2, 9, 1.9), (3, 6, 2.5), (1, 12, 0.5), (2, 0, 1.0)])
def test_frostman_matches_two_refine_descent(n, L, d):
    # the mass-per-cost product formed at the parent level, refined once
    cfg = LatticeConfig(n, L, d)
    E = GridFunction(cfg, (np.random.default_rng(2026).random(cfg.num_cells) < 0.3).astype(float))
    if not E.values.any():
        E = GridFunction.constant(cfg, 1.0)
    assert np.array_equal(frostman_measure(E).values, two_refine_frostman_measure(E).values)


@oracle_settings
@given(lattice_functions(kinds=("indicator",)))
def test_frostman_matches_two_refine_descent_small(E):
    if E.values.any():
        assert np.array_equal(frostman_measure(E).values, two_refine_frostman_measure(E).values)


def test_frostman_duality_and_constraints(rng):
    for cfg in [LatticeConfig(1, 4, 0.5), LatticeConfig(2, 3, 1.0), LatticeConfig(2, 3, 1.5)]:
        for _ in range(15):
            mask = random_leaf_mask(cfg, rng)
            E = GridFunction(cfg, mask.astype(float))
            mu = frostman_measure(E)
            total = measure_of_cube(mu, CubeId(0, (0,) * cfg.n))
            assert total == pytest.approx(hausdorff_content(E).value, abs=1e-10)
            assert np.all(mu.grid[~mask] == 0.0)
            for q in all_cubes(cfg):
                assert measure_of_cube(mu, q) <= 2.0 ** (-q.level * cfg.d) + 1e-12


def test_frostman_matches_lp(rng):
    cfg = LatticeConfig(1, 3, 0.5)
    for _ in range(10):
        mask = random_leaf_mask(cfg, rng)
        E = GridFunction(cfg, mask.astype(float))
        mu = frostman_measure(E)
        total = measure_of_cube(mu, CubeId(0, (0,)))
        assert total == pytest.approx(lp_frostman_value(cfg, mask), abs=1e-9)


def test_choquet_integral_examples():
    cfg = LatticeConfig(1, 2, 0.5)
    assert choquet_integral(GridFunction(cfg, [2, 0, 1, 0])) == pytest.approx(1.5)
    assert choquet_integral(GridFunction.zeros(cfg)) == 0.0
    # c * 1_Q integrates to c * side^d
    cfg2 = LatticeConfig(2, 3, 1.0)
    f = GridFunction(cfg2, 3.0 * indicator(cfg2, [CubeId(2, (1, 1))]).values)
    assert choquet_integral(f) == pytest.approx(3.0 * 0.25, rel=1e-12)


def test_choquet_integral_negative_rejected():
    cfg = LatticeConfig(1, 1, 0.5)
    with pytest.raises(ValueError):
        choquet_integral(GridFunction(cfg, [-1.0, 0.0]))


def test_choquet_layer_cake_oracle(rng):
    # independent recomputation: scan the sorted distinct levels directly
    cfg = LatticeConfig(1, 4, 0.5)
    for _ in range(20):
        vals = np.round(rng.random(cfg.num_cells) * 4) / 2.0
        f = GridFunction(cfg, vals)
        levels = np.unique(vals[vals > 0])
        acc, prev = 0.0, 0.0
        for t in levels:
            acc += (t - prev) * hausdorff_content_value(cfg, f.grid >= t)
            prev = t
        assert choquet_integral(f) == pytest.approx(acc, rel=1e-12)


@oracle_settings
@given(lattice_functions())
def test_choquet_integral_matches_mask_oracle(f):
    assert choquet_integral(f) == mask_choquet_integral(f.config, f.grid)


@pytest.mark.parametrize("n,L,d", [(2, 9, 1.3), (3, 6, 1.5), (1, 14, 0.5)])
@pytest.mark.parametrize("kind", ["continuous", "quantised16", "support10"])
def test_choquet_integral_matches_unpruned_merge(n, L, d, kind):
    # large lattices, where saturation pruning drops most entries
    cfg = LatticeConfig(n, L, d)
    rng = np.random.default_rng(2026)
    vals = rng.random(cfg.num_cells)
    if kind == "quantised16":
        vals = np.floor(vals * 16) / 15
    elif kind == "support10":
        vals = vals * (rng.random(cfg.num_cells) < 0.1)
    f = GridFunction(cfg, vals)
    assert choquet_integral(f) == merge_choquet_integral(f)


def test_choquet_integral_matches_unpruned_merge_on_cantor_image():
    fam = cantor_family(CantorConfig(2, 2, 4), 8)
    F = apply_sparse(GridFunction.constant(fam.config, 1.0), fam.family)
    assert choquet_integral(F) == merge_choquet_integral(F) == 5.0


@oracle_settings
@given(lattice_functions(), st.integers(1, 8))
def test_choquet_integral_matches_unpruned_merge_with_ties(f, steps):
    # rounding to a few levels makes many leaves share each value
    tied = GridFunction(f.config, np.round(f.values * steps) / steps)
    assert choquet_integral(tied) == merge_choquet_integral(tied)


def test_choquet_integral_continuous_large_lattice(rng):
    # every level set holds a leaf and lies in the root
    cfg = LatticeConfig(2, 9, 1.3)
    f = GridFunction(cfg, rng.random(cfg.num_cells))
    top = float(f.values.max())
    assert 2.0 ** (-cfg.L * cfg.d) * top <= choquet_integral(f) <= top


def test_choquet_monotone_homogeneous(rng):
    cfg = LatticeConfig(2, 3, 1.0)
    for _ in range(10):
        f = GridFunction(cfg, rng.random(cfg.num_cells))
        g = GridFunction(cfg, f.values + rng.random(cfg.num_cells))
        assert choquet_integral(g) >= choquet_integral(f) - 1e-12
        s = GridFunction(cfg, 3.5 * f.values)
        assert choquet_integral(s) == pytest.approx(3.5 * choquet_integral(f), rel=1e-12)


def test_choquet_norm():
    cfg = LatticeConfig(1, 3, 0.5)
    f = GridFunction(cfg, 2.0 * indicator(cfg, [CubeId(1, (0,))]).values)
    # (2^p * (1/2)^d)^(1/p)
    assert choquet_norm(f, 1.0) == pytest.approx(2.0 * 2**-0.5, rel=1e-12)
    assert choquet_norm(f, 2.0) == pytest.approx(2.0 * 2**-0.25, rel=1e-12)
    assert choquet_norm(f, np.inf) == 2.0
    assert choquet_norm(GridFunction.constant(cfg, 1.0), 7.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        choquet_norm(f, 0.0)


def test_choquet_norm_triangle_p1(rng):
    cfg = LatticeConfig(1, 4, 0.5)
    for _ in range(20):
        f = GridFunction(cfg, rng.random(cfg.num_cells))
        g = GridFunction(cfg, rng.random(cfg.num_cells))
        both = GridFunction(cfg, f.values + g.values)
        lhs = choquet_norm(both, 1.0)
        assert lhs <= choquet_norm(f, 1.0) + choquet_norm(g, 1.0) + 1e-12
