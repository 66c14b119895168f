import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet.content import choquet_norm, hausdorff_content
from choquet.lattice import (CubeId, GridFunction, LatticeConfig, Tiling, all_cubes, cube_slices, indicator,
                             validate_tiling)
from choquet.sparse import (
    CantorConfig,
    SparseFamily,
    apply_sparse,
    cantor_content,
    cantor_family,
    cantor_lux_bound,
    unboundedness_demo,
    verify_sparse,
)
from conftest import configs, families, pairwise_verify_sparse, per_depth_unboundedness, slice_paint

ROOT1 = CubeId(0, (0,))


def test_sparse_family_validation():
    with pytest.raises(ValueError):
        SparseFamily([ROOT1], eta=0.0)
    with pytest.raises(ValueError):
        SparseFamily([ROOT1], eta=1.0)
    s = SparseFamily([ROOT1], eta=0.5)
    assert len(s) == 1


@pytest.mark.parametrize("build", [
    lambda: validate_tiling(LatticeConfig(1, 2, 0.5), Tiling(["0:0"])),
    lambda: apply_sparse(GridFunction.constant(LatticeConfig(1, 2, 0.5), 1.0), SparseFamily([(0, (0,))], 0.5)),
    lambda: Tiling(5),
    lambda: Tiling([[ROOT1]]),
    lambda: SparseFamily([ROOT1], "0.5"),
    lambda: SparseFamily([ROOT1], True),
    lambda: SparseFamily(None, 0.5),
], ids=["tiling-of-str", "family-of-tuple", "tiling-of-int", "unhashable-member", "eta-str", "eta-bool",
        "family-of-none"])
def test_cube_sets_reject_what_is_not_a_cube(build):
    # each used to leak AttributeError or TypeError
    with pytest.raises(ValueError):
        build()


def test_verify_sparse_singleton():
    cfg = LatticeConfig(1, 2, 0.5)
    rep = verify_sparse(cfg, SparseFamily([ROOT1], eta=0.5))
    assert rep.min_ratio == 1.0
    assert rep.carleson_constant == 1.0
    assert rep.is_sparse(0.99)


def test_verify_sparse_nested_chain():
    # root plus its left half: E_root keeps only the right half
    cfg = LatticeConfig(1, 2, 0.5)
    rep = verify_sparse(cfg, SparseFamily([ROOT1, CubeId(1, (0,))], eta=0.5))
    assert rep.min_ratio == pytest.approx(0.5)
    assert rep.carleson_constant == pytest.approx(1.5)
    assert rep.is_sparse(0.5)
    assert not rep.is_sparse(0.6)


def test_verify_sparse_full_level_fails():
    # taking every cube at two consecutive levels cannot be 1/2-sparse
    cfg = LatticeConfig(1, 3, 0.5)
    cubes = [ROOT1, CubeId(1, (0,)), CubeId(1, (1,))]
    rep = verify_sparse(cfg, SparseFamily(cubes, eta=0.5))
    assert rep.min_ratio == 0.0
    assert rep.worst_cube == ROOT1


def test_verify_sparse_matches_pairwise_oracle():
    # random families of up to 40 cubes at n <= 3, plus the Cantor families:
    # every term is a dyadic volume and every partial sum is exact in any
    # order, so the level pass and the oracle agree `==`
    rng = np.random.default_rng(20261018)
    for trial in range(600):
        n = int(rng.integers(1, 4))
        L = int(rng.integers(0, (6, 4, 3)[n - 1]))
        cfg = LatticeConfig(n, L, n / 2)
        pool = list(all_cubes(cfg))
        size = int(rng.integers(0, min(40, len(pool)) + 1))
        picks = rng.choice(len(pool), size=size, replace=False)
        fam = SparseFamily([pool[i] for i in picks], eta=0.5)
        assert verify_sparse(cfg, fam) == pairwise_verify_sparse(cfg, fam), (trial, sorted(map(str, fam.cubes)))
    for c, L in [(CantorConfig(1, 2, 3), 8), (CantorConfig(1, 2, 4), 8), (CantorConfig(2, 2, 2), 6)]:
        fam = cantor_family(c, L)
        assert verify_sparse(fam.config, fam.family) == pairwise_verify_sparse(fam.config, fam.family)


@pytest.mark.parametrize("n, L", [(1, 16), (2, 8), (3, 5)])
def test_verify_sparse_deep_families_match_pairwise_oracle(n, L):
    # nested chains down to level L: each chain is a random subset of one
    # leaf's ancestors, the leaf itself always in
    rng = np.random.default_rng([20261020, n, L])
    cfg = LatticeConfig(n, L, n / 2)
    for trial in range(40):
        cubes = set()
        for _ in range(int(rng.integers(1, 6))):
            leaf = rng.integers(0, 2**L, n)
            for k in range(L + 1):
                if k == L or rng.random() < 0.4:
                    cubes.add(CubeId(k, tuple(int(j) >> (L - k) for j in leaf)))
        fam = SparseFamily(cubes, eta=0.5)
        assert max(q.level for q in cubes) == L
        assert verify_sparse(cfg, fam) == pairwise_verify_sparse(cfg, fam), (trial, sorted(map(str, cubes)))


@pytest.mark.parametrize("cubes, worst", [
    ("0:0 1:0 2:0", "0:0"),  # ratio 0.5 at levels 0 and 1: the coarser cube
    ("1:0 1:1 2:0 2:2", "1:0"),  # ratio 0.5 at 1:0 and 1:1: the lower index
])
def test_verify_sparse_worst_cube_tie_break(cubes, worst):
    cfg = LatticeConfig(1, 3, 0.5)
    fam = SparseFamily(map(CubeId.parse, cubes.split()), eta=0.5)
    rep = verify_sparse(cfg, fam)
    assert rep.min_ratio == 0.5
    assert rep.worst_cube == CubeId.parse(worst)
    assert rep == pairwise_verify_sparse(cfg, fam)


@pytest.mark.parametrize("bad", [CubeId(1, (0, 0)), CubeId(3, (5,))])
def test_verify_sparse_rejects_cube_outside_lattice(bad):
    # wrong dimension for n=1, and a level above L=2
    cfg = LatticeConfig(1, 2, 0.5)
    with pytest.raises(ValueError):
        verify_sparse(cfg, SparseFamily([ROOT1, bad], eta=0.5))


@pytest.mark.parametrize("n, L", [(1, 24), (2, 12)])
def test_verify_sparse_memory_follows_the_deepest_member(n, L):
    # masks go down to the deepest member's level only, so a two-level family
    # on the largest lattices peaks at a few KiB, not at one mask per level
    cfg = LatticeConfig(n, L, n / 2)
    fam = SparseFamily([CubeId(0, (0,) * n), CubeId(1, (0,) * n)], eta=0.5)
    tracemalloc.start()
    try:
        rep = verify_sparse(cfg, fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert rep == pairwise_verify_sparse(cfg, fam)


def test_apply_sparse_root_average(rng):
    cfg = LatticeConfig(1, 3, 0.5)
    f = GridFunction(cfg, rng.random(cfg.num_cells))
    out = apply_sparse(f, SparseFamily([ROOT1], eta=0.5))
    assert np.allclose(out.values, f.values.mean())


def test_apply_sparse_superposition(rng):
    cfg = LatticeConfig(1, 3, 0.5)
    f = GridFunction(cfg, rng.random(cfg.num_cells))
    cubes = [ROOT1, CubeId(2, (1,))]
    out = apply_sparse(f, SparseFamily(cubes, eta=0.25))
    want = np.full(cfg.num_cells, f.values.mean())
    want[2:4] += float(f.restrict(cubes[1]).mean())
    assert np.allclose(out.values, want)


def _slice_apply_sparse(f: GridFunction, cubes) -> np.ndarray:
    """The sparse operator one cube at a time: each cube's leaf mean, added
    coarsest first."""
    ordered = sorted(cubes, key=lambda q: (q.level, q.index))
    return slice_paint(f.config, ordered, lambda q: f.grid[cube_slices(f.config, q)].mean())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_apply_sparse_matches_slice_oracle(data):
    config = data.draw(configs())
    cubes = data.draw(families(config))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    fam = SparseFamily(cubes, eta=0.5)
    # real data: the means are summed in another order, so a few ulps apart
    f = GridFunction(config, rng.random(config.num_cells) * 10.0 ** rng.uniform(-3.0, 3.0))
    got, want = apply_sparse(f, fam).grid, _slice_apply_sparse(f, cubes)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    # dyadic data: every sum and mean is exact, so the two agree bit for bit
    f = GridFunction(config, rng.integers(-64, 65, config.num_cells) / 16.0)
    assert np.array_equal(apply_sparse(f, fam).grid, _slice_apply_sparse(f, cubes))


def test_apply_sparse_near_the_float_range():
    # the means scale before they add, so the root's mean of 1.7e308 is
    # exact; the image of a nested pair is twice that, beyond the range
    f = GridFunction.constant(LatticeConfig(1, 2, 0.5), 1.7e308)
    assert np.array_equal(apply_sparse(f, SparseFamily([ROOT1], eta=0.5)).values, f.values)
    with pytest.raises(ValueError, match="beyond the float range"):
        apply_sparse(f, SparseFamily([ROOT1, CubeId(1, (0,))], eta=0.5))


@pytest.mark.parametrize("bad", [CubeId(1, (0, 0)), CubeId(3, (5,))])
def test_apply_sparse_rejects_cube_outside_lattice(bad):
    f = GridFunction.constant(LatticeConfig(1, 2, 0.5), 1.0)
    with pytest.raises(ValueError):
        apply_sparse(f, SparseFamily([ROOT1, bad], eta=0.5))


def test_cantor_config():
    c = CantorConfig(1, 2, 2)
    assert c.d == 0.5
    assert c.delta == 0.5
    assert c.eta == 0.5
    c2 = CantorConfig(2, 2, 1)
    assert c2.d == 1.0
    assert c2.eta == pytest.approx(0.75)
    with pytest.raises(ValueError):
        CantorConfig(1, 1, 2)


@pytest.mark.parametrize("args, field", [((1, 2.5, 1), "m"), ((1, 2, 1.5), "K"), ((1.0, 2, 1), "n"), ((0, 2, 1), "n"),
                                         ((1, True, 1), "m"), ((1, 2, False), "K"), ((1, np.float64(2.0), 1), "m")])
def test_cantor_config_needs_integers(args, field):
    # non-integer m or K used to raise TypeError inside cantor_family
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        CantorConfig(*args)


def test_cantor_config_takes_numpy_integers():
    c = CantorConfig(np.int64(1), np.int64(2), np.int64(2))
    assert cantor_family(c).config == cantor_family(CantorConfig(1, 2, 2)).config


def test_cantor_family_stage_geometry():
    c = CantorConfig(1, 2, 3)
    fam = cantor_family(c, 8)
    # stage k is 2^k corner intervals of length 4^-k
    for k in range(4):
        stage = fam.stage_indicator(k)
        assert stage.values.sum() * stage.config.cell_volume == pytest.approx(2.0**k * 4.0**-k)
    e1 = fam.stage_indicator(1).grid
    # first quarter and last quarter of [0,1)
    assert np.all(e1[:64] == 1) and np.all(e1[192:] == 1) and np.all(e1[64:192] == 0)


def test_cantor_family_default_lattice_is_finest_stage():
    c = CantorConfig(2, 2, 3)
    default, explicit = cantor_family(c), cantor_family(c, c.m * c.K)
    assert default.config == explicit.config
    assert default.family == explicit.family
    assert default.levels == explicit.levels


def test_cantor_family_resolution_guard():
    c = CantorConfig(1, 2, 4)
    with pytest.raises(ValueError):
        cantor_family(c, 6)  # needs L >= mK = 8


def test_cantor_content_is_one():
    for c, L in [(CantorConfig(1, 2, 3), 8), (CantorConfig(2, 2, 2), 6)]:
        for k in range(c.K + 1):
            assert cantor_content(c, k, L) == pytest.approx(1.0, abs=1e-12)
    assert cantor_content(c, np.int64(1), L) == cantor_content(c, 1, L)  # a NumPy stage is the same stage


@pytest.mark.parametrize("k", [-1, -5, 4])
def test_cantor_content_rejects_stage_outside_range(k):
    with pytest.raises(ValueError, match="outside 0..3"):
        cantor_content(CantorConfig(1, 2, 3), k)


@pytest.mark.parametrize("k", [1.5, True, "1", None])
def test_cantor_content_needs_integer_stage(k):
    # k = 1.5 raised TypeError and k = True ran stage 1
    with pytest.raises(ValueError, match="stage k must be an integer, got "):
        cantor_content(CantorConfig(1, 2, 3), k)


def test_cantor_stage_content_via_general_engine():
    c = CantorConfig(1, 2, 2)
    fam = cantor_family(c, 8)
    for k in range(3):
        r = hausdorff_content(fam.stage_indicator(k))
        assert r.value == pytest.approx(1.0, abs=1e-12)


def test_cantor_sparseness():
    c = CantorConfig(1, 2, 3)
    fam = cantor_family(c, 8)
    rep = verify_sparse(fam.config, fam.family)
    assert rep.min_ratio == pytest.approx(c.eta)


def test_cantor_lux_bound_constants():
    info = cantor_lux_bound(CantorConfig(1, 2, 3))
    assert info["lambda0"] == pytest.approx(2.0 / np.log(2.0), rel=1e-12)
    assert info["Lambda0"] == pytest.approx(2**-0.5, rel=1e-12)
    assert info["lambda_star"] == pytest.approx(
        np.exp(1.0 / info["lambda0"]) / (1.0 - info["Lambda0"]), rel=1e-12)
    assert info["computed_norm"] <= info["lambda_star"]


def test_unboundedness_exact_growth():
    got = unboundedness_demo(CantorConfig(1, 2, 3), 1.0)
    assert got == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]


@pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
@pytest.mark.parametrize("n, m, K", [(1, 2, 5), (2, 2, 4), (1, 3, 4), (3, 2, 3)])
def test_unboundedness_growth_below_p_one(n, m, K, p):
    # every stage has content 1, so the layer cake gives (K+1)^p at any p > 0
    for depth, norm in unboundedness_demo(CantorConfig(n, m, K), p):
        assert norm == pytest.approx(depth + 1, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n, m, K, L", [
    (n, m, K, L)
    for n, m, K in [(1, 2, 5), (2, 2, 4), (1, 3, 4), (3, 2, 3), (1, 2, 3), (2, 3, 2), (1, 4, 3)]
    for L in (m * K, m * K + 1)
])
def test_unboundedness_matches_per_depth_oracle(n, m, K, L):
    # the stages are nested, so one image's profile holds every depth's;
    # each p costs the oracle K+1 merges, ~2 s at 2^21 cells, so lattices
    # above 2^16 cells take one p on each side of 1
    c = CantorConfig(n, m, K)
    ps = [0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0, 7.0, np.inf] if n * L <= 16 else [0.5, 3.0]
    for p in ps:
        assert unboundedness_demo(c, p, L) == per_depth_unboundedness(c, p, L)


@pytest.mark.parametrize("p", [0.0, -1.0, np.nan])
def test_unboundedness_rejects_p_not_positive(p):
    with pytest.raises(ValueError, match="p > 0"):
        unboundedness_demo(CantorConfig(1, 2, 1), p)


def test_unboundedness_input_norm_is_one():
    c = CantorConfig(1, 2, 2)
    cfg = c.lattice(8)
    one = GridFunction.constant(cfg, 1.0)
    assert choquet_norm(one, 1.0) == 1.0


def test_sparse_family_json_dict():
    s = SparseFamily([ROOT1, CubeId(1, (1,))], eta=0.5)
    d = s.to_json_dict()
    assert d["eta"] == 0.5
    assert sorted(d["cubes"]) == ["0:0", "1:1"]
