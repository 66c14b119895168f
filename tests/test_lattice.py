import json

import numpy as np
import pytest
from conftest import MALFORMED_GRID_FILES, configs, families, slice_paint, tilings
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet.lattice import (
    CubeId,
    GridFunction,
    LatticeConfig,
    LevelOverflowError,
    Tiling,
    TilingReport,
    _mean_pyramid,
    all_cubes,
    children,
    coarsen,
    cube_blocks,
    cube_slices,
    indicator,
    level_masks,
    measure_of_cube,
    paint,
    pyramid,
    refine,
    validate_tiling,
)
from choquet.young import LlogL, luxemburg_norm, luxemburg_norm_table

oracle_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _count_report(config, cubes):
    """validate_tiling's report from slice-painted coverage counts."""
    counts = slice_paint(config, cubes, lambda q: 1)
    bad = np.argwhere(counts != 1)
    if bad.size == 0:
        return TilingReport(ok=True)
    cell = tuple(int(x) for x in bad[0])
    return TilingReport(ok=False, cell=cell, coverage=int(counts[cell]))


@oracle_settings
@given(data=st.data())
def test_paint_matches_slice_oracle(data):
    # added coarsest first, as slice_paint does on (level, index) order: ==
    config = data.draw(configs())
    cubes = data.draw(st.one_of(tilings(config), families(config)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    per_level = [rng.standard_normal((2**k,) * config.n) for k in range(config.L + 1)]
    got = paint(level_masks(config, cubes), per_level)
    ordered = sorted(cubes, key=lambda q: (q.level, q.index))
    assert np.array_equal(got, slice_paint(config, ordered, lambda q: per_level[q.level][q.index]))
    want = slice_paint(config, cubes, lambda q: 1.0) > 0
    assert np.array_equal(indicator(config, cubes).grid, want.astype(float))


@oracle_settings
@given(data=st.data())
def test_validate_tiling_matches_count_oracle(data):
    config = data.draw(configs())
    cubes = data.draw(tilings(config))
    pool = list(all_cubes(config))
    drop = data.draw(st.sets(st.sampled_from(cubes), max_size=2))
    add = data.draw(st.sets(st.sampled_from(pool), max_size=2))
    cubes = (set(cubes) - drop) | add  # under- or over-covered, or still a tiling
    assert validate_tiling(config, Tiling(cubes)) == _count_report(config, cubes)


@oracle_settings
@given(config=configs(), seed=st.integers(0, 2**32 - 1))
def test_pyramid_is_repeated_coarsen(config, seed):
    rng = np.random.default_rng(seed)
    grid = rng.integers(-8, 9, config.grid_shape).astype(float)  # integer sums are exact
    for op in (np.add, np.minimum, np.maximum):
        levels = pyramid(grid, op)
        assert len(levels) == config.L + 1
        assert levels[config.L] is grid
        for k in range(config.L, 0, -1):
            assert np.array_equal(levels[k - 1], coarsen(levels[k], op))
        for q in all_cubes(config):
            assert levels[q.level][q.index] == op.reduce(grid[cube_slices(config, q)], axis=None)


@oracle_settings
@given(config=configs(), seed=st.integers(0, 2**32 - 1))
def test_mean_pyramid_is_pyramid_over_cell_counts(config, seed):
    # in the normal range, scaling before the sums is exact: ==
    rng = np.random.default_rng(seed)
    grid = rng.random(config.grid_shape) * 10.0 ** rng.uniform(-200.0, 200.0, config.grid_shape)
    means = _mean_pyramid(grid)
    assert means[config.L] is grid
    for k, sums in enumerate(pyramid(grid)):
        assert np.array_equal(means[k], sums / 2 ** (config.n * (config.L - k)))


def test_mean_pyramid_stays_in_float_range():
    # the sums of 1.7e308 overflow; a global rescale by the largest value
    # would flush the cube of 1e-300 next to it to 0
    grid = np.array([[1.7e308, 1.7e308], [1e-300, 1e-300]])
    with np.errstate(over="raise", under="raise"):
        means = _mean_pyramid(grid)
    assert np.array_equal(means[1], grid)
    assert means[0][0, 0] == pytest.approx((1.7e308 + 1e-300) / 2, rel=1e-15)
    means = _mean_pyramid(np.array([1e-300, 1e-300, 0.0, 1.7e308]))
    assert means[1][0] == 1e-300 and means[1][1] == 0.85e308


@pytest.mark.parametrize("bad", [CubeId(1, (0, 0)), CubeId(3, (5,))])
def test_level_masks_reject_cube_outside_lattice(bad):
    # wrong dimension for n=1, and a level above L=2
    with pytest.raises(ValueError):
        level_masks(LatticeConfig(1, 2, 0.5), [CubeId(0, (0,)), bad])
    with pytest.raises(ValueError):
        indicator(LatticeConfig(1, 2, 0.5), bad)


def test_config_validation():
    cfg = LatticeConfig(2, 3, 1.0)
    assert cfg.grid_shape == (8, 8)
    assert cfg.num_cells == 64
    assert cfg.cell_volume == 1.0 / 64
    with pytest.raises(ValueError):
        LatticeConfig(1, 3, 0.0)
    with pytest.raises(ValueError):
        LatticeConfig(1, 3, 1.0)
    with pytest.raises(ValueError):
        LatticeConfig(2, 3, 2.5)
    with pytest.raises(ValueError):
        LatticeConfig(1, -1, 0.5)


@pytest.mark.parametrize("n, L, field", [(1, 2.0, "L"), (1.5, 2, "n"), (1.0, 2, "n"), (True, 2, "n"), (1, False, "L"),
                                         (1, np.float64(3.0), "L"), ("2", 3, "n"), (1, None, "L"), (1, np.nan, "L")])
def test_config_needs_integer_n_and_l(n, L, field):
    # a float L was accepted and then failed in every kernel with TypeError;
    # a float n built a lattice of "8.0 cells"
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        LatticeConfig(n, L, 0.5)


def test_config_holds_numpy_integers_as_int():
    # so a NumPy count never wraps in n*L and `to_json` writes the config
    cfg = LatticeConfig(np.int64(2), np.int32(3), 1.0)
    assert cfg == LatticeConfig(2, 3, 1.0) and type(cfg.n) is int and type(cfg.L) is int
    assert json.loads(GridFunction.constant(cfg, 1.0).to_json())["L"] == 3
    with pytest.raises(ValueError, match="too large"):
        LatticeConfig(np.int64(4), np.int64(2**62), 1.0)


@pytest.mark.parametrize("d", ["0.5", True, np.bool_(True), None, 1j, [0.5]])
def test_config_needs_real_d(d):
    # d="0.5" raised TypeError from the comparison, and d=True passed as 1.0
    with pytest.raises(ValueError, match="content exponent d must be a real number"):
        LatticeConfig(2, 3, d)


@pytest.mark.parametrize("d", [1, 1.0, np.float32(1.0), np.float64(1.0), np.int64(1)])
def test_config_takes_python_and_numpy_reals_as_float(d):
    cfg = LatticeConfig(2, 3, d)
    assert cfg == LatticeConfig(2, 3, 1.0) and type(cfg.d) is float
    assert json.loads(GridFunction.constant(cfg, 1.0).to_json())["d"] == 1.0


def test_config_caps_cell_count():
    # n*L <= 24: 2^24 float64 cells are 128 MB
    with pytest.raises(ValueError, match="too large"):
        LatticeConfig(2, 13, 1.0)
    assert LatticeConfig(1, 24, 0.5).num_cells == 2**24
    assert LatticeConfig(3, 8, 1.5).num_cells == 2**24


@pytest.mark.parametrize("n", [100, 10**30])
def test_config_caps_dimension_at_any_level(n):
    # at L = 0, n*L is 0: n = 10**30 once overflowed and n = 100 hit numpy's axis limit
    with pytest.raises(ValueError, match="dimension n must be at most 24"):
        LatticeConfig(n, 0, 0.5)


def test_cube_id_range_check_does_not_build_two_to_the_level():
    # 2**level at this level is a 125 MB integer and takes seconds to build
    q = CubeId.parse("1000000000:5")
    assert q.level == 10**9 and q.index == (5,)
    with pytest.raises(ValueError, match="malformed"):
        CubeId.parse("1000000000:-1")
    with pytest.raises(ValueError, match="out of range"):
        CubeId(3, (0, 8))


@pytest.mark.parametrize("level, index, field", [(2, (1.5,), "cube index entry"), (2, (True,), "cube index entry"),
                                                  (1, ("1",), "cube index entry"), (2, (0, None), "cube index entry"),
                                                  (1.5, (0,), "cube level"), (True, (0,), "cube level"),
                                                  ("1", (0,), "cube level"), (np.float64(1.0), (0,), "cube level")])
def test_cube_id_needs_integer_level_and_index(level, index, field):
    # a float or bool index was truncated to another cube, and a float level raised TypeError
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        CubeId(level, index)


def test_cube_id_holds_numpy_integers_as_int():
    q = CubeId(np.int64(2), (np.int32(3), np.uint8(1)))
    assert q == CubeId(2, (3, 1)) and hash(q) == hash(CubeId(2, (3, 1)))
    assert type(q.level) is int and all(type(j) is int for j in q.index)
    with pytest.raises(ValueError, match="out of range"):
        CubeId(np.int64(2), (np.int64(4),))
    with pytest.raises(ValueError, match="cube level must be >= 0"):
        CubeId(np.int64(-1), (0,))


def test_cube_id_roundtrip():
    q = CubeId(2, (3, 1))
    assert str(q) == "2:3,1"
    assert CubeId.parse("2:3,1") == q
    assert q.side == 0.25
    assert q.volume == 0.0625
    with pytest.raises(ValueError):
        CubeId(1, (2,))
    with pytest.raises(ValueError):
        CubeId(-1, (0,))


def test_children_and_parent():
    cfg = LatticeConfig(1, 2, 0.5)
    root = CubeId(0, (0,))
    kids = children(cfg, root)
    assert kids == {CubeId(1, (0,)), CubeId(1, (1,))}
    cfg2 = LatticeConfig(2, 1, 1.0)
    assert len(children(cfg2, CubeId(0, (0, 0)))) == 4
    with pytest.raises(LevelOverflowError):
        children(cfg2, CubeId(1, (0, 0)))
    # a cube of another dimension is checked as `level_masks` checks it
    with pytest.raises(ValueError, match="wrong dimension"):
        children(LatticeConfig(1, 3, 0.5), CubeId(0, (0, 0)))
    with pytest.raises(LevelOverflowError):
        children(cfg, CubeId(3, (0,)))


def test_cube_count_and_enumeration():
    cfg = LatticeConfig(1, 3, 0.5)
    assert sum(1 for _ in all_cubes(cfg)) == 15
    assert sum(1 for q in all_cubes(cfg, 1)) == 3


def test_grid_function_immutable_and_shape():
    cfg = LatticeConfig(2, 2, 1.0)
    f = GridFunction.constant(cfg, 2.5)
    assert f.grid.shape == (4, 4)
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(ValueError):
        GridFunction(cfg, [1.0, 2.0])


@pytest.mark.parametrize("shape", ["flat", "grid"])
def test_grid_function_owns_its_values(shape):
    # writing to the caller's array after construction moves neither the
    # values nor a cached Luxemburg table (the table kept the old root
    # norm, 0.650 against 65.0, when the array was shared)
    cfg = LatticeConfig(2, 3, 1.0)
    v = np.arange(1.0, 65.0) / 64.0
    v = v if shape == "flat" else v.reshape(cfg.grid_shape)
    f = GridFunction(cfg, v)
    root = luxemburg_norm_table(f, LlogL())[0][0, 0]
    v *= 100.0
    assert not np.shares_memory(f.values, v)
    assert np.array_equal(f.values, np.arange(1.0, 65.0) / 64.0)
    assert luxemburg_norm_table(f, LlogL())[0][0, 0] == root == luxemburg_norm(f, CubeId(0, (0, 0)), LlogL())


def test_grid_function_adopts_kernel_arrays():
    # the private path keeps a float array the caller has just made, read-only
    cfg = LatticeConfig(1, 3, 0.5)
    a = np.linspace(0.0, 1.0, 8)
    f = GridFunction._adopt(cfg, a)
    assert np.shares_memory(f.values, a) and not f.values.flags.writeable
    with pytest.raises(ValueError, match="finite"):
        GridFunction._adopt(cfg, np.full(8, np.inf))
    with pytest.raises(ValueError, match="expected 8 leaf values"):
        GridFunction._adopt(cfg, np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_function_rejects_non_finite(bad):
    cfg = LatticeConfig(1, 2, 0.5)
    with pytest.raises(ValueError, match="finite"):
        GridFunction(cfg, [0.0, bad, 1.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        GridFunction.from_json(json.dumps({"n": 1, "L": 2, "d": 0.5, "values": [0.0, bad, 1.0, 0.0]}))


def test_grid_function_rejects_int_beyond_float_range():
    # OverflowError escaped np.asarray before
    with pytest.raises(ValueError, match="within the float range"):
        GridFunction(LatticeConfig(1, 1, 0.5), [10**400, 0])


@pytest.mark.parametrize("field, bad", [("L", 2.9), ("L", 2.0), ("L", "2"), ("n", True), ("n", None)])
def test_from_json_requires_integer_sizes(field, bad):
    # int() would read 2.9 as 2 and true as 1
    doc = {"n": 1, "L": 2, "d": 0.5, "values": [0.0, 1.0, 1.0, 0.0]}
    doc[field] = bad
    with pytest.raises(ValueError, match=f"^{field} must be a JSON integer"):
        GridFunction.from_json(json.dumps(doc))


@pytest.mark.parametrize("name", sorted(MALFORMED_GRID_FILES))
def test_from_json_schema_names_the_field(name):
    text, message = MALFORMED_GRID_FILES[name]
    with pytest.raises(ValueError, match=f"^{message}"):
        GridFunction.from_json(text)


@pytest.mark.parametrize("text, message", [
    ("[" * 200000 + "]" * 200000, "JSON nested too deeply"),
    ('{"n": 1, "L": 1, "d": %d, "values": [1, 0]}' % 10**400, "within the float range"),
    ('{"n": 1, "L": 1, "d": 0.5, "values": [%d, 0]}' % 10**400, "within the float range"),
], ids=["deep", "huge_int_d", "huge_int_value"])
def test_from_json_beyond_the_parser_or_float_range(text, message):
    # RecursionError and OverflowError escaped before
    with pytest.raises(ValueError, match=message):
        GridFunction.from_json(text)


def test_from_csv_field_over_the_csv_limit_names_the_row(tmp_path):
    # csv.Error escaped before; the limit is csv.field_size_limit(), 131072
    path = tmp_path / "f.csv"
    path.write_text("1\n0\n" + "1" * 131073 + "\n0\n")
    with pytest.raises(ValueError, match="^row 3: field larger than field limit"):
        GridFunction.from_csv(path, LatticeConfig(1, 2, 0.5))


def test_from_json_accepts_integer_values_and_d():
    g = GridFunction.from_json('{"n": 2, "L": 1, "d": 1, "values": [1, 0, 2.5, 0]}')
    assert g.config == LatticeConfig(2, 1, 1.0)
    assert np.array_equal(g.values, [1.0, 0.0, 2.5, 0.0])


def test_indicator_and_restrict():
    cfg = LatticeConfig(1, 2, 0.5)
    f = indicator(cfg, [CubeId(1, (1,))])
    assert np.array_equal(f.values, [0, 0, 1, 1])
    assert f.is_indicator()
    assert np.array_equal(f.restrict(CubeId(1, (0,))), [0, 0])


def test_cell_average():
    cfg = LatticeConfig(1, 2, 0.5)
    f = GridFunction(cfg, [2, 0, 1, 0])
    assert float(f.restrict(CubeId(0, (0,))).mean()) == 0.75
    assert float(f.restrict(CubeId(1, (0,))).mean()) == 1.0
    assert float(f.restrict(CubeId(2, (0,))).mean()) == 2.0


def test_measure_of_cube_additive_over_children(rng):
    cfg = LatticeConfig(2, 3, 1.0)
    mu = GridFunction(cfg, rng.random(cfg.num_cells))
    for k in range(cfg.L):
        for q in all_cubes(cfg, k):
            kid_sum = sum(measure_of_cube(mu, c) for c in children(cfg, q))
            assert measure_of_cube(mu, q) == pytest.approx(kid_sum, abs=1e-14)
    with pytest.raises(ValueError):
        measure_of_cube(GridFunction(cfg, -np.ones(cfg.num_cells)), CubeId(0, (0, 0)))


def test_validate_tiling():
    cfg = LatticeConfig(1, 2, 0.5)
    ok = validate_tiling(cfg, Tiling([CubeId(1, (0,)), CubeId(2, (2,)), CubeId(2, (3,))]))
    assert ok.ok and ok.kind is None
    under = validate_tiling(cfg, Tiling([CubeId(1, (0,))]))
    assert not under.ok and under.kind == "under-covered"
    over = validate_tiling(cfg, Tiling([CubeId(0, (0,)), CubeId(1, (1,))]))
    assert not over.ok and over.kind == "over-covered"
    assert over.cell is not None


def test_tiling_partition_identity(rng):
    # summing cube averages weighted by volume over a tiling recovers the mean
    cfg = LatticeConfig(2, 2, 1.0)
    f = GridFunction(cfg, rng.random(cfg.num_cells))
    t = Tiling([CubeId(1, (0, 0)), CubeId(1, (0, 1)), CubeId(1, (1, 0)),
                CubeId(2, (2, 2)), CubeId(2, (2, 3)), CubeId(2, (3, 2)), CubeId(2, (3, 3))])
    assert validate_tiling(cfg, t).ok
    total = sum(float(f.restrict(q).mean()) * q.volume for q in t)
    assert total == pytest.approx(f.values.mean(), rel=1e-12)


def test_json_roundtrip():
    cfg = LatticeConfig(2, 2, 1.0)
    f = GridFunction(cfg, np.linspace(0.0, 3.0, cfg.num_cells))
    g = GridFunction.from_json(f.to_json())
    assert g.config == cfg
    assert np.array_equal(g.values, f.values)
    assert g == f


def test_csv_roundtrip(tmp_path):
    cfg = LatticeConfig(1, 3, 0.5)
    f = GridFunction(cfg, np.arange(8.0) / 7.0)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    g = GridFunction.from_csv(path, cfg)
    assert np.array_equal(g.values, f.values)


def test_tree_primitives_agree_with_cube_slices(rng):
    cfg = LatticeConfig(2, 3, 1.0)
    grid = rng.random(cfg.grid_shape)
    for k in range(cfg.L + 1):
        cubes = [q for q in all_cubes(cfg) if q.level == k]
        rows = cube_blocks(grid, k)
        level = grid
        for _ in range(cfg.L - k):
            level = coarsen(level)
        low = grid
        for _ in range(cfg.L - k):
            low = coarsen(low, np.minimum)
        for flat, q in enumerate(cubes):
            block = grid[cube_slices(cfg, q)]
            assert np.array_equal(np.sort(rows[flat]), np.sort(block.reshape(-1)))
            assert level[q.index] == pytest.approx(block.sum(), rel=1e-12)
            assert low[q.index] == block.min()
        assert np.array_equal(coarsen(refine(level, 2), np.maximum), level)


def test_cube_slices_cover_grid():
    cfg = LatticeConfig(2, 2, 1.0)
    hit = np.zeros(cfg.grid_shape, dtype=int)
    for q in all_cubes(cfg, 1):
        if q.level == 1:
            hit[cube_slices(cfg, q)] += 1
    assert np.all(hit == 1)
