import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from choquet.cli import main
from choquet.lattice import GridFunction, LatticeConfig

from conftest import MALFORMED_GRID_FILES


@pytest.fixture
def grid_file(tmp_path):
    cfg = LatticeConfig(1, 2, 0.5)
    f = GridFunction(cfg, [2.0, 0.0, 1.0, 0.0])
    path = tmp_path / "f.json"
    path.write_text(f.to_json())
    return path


@pytest.fixture
def set_file(tmp_path):
    cfg = LatticeConfig(1, 2, 0.5)
    f = GridFunction(cfg, [1.0, 0.0, 1.0, 0.0])
    path = tmp_path / "E.json"
    path.write_text(f.to_json())
    return path


def run(capsys, *args):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_choquet_norm_output(capsys, grid_file):
    code, out, _ = run(capsys, "choquet", "-i", grid_file, "--p", "1")
    assert code == 0
    assert out.strip() == "1.500000000000"


def test_content_output(capsys, set_file):
    code, out, _ = run(capsys, "content", "-i", set_file)
    assert code == 0
    doc = json.loads(out)
    assert float(doc["value"]) == 1.0
    assert doc["cover"] == ["0:0"]


def test_content_rejects_non_indicator(capsys, grid_file):
    code, out, err = run(capsys, "content", "-i", grid_file)
    assert code == 2
    assert "indicator" in err


def test_frostman_roundtrip(capsys, set_file, tmp_path):
    out_path = tmp_path / "mu.json"
    code, _, _ = run(capsys, "frostman", "-i", set_file, "-o", out_path)
    assert code == 0
    mu = GridFunction.from_json(out_path.read_text())
    assert np.array_equal(mu.values, [2.0, 0.0, 2.0, 0.0])


def test_luxemburg(capsys, set_file):
    code, out, _ = run(capsys, "luxemburg", "-i", set_file, "--cube", "0:0",
                       "--phi", "power:2")
    assert code == 0
    assert float(out) == pytest.approx(2**-0.5, rel=1e-9)


def test_maximal_hl(capsys, grid_file, tmp_path):
    out_path = tmp_path / "m.json"
    code, _, _ = run(capsys, "maximal", "hl", "-i", grid_file, "-o", out_path)
    assert code == 0
    m = GridFunction.from_json(out_path.read_text())
    assert m.values[0] == 2.0


def test_norm_morrey(capsys, set_file):
    code, out, _ = run(capsys, "norm", "-i", set_file, "--space", "morrey", "--p", "2")
    assert code == 0
    assert float(out) > 0


@pytest.mark.parametrize("args, missing", [
    (["--space", "block", "--p", "1", "--phi", "power:2"], "tiling"),
    (["--space", "block", "--phi", "power:2", "--tiling", "1:0 1:1"], "p"),
    (["--space", "orlicz_morrey", "--p", "2"], "phi"),
    (["--space", "morrey"], "p"),
])
def test_norm_missing_flag_is_usage_error(capsys, grid_file, args, missing):
    code, out, err = run(capsys, "norm", "-i", grid_file, *args)
    assert code == 2
    assert out == ""
    assert f"needs {missing}" in err and "Traceback" not in err


@pytest.mark.parametrize("space, extra", [
    ("morrey", []),
    ("orlicz_morrey", ["--phi", "power:2"]),
    ("tiling_orlicz_morrey", ["--phi", "power:2", "--tiling", "1:0 1:1"]),
    # a whole command in place of `norm --space`; "{grid}" stands for the input file
    pytest.param(None, ["choquet", "-i", "{grid}"], id="choquet"),
    pytest.param(None, ["--n", "1", "cantor", "growth", "--m", "2", "--depth", "2"], id="cantor_growth"),
])
def test_norm_nan_exponent_is_usage_error(capsys, grid_file, space, extra):
    # NaN fails every comparison, so a check written as `p <= 1` let it through
    if space is None:
        args = [grid_file if a == "{grid}" else a for a in extra]
    else:
        args = ["norm", "-i", grid_file, "--space", space, *extra]
    code, out, err = run(capsys, *args, "--p", "nan")
    assert code == 2
    assert out == ""
    assert "exponent must satisfy p" in err and "got nan" in err and "Traceback" not in err


def test_block_norm_infinite_p_is_usage_error(capsys, tmp_path):
    # every tile norm is below 1, where p = inf once gave a silent 1.0
    h = tmp_path / "h.json"
    h.write_text(GridFunction(LatticeConfig(1, 2, 0.5), [0.0, 0.07, 0.03, 0.05]).to_json())
    code, out, err = run(capsys, "norm", "-i", h, "--space", "block", "--p", "inf",
                         "--phi", "power:2", "--tiling", "1:0 1:1")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_norm_invalid_tiling_is_usage_error(capsys, grid_file):
    # 0:0 and 1:0 both cover the left half
    code, out, err = run(capsys, "norm", "-i", grid_file, "--space", "block", "--p", "1",
                         "--phi", "power:2", "--tiling", "0:0 1:0")
    assert code == 2
    assert out == ""
    assert "invalid tiling: over-covered" in err and "Traceback" not in err


def test_sparse_verify(capsys):
    code, out, _ = run(capsys, "--n", "1", "--L", "2", "--d", "0.5",
                       "sparse", "verify", "--cubes", "0:0 1:0", "--eta", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert float(doc["min_ratio"]) == pytest.approx(0.5)
    assert doc["sparse_at_eta"] is True


def test_sparse_verify_rejects_cube_outside_lattice(capsys):
    # a 2-D cube in a 1-D lattice and a cube at level 9 > L
    code, out, err = run(capsys, "--n", "1", "--L", "3", "--d", "0.5",
                         "sparse", "verify", "--cubes", "0:0 1:0,0 9:5")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_lattice_too_large_is_usage_error(capsys):
    # 2^40 cells would need 8 TiB per grid
    code, out, err = run(capsys, "--n", "2", "--L", "20", "--d", "1.0",
                         "verify", "adams", "--trials", "1")
    assert code == 2
    assert out == ""
    assert "too large" in err and "Traceback" not in err


def test_cantor_content_and_lux(capsys):
    code, out, _ = run(capsys, "--n", "1", "--L", "8", "cantor", "content",
                       "--m", "2", "--depth", "3")
    assert code == 0
    assert all(line.endswith("1.000000000000") for line in out.strip().splitlines())
    code, out, _ = run(capsys, "--n", "1", "--L", "8", "cantor", "lux-bound",
                       "--m", "2", "--depth", "3")
    assert code == 0
    doc = json.loads(out)
    assert float(doc["computed_norm"]) <= float(doc["lambda_star"])


def test_cantor_growth(capsys):
    code, out, _ = run(capsys, "--n", "1", "--L", "8", "cantor", "growth",
                       "--m", "2", "--depth", "3", "--p", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "0,1.000000000000"
    assert lines[3] == "3,4.000000000000"


def test_verify_pass_and_json(capsys):
    code, out, _ = run(capsys, "--n", "1", "--L", "3", "--d", "0.5",
                       "verify", "adams", "--trials", "5", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["suite"] == "adams"


def test_verify_deterministic_bytes(capsys):
    args = ("--n", "1", "--L", "3", "--d", "0.5",
            "verify", "young_suite", "--trials", "5", "--seed", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("suite", ["adams", "cor32"])
def test_verify_rejects_non_positive_trials(capsys, suite, trials):
    # no trial must not read as a pass with worst ratio -inf
    code, out, err = run(capsys, "--n", "1", "--L", "3", "--d", "0.5",
                         "verify", suite, "--trials", trials)
    assert code == 2
    assert out == ""
    assert "trials" in err and "Traceback" not in err


def test_verify_rejects_negative_seed(capsys):
    # numpy's own message ("expected non-negative integer") names no option
    code, out, err = run(capsys, "--n", "1", "--L", "3", "--d", "0.5",
                         "verify", "cor32", "--trials", "1", "--seed", "-5")
    assert code == 2
    assert out == ""
    assert "seed" in err and "Traceback" not in err


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "--n", "1", "--L", "3", "--d", "0.5",
                       "verify", "bogus")
    assert code == 2


def test_missing_input_file(capsys, tmp_path):
    code, _, err = run(capsys, "content", "-i", tmp_path / "absent.json")
    assert code == 2


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_non_finite_input_is_usage_error(capsys, tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "L": 1, "d": 1.0, "values": [%s, 0, 1, 0]}' % bad)
    code, out, err = run(capsys, "luxemburg", "-i", path, "--cube", "0:0,0", "--phi", "power:2")
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("field, bad", [("L", 2.9), ("n", True)])
def test_non_integer_lattice_size_is_usage_error(capsys, tmp_path, field, bad):
    doc = {"n": 1, "L": 2, "d": 0.5, "values": [1, 0, 1, 0]}
    doc[field] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "choquet", "-i", path, "--p", "1")
    assert code == 2
    assert out == ""
    assert f"{field} must be a JSON integer" in err and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(MALFORMED_GRID_FILES))
def test_malformed_grid_file_is_usage_error(capsys, tmp_path, name):
    text, message = MALFORMED_GRID_FILES[name]
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "choquet", "-i", path, "--p", "1")
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("rows,bad_row", [(["1,7", "0,x", "1", "0"], 1), (["1", "0,x", "1", "0"], 2),
                                          (["1", "", "0", "x"], 4), (["1", "0", ",", "0"], 3)])
def test_csv_row_without_one_number_is_usage_error(capsys, tmp_path, rows, bad_row):
    # a row such as "1,7" was read as 1 before
    path = tmp_path / "f.csv"
    path.write_text("\n".join(rows) + "\n")
    code, out, err = run(capsys, "--n", "1", "--L", "2", "--d", "0.5", "choquet", "-i", path, "--p", "1")
    assert code == 2
    assert out == ""
    assert f"row {bad_row}: expected one number" in err and "Traceback" not in err


def test_csv_blank_rows_are_skipped(capsys, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("2\n\n0\n1\n\n0\n")
    code, out, _ = run(capsys, "--n", "1", "--L", "2", "--d", "0.5", "choquet", "-i", path, "--p", "1")
    assert code == 0
    assert out.strip() == "1.500000000000"


@pytest.mark.parametrize("args", [["frostman"], ["maximal", "hl"], ["sparse", "apply", "--cubes", "0:0"]])
@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_unwritable_output_is_usage_error(capsys, set_file, tmp_path, args, suffix):
    target = tmp_path / "absent" / f"out{suffix}"
    code, out, err = run(capsys, *args, "-i", set_file, "-o", target)
    assert code == 2
    assert out == ""
    assert f"cannot write grid function to {target}" in err
    assert not target.parent.exists()


def test_verify_needs_lattice_flags(capsys):
    code, out, err = run(capsys, "--n", "1", "--L", "3", "verify", "adams", "--trials", "1")
    assert code == 2
    assert out == ""
    assert "needs --n, --L and --d" in err


def test_verify_cantor_suite_rejects_unsnapped_d(capsys):
    code, out, err = run(capsys, "--n", "1", "--L", "6", "--d", "0.3", "verify", "cantor_suite")
    assert code == 2
    assert out == ""
    assert "d = n/m" in err and "Traceback" not in err


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_csv_format_roundtrip(capsys, tmp_path):
    cfg = LatticeConfig(1, 2, 0.5)
    f = GridFunction(cfg, [1.0, 0.0, 1.0, 0.0])
    path = tmp_path / "E.csv"
    f.to_csv(path)
    code, out, _ = run(capsys, "--n", "1", "--L", "2", "--d", "0.5",
                       "--format", "csv", "content", "-i", path)
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert float(rows["value"]) == 1.0


@pytest.fixture
def set_file_2d(tmp_path):
    # n=2, L=8, d=1.9: a random set whose cover has thousands of cubes
    cfg = LatticeConfig(2, 8, 1.9)
    mask = np.random.default_rng(3).random(cfg.num_cells) < 0.3
    path = tmp_path / "set.json"
    path.write_text(GridFunction(cfg, mask.astype(float)).to_json())
    return path


@pytest.mark.parametrize("flags, message", [
    (["--n", "1"], "--n 1 does not match n=2"),
    (["--L", "16"], "--L 16 does not match L=8"),
    (["--d", "1.5"], "--d 1.5 does not match d=1.9"),
], ids=["n", "L", "d"])
def test_lattice_flag_contradicting_json_is_usage_error(capsys, set_file_2d, flags, message):
    code, out, err = run(capsys, *flags, "content", "-i", set_file_2d)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_lattice_flags_matching_json_are_accepted(capsys, set_file_2d):
    _, plain, _ = run(capsys, "content", "-i", set_file_2d)
    code, out, _ = run(capsys, "--n", "2", "--L", "8", "--d", "1.9", "content", "-i", set_file_2d)
    assert code == 0
    assert out == plain


@pytest.mark.parametrize("args", [
    pytest.param(["content", "-i", "{set}"], id="content"),
    pytest.param(["--n", "2", "cantor", "family", "--m", "2", "--depth", "2"], id="cantor_family"),
])
def test_csv_rows_match_json(capsys, set_file_2d, args):
    args = [set_file_2d if a == "{set}" else a for a in args]
    _, out, _ = run(capsys, *args)
    doc = json.loads(out)
    code, out, _ = run(capsys, "--format", "csv", *args)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 2 for row in rows)
    parsed = {}
    for key, item in rows:
        parsed.setdefault(key, []).append(item)
    assert sorted(parsed) == sorted(doc)
    for key, value in doc.items():
        assert parsed[key] == (value if isinstance(value, list) else [str(value)])


def _cli_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def test_closed_stdout_exits_without_traceback(set_file_2d):
    # the cover is about 230 KB, more than a pipe buffer holds
    with subprocess.Popen([sys.executable, "-m", "choquet.cli", "content", "-i", str(set_file_2d)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env()) as proc:
        assert len(proc.stdout.read(60)) == 60
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err


def _cli_subprocess(*args):
    proc = subprocess.run([sys.executable, "-m", "choquet.cli", *map(str, args)],
                          capture_output=True, text=True, env=_cli_env(), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


# Inputs that once escaped as a traceback (exit 1) or a numpy message:
# name -> (file name, file text, arguments with "{file}" for the file).
INPUT_PROBES = {
    "csv_field_over_limit": ("f.csv", "1" * 131073 + "\n",
                             ["--n", "1", "--L", "0", "--d", "0.5", "choquet", "-i", "{file}", "--p", "1"]),
    "json_nested_too_deeply": ("f.json", "[" * 200000 + "]" * 200000, ["choquet", "-i", "{file}", "--p", "1"]),
    "n_overflows_at_L0": ("f.json", '{"n": %d, "L": 0, "d": 0.5, "values": [1]}' % 10**30,
                          ["choquet", "-i", "{file}", "--p", "1"]),
    "n_over_numpy_axes_at_L0": ("f.json", '{"n": 100, "L": 0, "d": 0.5, "values": [1]}',
                                ["choquet", "-i", "{file}", "--p", "1"]),
    "cube_level_10_billion": ("f.json", GridFunction(LatticeConfig(1, 2, 0.5), [1, 0, 1, 0]).to_json(),
                              ["luxemburg", "-i", "{file}", "--cube", "10000000000:0", "--phi", "power:2"]),
}


@pytest.mark.parametrize("in_process", [True, False], ids=["main", "python_m"])
@pytest.mark.parametrize("name", sorted(INPUT_PROBES))
def test_input_probe_is_one_error_line(capsys, tmp_path, name, in_process):
    filename, text, args = INPUT_PROBES[name]
    path = tmp_path / filename
    path.write_text(text)
    args = [path if a == "{file}" else a for a in args]
    code, out, err = run(capsys, *args) if in_process else _cli_subprocess(*args)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _run_quietly(capsys, *args):
    """`run`, with every warning recorded instead of raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *args)
    return code, out, err, [str(w.message) for w in caught]


def _magnitude_file(tmp_path, values):
    path = tmp_path / "f.json"
    path.write_text(GridFunction(LatticeConfig(1, 2, 0.5), values).to_json())
    return path


# Powers or sums of these finite inputs leave the float64 range.  Each
# command should print the true value (the homogeneous value on the unit
# input, times the scale) without a warning; they do not yet.
@pytest.mark.xfail(strict=True, reason="powers underflow to 0: a silent wrong number")
@pytest.mark.parametrize("args", [["choquet", "--p", "2"], ["norm", "--space", "morrey", "--p", "2"]],
                         ids=["choquet", "morrey"])
def test_tiny_values_keep_their_norm(capsys, tmp_path, args):
    _, unit, _, _ = _run_quietly(capsys, *args, "-i", _magnitude_file(tmp_path, [1, 0, 1, 0]))
    code, out, err, caught = _run_quietly(capsys, *args, "-i", _magnitude_file(tmp_path, [1e-200, 0, 1e-200, 0]))
    assert (code, caught) == (0, [])
    assert float(out) == pytest.approx(1e-200 * float(unit), rel=1e-9, abs=0.0)


@pytest.mark.xfail(strict=True, reason="sums overflow: a warning, then 'leaf values must be finite'")
@pytest.mark.parametrize("args", [["maximal", "hl"], ["sparse", "apply", "--cubes", "0:0"],
                                  ["norm", "--space", "morrey", "--p", "2"]],
                         ids=["maximal_hl", "sparse_apply", "morrey"])
def test_huge_values_keep_their_norm(capsys, tmp_path, args):
    _, unit, _, _ = _run_quietly(capsys, *args, "-i", _magnitude_file(tmp_path, [1.0] * 4))
    code, out, err, caught = _run_quietly(capsys, *args, "-i", _magnitude_file(tmp_path, [1.7e308] * 4))
    assert (code, caught) == (0, [])
    got = GridFunction.from_json(out).values if out.startswith("{") else np.array([float(out)])
    want = GridFunction.from_json(unit).values if unit.startswith("{") else np.array([float(unit)])
    assert np.allclose(got, 1.7e308 * want, rtol=1e-9, atol=0.0)


@pytest.mark.xfail(strict=True, reason="prints inf and exits 0")
def test_luxemburg_beyond_float_range_is_usage_error(capsys, tmp_path):
    # the llogl average of the constant 1.7e308 is 1.7e308 * 1.2568 > 1.8e308
    code, out, err, caught = _run_quietly(capsys, "luxemburg", "--phi", "llogl", "--cube", "0:0",
                                          "-i", _magnitude_file(tmp_path, [1.7e308] * 4))
    assert (code, out, caught) == (2, "", [])
    assert err.startswith("error: ")
