"""The CLI's input contract as a property.

Whatever a grid file holds, every command that reads one exits 0 or 2,
prints no traceback, writes one "error:" line when it exits 2, and exits 0
only for a valid grid.  Validity is decided here from the file format
alone: a JSON object with integer n and L, a number d, 1 <= n <= 24,
L >= 0, n*L <= 24, 0 < d < n, and a flat list of 2^(nL) finite numbers;
or, for CSV, one finite number per non-empty row and 2^(nL) rows.

Drawn leaf values stay within |v| <= 1e6.  Values whose powers or sums
leave the float64 range are a separate, known defect: the xfail tests at
the end of test_cli.py.
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choquet.cli import main

contract_settings = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# Every command that reads a grid; "{root}" is the root cube for the
# file's n, or a drawn cube address in its place.
GRID_COMMANDS = [
    ["content"],
    ["frostman"],
    ["choquet", "--p", "2"],
    ["luxemburg", "--phi", "power:2", "--cube", "{root}"],
    ["maximal", "hl"],
    ["maximal", "md"],
    ["maximal", "orlicz", "--phi", "power:2"],
    ["norm", "--space", "morrey", "--p", "2"],
    ["sparse", "apply", "--cubes", "{root}"],
]
CSV_FLAGS = ["--n", "2", "--L", "1", "--d", "1.0"]
CSV_CELLS = 4

LEAF = st.one_of(st.sampled_from([0, 1, 0.0, 1.0, -1.0]), st.floats(-1e6, 1e6),
                 st.sampled_from([math.nan, math.inf, -math.inf]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), LEAF, st.text(max_size=4))
KEYS = st.one_of(st.sampled_from(["n", "L", "d", "values"]), st.text(max_size=3))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(KEYS, kids, max_size=5),
    max_leaves=12,
)


def _is_number(x) -> bool:
    return type(x) in (int, float)


def _finite(x) -> bool:
    return _is_number(x) and abs(x) <= sys.float_info.max  # exact for big ints


def valid_grid_document(text: str) -> bool:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        return False
    if type(doc) is not dict or not {"n", "L", "d", "values"} <= doc.keys():
        return False
    n, L, d, values = doc["n"], doc["L"], doc["d"], doc["values"]
    if type(n) is not int or type(L) is not int or not _finite(d):
        return False
    if not (1 <= n <= 24 and L >= 0 and n * L <= 24 and 0 < d < n):
        return False
    return type(values) is list and len(values) == 2 ** (n * L) and all(map(_finite, values))


def valid_csv_grid(text: str) -> bool:
    numbers = []
    try:
        for row in csv.reader(io.StringIO(text, newline="")):
            if row:
                if len(row) != 1:
                    return False
                numbers.append(float(row[0]))
    except (csv.Error, ValueError):
        return False
    return len(numbers) == CSV_CELLS and all(map(math.isfinite, numbers))


def _root_cube(text: str) -> str:
    try:
        n = json.loads(text).get("n")
    except (ValueError, RecursionError, AttributeError):
        n = None
    n = n if type(n) is int and 1 <= n <= 3 else 1
    return "0:" + ",".join(["0"] * n)


def check_every_command(text: str, suffix: str, valid: bool, cube: str | None = None, flags=()):
    cube = cube or (_root_cube(text) if suffix == ".json" else "0:0,0")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"grid{suffix}"
        path.write_text(text)
        for command in GRID_COMMANDS:
            args = [*flags, *(cube if a == "{root}" else a for a in command), "-i", str(path)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
            err = err.getvalue()
            assert code in (0, 2), (args, code, err)
            assert "Traceback" not in err, args
            if code == 2:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), (args, err)
            else:
                assert valid, (args, text[:200])


@st.composite
def grid_documents(draw):
    """A valid grid document, n*L <= 4, an indicator half the time."""
    n = draw(st.integers(1, 2))
    L = draw(st.integers(0, 4 // n))
    leaf = st.sampled_from([0, 1]) if draw(st.booleans()) else st.floats(-1e6, 1e6)
    values = draw(st.lists(leaf, min_size=2 ** (n * L), max_size=2 ** (n * L)))
    return {"n": n, "L": L, "d": draw(st.floats(0.05, n - 0.05)), "values": values}


@st.composite
def mutated_grid_texts(draw):
    doc = draw(grid_documents())
    how = draw(st.sampled_from(["none", "drop", "replace", "resize", "value", "truncate", "splice"]))
    if how == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif how == "replace":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON_VALUES)
    elif how == "resize":
        doc["values"] = doc["values"][1:] if draw(st.booleans()) else doc["values"] + [0]
    elif how == "value":
        doc["values"][draw(st.integers(0, len(doc["values"]) - 1))] = draw(JSON_VALUES)
    text = json.dumps(doc)
    if how == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif how == "splice":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.text(alphabet='[]{}",:0123456789.-+eE aflnrstuINy', max_size=6)) + text[at:]
    return text


@contract_settings
@given(JSON_VALUES.map(json.dumps))
@example("[" * 200000 + "]" * 200000)
@example('{"n": %d, "L": 0, "d": 0.5, "values": [1]}' % 10**30)
@example('{"n": 100, "L": 0, "d": 0.5, "values": [1]}')
@example('{"n": 1, "L": 1, "d": 0.5, "values": [%d, 0]}' % 10**400)
def test_any_json_document_fails_cleanly(text):
    check_every_command(text, ".json", valid_grid_document(text))


@contract_settings
@given(mutated_grid_texts(), st.sampled_from([None, "1:1", "0:0,0,0", "10000000000:0"]))
@example('{"n": 1, "L": 2, "d": 0.5, "values": [1, 0, 1, 0]}', "10000000000:0")
def test_mutated_grid_file_fails_cleanly(text, cube):
    check_every_command(text, ".json", valid_grid_document(text), cube)


NUMBER_ROW = LEAF.filter(_is_number).map(repr)


@st.composite
def csv_texts(draw):
    """CSV_CELLS number rows, then up to two rows inserted or replaced by
    a blank row, another number or a few characters of CSV-ish text."""
    rows = draw(st.lists(NUMBER_ROW, min_size=CSV_CELLS, max_size=CSV_CELLS))
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.one_of(st.just(""), NUMBER_ROW, st.text(alphabet='0123456789.,-+eE "naif\t', max_size=6)))
        at = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows.insert(at, row)
        else:
            rows[at] = row
    return "\n".join(rows) + "\n"


@contract_settings
@given(csv_texts())
@example("1" * 131073 + "\n")
def test_csv_text_fails_cleanly(text):
    check_every_command(text, ".csv", valid_csv_grid(text), flags=CSV_FLAGS)


def test_valid_grids_reach_exit_zero():
    # every command accepts a valid grid, so the properties above see exit 0 too
    doc = '{"n": 2, "L": 1, "d": 1.0, "values": [1, 0, 0, 1]}'
    assert valid_grid_document(doc) and valid_csv_grid("1\n0\n0\n1\n")
    for command in GRID_COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "grid.json"
            path.write_text(doc)
            args = [a.replace("{root}", "0:0,0") for a in command] + ["-i", str(path)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(args) == 0, args


@pytest.mark.parametrize("text, valid", [
    ('{"n": 1, "L": 1, "d": 0.5, "values": [1, 0]}', True),
    ('{"n": 1, "L": 1, "d": 0.5, "values": [1, 0], "extra": null}', True),
    ('{"n": 1, "L": 1, "d": 1, "values": [1, 0]}', False),
    ('{"n": 1, "L": 1, "d": 0.5, "values": [true, 0]}', False),
    ('{"n": 1, "L": 1, "d": 0.5, "values": [NaN, 0]}', False),
    ('{"n": 1, "L": 1.0, "d": 0.5, "values": [1, 0]}', False),
])
def test_validity_oracle(text, valid):
    assert valid_grid_document(text) == valid
