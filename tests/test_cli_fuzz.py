"""CLI fuzz: mutated key cells never crash ``pairs``, ``stats`` or ``matrix``,
and no argument list crashes ``simulate``.

Each input example mutates one tiny input file: a key cell of the customers,
pair-table or mapping CSV, one numeric cell, a blank line after a data row, or
a UTF-8 byte order mark before the header. The three commands
then run in fresh interpreters, each with a timeout, and must exit 0 or 2
without a traceback or a numpy RuntimeWarning on stderr. Each argument example
runs ``simulate`` on the untouched files with option values drawn from fixed
lists, and it must exit 0, 1 or 2 the same way. The examples are derandomized
and never read from or saved to the example database, so a run tests the same
inputs everywhere.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import retail_profiler
from retail_profiler import pairing, targets
from retail_profiler.model import CUSTOMER_CSV_HEADER
from tests.conftest import offset_demand

TIMEOUT_S = 30

CUSTOMERS = [CUSTOMER_CSV_HEADER] + [
    [cid, nace, location, "2.5"] + [repr(v) for v in offset_demand(100, swing)]
    for cid, nace, location, swing in [
        ("C1", "N1", "P1-M1", 10), ("C2", "N1", "P1-M1", 20), ("C3", "N2", "P2-M1", 30),
        ("C4", "N2", "P1-M2", 40), ("C5", "N3", "P2-M2", 5), ("C6", "N3", "P2-M2", 15),
    ]
]
LOCATION_MAP = [pairing.LOCATION_MAP_HEADER, ("P1-M1", "P1"), ("P1-M2", "P1"), ("P2-M1", "P2"), ("P2-M2", "P2")]
NACE_MAP = [pairing.NACE_MAP_HEADER, ("N1", "D1"), ("N2", "D1"), ("N3", "D2")]
SOLAR = [targets.SOLAR_TABLE_HEADER, ["P1"] + ["1"] * 6 + ["2"] * 6, ["P2"] + ["2"] * 6 + ["1"] * 6]

# file -> the columns holding its key cells
KEY_COLUMNS = {"customers": (0, 1, 2), "pairs": (0, 1), "location_map": (0, 1), "nace_map": (0, 1)}

# a key cell's new text, given the cell and the same column's other cells
KEY_EDITS = {
    "empty": lambda cell, others: "",
    "padded": lambda cell, others: f"  {cell} ",
    "nul": lambda cell, others: cell + "\0",
    "quotes": lambda cell, others: f'"{cell}"',
    "inner-quote": lambda cell, others: f'{cell}"x',
    "line-separator": lambda cell, others: cell + "\u2028",
    "non-ascii": lambda cell, others: cell + "Łódź",
    "repeated": lambda cell, others: others[0],
    "unmapped": lambda cell, others: "ZZ-unmapped",
}
NUMBER_EDITS = ["", "nan", "-1", "1e309", "5e-324", "0", "abc", "1_0", "١", "9" * 30]

# a whole file's new rows, given its rows and a data row
FILE_EDITS = {
    "blank-line": lambda rows, row: rows[:row + 1] + [[]] + rows[row + 1:],
    "bom": lambda rows, row: [["\ufeff" + rows[0][0], *rows[0][1:]], *rows[1:]],
}


def _refuses_huge_allocations() -> bool:
    """Whether the OS refuses one allocation larger than RAM plus swap (Linux overcommit modes 0 and 2)."""
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() in ("0", "2")
    except OSError:
        return False


# simulate's option values, the valid one first; 10**12 repetitions ask for a
# 10**12 x n float64 block, at least 8 TB, so they are listed only where such a
# request is refused at once
SIMULATE_OPTIONS = {
    "-n": ["1", "6", "0", "-1", "9" * 30, "x"],
    "--reps": ["1", "3", "0", "-1", "x"] + (["1000000000000"] if _refuses_huge_allocations() else []),
    "--threads": ["1", "2", "0", "x"],
    "--seed": ["0", "-1", "9" * 30, "x"],
    "--checkpoints": ["1", "0", "1,,2", "6,1", "9" * 30, "x"],
    "--strategies": ["eid,random", "eid", "random", ",", "lunar"],
}
VALID_OPTIONS = {flag: values[0] for flag, values in SIMULATE_OPTIONS.items()}


def run(*args):
    src = Path(retail_profiler.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "retail_profiler.cli", *args],
        capture_output=True,
        text=True,
        encoding="utf-8",
        errors="replace",
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=TIMEOUT_S,
    )


def write(path: Path, rows, quoted: bool) -> None:
    """Write rows through ``csv.writer``, or joined by bare commas (the text as it is)."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        if quoted:
            csv.writer(fh).writerows(rows)
        else:
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


@pytest.fixture(scope="module")
def pair_rows(tmp_path_factory):
    """The rows of the pair table the untouched customers give."""
    root = tmp_path_factory.mktemp("base")
    write(root / "customers.csv", CUSTOMERS, quoted=True)
    proc = run("pairs", "--customers", str(root / "customers.csv"), "--target", "flat", "--out", str(root))
    assert proc.returncode == 0, proc.stderr
    with (root / "pairs.csv").open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def run_pipeline(root: Path, files: dict) -> list:
    """Write the inputs, then run pairs, stats and matrix on them."""
    for name, (rows, quoted) in files.items():
        write(root / f"{name}.csv", rows, quoted)
    solar = f"solar:{root / 'solar.csv'},{root / 'location_map.csv'}"
    customers, pairs = str(root / "customers.csv"), str(root / "pairs.csv")
    return [
        run("pairs", "--customers", customers, "--target", solar, "--out", str(root / "p")),
        run("stats", "--pairs", pairs, "--out", str(root / "s")),
        run(
            "matrix", "--pairs", pairs, "--customers", customers, "--target", "flat",
            "--location-map", str(root / "location_map.csv"), "--nace-map", str(root / "nace_map.csv"),
            "--out", str(root / "m"),
        ),
    ]


def inputs(pair_rows) -> dict:
    """Each input file's rows and whether it is written through ``csv.writer``."""
    return {
        "customers": (CUSTOMERS, True),
        "pairs": (pair_rows, True),
        "location_map": (LOCATION_MAP, True),
        "nace_map": (NACE_MAP, True),
        "solar": (SOLAR, True),
    }


def assert_clean(procs, codes=(0, 2)):
    for proc in procs:
        assert proc.returncode in codes, (proc.args, proc.returncode, proc.stderr)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "RuntimeWarning" not in proc.stderr, proc.stderr


def test_untouched_inputs_pass(tmp_path, pair_rows):
    assert_clean(run_pipeline(tmp_path, inputs(pair_rows)), codes=(0,))


@st.composite
def places(draw, edit: str):
    """(file, data row draw, column, whether the file is written through csv.writer)."""
    if edit in FILE_EDITS:
        name, column = draw(st.sampled_from(sorted(KEY_COLUMNS) + ["solar"])), None
    elif edit not in KEY_EDITS:
        name = draw(st.sampled_from(["customers", "pairs"]))
        last = len(CUSTOMER_CSV_HEADER) if name == "customers" else len(pairing.PAIR_TABLE_HEADER)
        column = draw(st.integers(len(KEY_COLUMNS[name]), last - 1))
    else:
        name = draw(st.sampled_from(sorted(KEY_COLUMNS)))
        column = draw(st.sampled_from(KEY_COLUMNS[name]))
    return name, draw(st.integers(0, 99)), column, draw(st.booleans())


@pytest.mark.parametrize("edit", sorted(KEY_EDITS) + NUMBER_EDITS + sorted(FILE_EDITS))
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_inputs_exit_zero_or_two(tmp_path_factory, pair_rows, edit, data):
    name, row, column, quoted = data.draw(places(edit))
    files = inputs(pair_rows)
    rows = [list(r) for r in files[name][0]]
    row = 1 + row % (len(rows) - 1)
    if edit in FILE_EDITS:
        rows = FILE_EDITS[edit](rows, row)
    else:
        cell = rows[row][column]
        others = [r[column] for r in rows[1:] if r[column] != cell] or [cell]
        rows[row][column] = KEY_EDITS[edit](cell, others) if edit in KEY_EDITS else edit
    files[name] = (rows, quoted)
    assert_clean(run_pipeline(tmp_path_factory.mktemp("fuzz"), files))


def test_huge_n_k_exits_two(tmp_path, pair_rows):
    """The number edits' draws leave n_k to chance, so the huge integer is put there once for sure."""
    rows = [list(r) for r in pair_rows]
    rows[1][pairing.PAIR_TABLE_HEADER.index("n_k")] = "9" * 30
    files = dict(inputs(pair_rows), pairs=(rows, False))
    procs = run_pipeline(tmp_path, files)
    assert_clean(procs[1:], codes=(2,))
    assert all("pairs.csv: line 2: n_k must be <= 1000000, got " in proc.stderr for proc in procs[1:])


def run_simulate(root: Path, pair_rows, options: dict):
    """Write the untouched inputs, then run simulate on them with ``options``."""
    for name, (rows, quoted) in inputs(pair_rows).items():
        write(root / f"{name}.csv", rows, quoted)
    return run(
        "simulate", "--customers", str(root / "customers.csv"), "--pairs", str(root / "pairs.csv"),
        "--target", "flat", "--out", str(root / "sim"), *(arg for item in options.items() for arg in item),
    )


@pytest.mark.parametrize(
    "flag,value", [(flag, value) for flag, values in SIMULATE_OPTIONS.items() for value in values[1:]]
)
def test_simulate_option_exits_zero_one_or_two(tmp_path, pair_rows, flag, value):
    """Every listed value once, the other options valid, so each reaches the code that reads it."""
    assert_clean([run_simulate(tmp_path, pair_rows, {**VALID_OPTIONS, flag: value})], codes=(0, 1, 2))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_simulate_argv_exits_zero_one_or_two(tmp_path_factory, pair_rows, data):
    """Up to three options at once take a listed value; the rest stay valid."""
    options = dict(VALID_OPTIONS)
    for flag in sorted(data.draw(st.sets(st.sampled_from(sorted(SIMULATE_OPTIONS)), max_size=3))):
        options[flag] = data.draw(st.sampled_from(SIMULATE_OPTIONS[flag]))
    assert_clean([run_simulate(tmp_path_factory.mktemp("argv"), pair_rows, options)], codes=(0, 1, 2))
