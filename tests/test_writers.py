"""The CSV writers against the row-by-row writers in ``tests/writer_oracle.py``.

All eight writers go through ``model.write_csv``, which formats a block of
rows at a time. Each input below goes through the package's writer and
through the referee, with blocks of ``BLOCK`` rows on both sides; the two
files must hold the same bytes. The inputs cover 0, 1, ``BLOCK`` and
``BLOCK + 1`` rows, text cells that ``csv.writer`` quotes or writes bare,
special text that shows up only in a late block, unset and NaN cells, and
extreme floats and counts.
"""

import csv

import numpy as np
import pytest

from retail_profiler import model, pairing, simulate, synth
from retail_profiler.model import MONTHS, CustomerDataset
from retail_profiler.pairing import IdentificationStats, IndicatorMatrix, PairTable
from retail_profiler.simulate import BaselineCurve, DistanceCurve
from retail_profiler.synth import GroundTruth
from tests import writer_oracle
from tests.conftest import dataset_from_strings, row_keys

BLOCK = 4
SIZES = [0, 1, BLOCK, BLOCK + 1]

# csv.writer quotes the first four and writes the others bare
TEXTS = ["a,b", 'say "hi"', "cr\rx", "lf\nx", "nul\0x", "ls\u2028x", "tab\tx", " edge ", "ñandú", "plain"]
FLOATS = [-0.0, 5e-324, 1e16, 1e22, 1.7976931348623157e308, 0.1, 1 / 3, 2.5, 7.0, 1e-7, 123456.789, 0.0]
# text sets: the special texts from the first row on, or plain text with one character
# that csv.writer quotes on the last row
TEXT_SETS = ["special", "late-comma", "late-quote", "late-cr", "late-lf"]
LATE = {"late-comma": ",", "late-quote": '"', "late-cr": "\r", "late-lf": "\n"}


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(model, "_BLOCK", BLOCK)
    monkeypatch.setattr(writer_oracle, "_BLOCK", BLOCK)


def texts(n: int, kind: str, prefix: str = "") -> list[str]:
    """``n`` distinct text cells of the given kind."""
    if kind == "special":
        return [f"{prefix}{TEXTS[i % len(TEXTS)]}{i}" for i in range(n)]
    return [f"{prefix}t{i}" + (LATE[kind] if i == n - 1 else "") for i in range(n)]


def floats(n: int, shift: int = 0) -> np.ndarray:
    return np.array([FLOATS[(i + shift) % len(FLOATS)] for i in range(n)], dtype=np.float64)


def same_bytes(tmp_path, write, oracle, *args):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    write(*args, ours)
    oracle(*args, theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    return ours.read_bytes()


def dataset(n: int, kind: str) -> CustomerDataset:
    # each month column holds every float once per 12 rows, so no row sum overflows
    return dataset_from_strings(
        ids=tuple(texts(n, kind, "id")),
        nace=tuple(texts(n, kind, "n")),
        location=tuple(texts(n, kind, "l")),
        contracted_kw=floats(n, 5),
        raw_demand=np.array([floats(MONTHS, i) for i in range(n)]).reshape(n, MONTHS),
    )


@pytest.mark.parametrize("kind", TEXT_SETS)
@pytest.mark.parametrize("n", SIZES)
def test_save_customers(tmp_path, n, kind):
    same_bytes(tmp_path, model.save_customers, writer_oracle.save_customers, dataset(n, kind))


def test_save_customers_with_empty_keys(tmp_path):
    ds = dataset_from_strings(
        ids=("A", "B", "C"), nace=("", "J", ""), location=("L", "", ""),
        contracted_kw=np.zeros(3), raw_demand=np.ones((3, MONTHS)),
    )
    written = same_bytes(tmp_path, model.save_customers, writer_oracle.save_customers, ds)
    assert written.splitlines()[1].startswith(b"A,,L,0.0,1.0,")


@pytest.mark.parametrize("kind", TEXT_SETS)
@pytest.mark.parametrize("n", SIZES)
def test_write_ground_truth(tmp_path, n, kind):
    ds = dataset(n, kind)
    truth = GroundTruth(pair_composition={}, planted_pairs=frozenset(), planted_ids=frozenset(ds.ids[::2]))
    same_bytes(tmp_path, synth.write_ground_truth, writer_oracle.write_ground_truth, ds, truth)
    pairs, planted = writer_oracle.read_ground_truth(tmp_path / "ours.csv")
    assert planted == truth.planted_ids
    assert pairs == dict(zip(ds.ids, row_keys(ds)))


def pair_table(n: int, kind: str, kpis: str) -> PairTable:
    naces, locations = tuple(sorted(texts(n, kind, "n"))), tuple(sorted(texts(n, kind, "l")))
    columns = {"set": [floats(n, 1), floats(n, 2), floats(n, 3)], "unset": [None] * 3}.get(kpis)
    if columns is None:  # NaN in every KPI column, and in all of d_k
        columns = [np.full(n, np.nan), floats(n, 2), floats(n, 3)]
        columns[1][::2] = np.nan
        columns[2][1::2] = np.nan
    return PairTable(
        nace=np.arange(n),
        location=np.arange(n)[::-1].copy(),
        naces=naces,
        locations=locations,
        n_k=np.array([10**6, 1, 999_999, 2, 10**5][:n] + [3] * max(0, n - 5), dtype=np.int64),
        profiles=np.array([floats(MONTHS, i + 1) for i in range(n)]).reshape(n, MONTHS),
        avg_contracted=floats(n, 4),
        avg_demand=floats(n, 6),
        d_k=columns[0],
        e_k=columns[1],
        E_k=columns[2],
    )


@pytest.mark.parametrize("kpis", ["set", "unset", "nan"])
@pytest.mark.parametrize("kind", TEXT_SETS)
@pytest.mark.parametrize("n", SIZES)
def test_write_pair_table(tmp_path, n, kind, kpis):
    same_bytes(tmp_path, pairing.write_pair_table, writer_oracle.write_pair_table, pair_table(n, kind, kpis))


def test_pair_table_nan_cells_are_empty(tmp_path):
    same_bytes(tmp_path, pairing.write_pair_table, writer_oracle.write_pair_table, pair_table(2, "special", "nan"))
    with open(tmp_path / "ours.csv", newline="", encoding="utf-8") as fh:
        first = list(csv.reader(fh))[1]
    assert first[2:8] == ["1000000", "1.7976931348623157e+308", "0.3333333333333333", "", "", "1e+22"]


@pytest.mark.parametrize("kind", TEXT_SETS)
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (1, 1), (2, 2), (1, BLOCK + 1)])
def test_write_matrix(tmp_path, shape, kind):
    rows, columns = shape
    counts = np.arange(rows * columns, dtype=np.int64).reshape(shape) * 10**5  # the first cell is empty
    values = floats(rows * columns).reshape(shape)
    values[counts == 0] = np.nan
    matrix = IndicatorMatrix(
        provinces=tuple(texts(rows, kind, "p")), divisions=tuple(texts(columns, kind, "d")),
        values=values, counts=counts,
    )
    same_bytes(tmp_path, pairing.write_matrix, writer_oracle.write_matrix, matrix)


@pytest.mark.parametrize("histogram", [{}, {1: 1}, {1: 3, BLOCK: 2}, {2: 1, BLOCK + 1: 7}, {1: 5, 10**4: 10**6}])
def test_write_identification_stats(tmp_path, histogram):
    stats = IdentificationStats(
        pair_cardinality_histogram=histogram,
        customers_in_sets_leq={},
        nonempty_pair_count=sum(histogram.values()),
        total_pair_space=10**9,
    )
    same_bytes(tmp_path, pairing.write_identification_stats, writer_oracle.write_identification_stats, stats)


@pytest.mark.parametrize("n", SIZES + [len(FLOATS)])
def test_write_curve(tmp_path, n):
    same_bytes(tmp_path, simulate.write_curve, writer_oracle.write_curve, DistanceCurve(distance=floats(n)))


@pytest.mark.parametrize("n", SIZES + [len(FLOATS)])
def test_write_baseline(tmp_path, n):
    band = BaselineCurve(median=floats(n), q1=floats(n, 1), q3=floats(n, 2), repetitions=3)
    same_bytes(tmp_path, simulate.write_baseline, writer_oracle.write_baseline, band)


@pytest.mark.parametrize("n", SIZES + [len(FLOATS)])
def test_write_reduction(tmp_path, n):
    rows = [(np.int64(10**i), r) for i, r in enumerate(floats(n).tolist())]
    same_bytes(tmp_path, simulate.write_reduction, writer_oracle.write_reduction, rows)


def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        model.write_csv(tmp_path / "out.csv", ("a", "b"), [["x", "y"], np.zeros(3)])
