"""The CSV readers against the row-by-row readers in ``tests/reader_oracle.py``.

``load_customers`` and ``read_pair_table`` split each block of a file with
string methods while it is plain, and hand the rest of the file to
``csv.reader`` from the first block that is not; one checker per file kind
reads the blocks of both. Each input below goes through the public reader and
through the referee; the two must give the same columns bit for bit, the same
diagnostics, or the same exception. Each case also names the first line that
is not plain, so the test knows the line ``csv.reader`` must start on.
"""

import csv
import dataclasses
import functools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from retail_profiler import model, pairing, synth
from retail_profiler.model import CUSTOMER_CSV_HEADER, DataError, load_customers, save_customers
from retail_profiler.pairing import PAIR_TABLE_HEADER, attach_kpis, build_pairs, read_pair_table, write_pair_table
from retail_profiler.targets import constant_resolver, default_solar_target, flat_target
from tests import reader_oracle
from tests.conftest import flat_demand, make_dataset, offset_demand

RESOLVER = constant_resolver(default_solar_target())


def outcome(read, *args):
    """What a reader gives: its columns as bytes and its diagnostics, or its exception."""
    try:
        result = read(*args)
    except Exception as exc:
        return type(exc), str(exc)
    columns = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if isinstance(value, np.ndarray):
            columns[field.name] = (value.dtype, value.shape, value.tobytes())
        elif not isinstance(value, model.CustomerDataset):
            columns[field.name] = value
    return columns


def csv_reads(monkeypatch):
    """The lines each ``csv.reader`` made in ``model`` reads from now on, one list per reader."""
    reads = []

    def reader(lines):
        read = []
        reads.append(read)
        return csv.reader(read.append(line) or line for line in lines)

    monkeypatch.setattr(model, "csv", SimpleNamespace(
        reader=reader, writer=csv.writer, Error=csv.Error, field_size_limit=csv.field_size_limit
    ))
    return reads


def csv_start(reads, path):
    """The line of ``path`` that ``csv.reader`` started on, or None if no reader was made.

    What the one reader read must be the file's own lines from that line on.
    """
    if not reads:
        return None
    (read,) = reads
    with path.open(newline="", encoding="utf-8") as fh:
        lines = list(fh)
    starts = [first for first in range(1, len(lines) + 2) if lines[first - 1:first - 1 + len(read)] == read]
    assert starts, "csv.reader read lines the file does not hold in that order"
    return starts[0]


def hand_over(not_plain, block):
    """The line ``csv.reader`` starts on when line ``not_plain`` is the first that is not plain.

    That is the header's line, or the first line of the block that holds it.
    """
    if not_plain in (None, 1):
        return not_plain
    return 2 + (not_plain - 2) // block * block


def set_block(monkeypatch, block):
    monkeypatch.setattr(model, "_BLOCK", block)
    monkeypatch.setattr(reader_oracle, "_BLOCK", block)


# -- customers ---------------------------------------------------------------

CUSTOMER_HEADER = ",".join(CUSTOMER_CSV_HEADER)


def customer(cid="A", nace="J61.1", location="P36-M001", kw="10.0", months=("1.5",) * 12):
    return ",".join([cid, nace, location, kw, *months])


def customer_file(*rows, end="\n", final=True):
    return end.join((CUSTOMER_HEADER,) + rows) + (end if final else "")


ROWS = (customer("A"), customer("B", months=("2.5",) * 12), customer("C", "A01.2", "P02-M003", "3"))

# (name, file text, the first line that is not plain, or None)
CUSTOMER_CASES = [
    ("lf", customer_file(*ROWS), None),
    ("crlf", customer_file(*ROWS, end="\r\n"), None),
    ("lf-no-final-newline", customer_file(*ROWS, final=False), None),
    ("crlf-no-final-newline", customer_file(*ROWS, end="\r\n", final=False), None),
    ("mixed-line-ends", CUSTOMER_HEADER + "\r\n" + ROWS[0] + "\n" + ROWS[1] + "\r\n", None),
    ("header-only", CUSTOMER_HEADER + "\n", None),
    ("header-only-no-newline", CUSTOMER_HEADER, None),
    ("empty-file", "", 1),
    ("header-with-spaces", customer_file(*ROWS).replace("id,nace", "id, nace", 1), 1),
    ("blank-line", customer_file(ROWS[0], "", ROWS[1]), 3),
    ("blank-last-line", customer_file(*ROWS) + "\n", 5),
    ("quoted-cell", customer_file(customer('"A"'), ROWS[1]), 2),
    ("quoted-comma", customer_file(customer('"A,1"'), ROWS[1]), 2),
    ("cr-only", customer_file(*ROWS, end="\r"), 1),
    ("bare-cr-in-cell", customer_file(customer("A\rX"), ROWS[1]), 2),
    ("nul", customer_file(customer("A\0"), ROWS[1]), 2),
    ("utf8-bom", "\ufeff" + customer_file(*ROWS), 1),
    ("hash-in-id", customer_file(customer("A#1"), ROWS[1]), None),
    ("hash-in-number", customer_file(customer(kw="1#2"), ROWS[1]), None),
    ("hash-in-last-number", customer_file(customer(months=("1.5",) * 11 + ("1.5#9",)), ROWS[1]), None),
    ("spaces-around-cells", customer_file(customer(" A ", " J61.1 ", " P36 ", " 10.0 ", (" 1.5 ",) * 12)), None),
    ("tab-and-vertical-tab", customer_file(customer(kw="\t10.0", months=("1.5\x0b",) * 12)), None),
    ("plus-sign", customer_file(customer(kw="+1.5", months=("+2",) * 12)), None),
    ("underscore-digits", customer_file(customer(kw="1_0"), ROWS[1]), None),
    ("non-ascii-digits", customer_file(customer(kw="١٢"), ROWS[1]), None),
    ("huge-exponent", customer_file(customer(kw="1e400"), ROWS[1]), None),
    ("nan", customer_file(customer(months=("nan",) + ("1",) * 11), ROWS[1]), None),
    ("negative-zero", customer_file(customer(kw="-0.0", months=("-0.0",) + ("1",) * 11)), None),
    ("smallest-subnormal", customer_file(customer(months=("5e-324",) + ("0",) * 11)), None),
    ("negative", customer_file(customer(months=("-1",) + ("1",) * 11), ROWS[1]), None),
    ("sum-overflow", customer_file(ROWS[0], customer("B", months=("1.5e307",) * 12)), None),
    ("empty-cell", customer_file(customer(kw=""), ROWS[1]), None),
    ("extra-field", customer_file(ROWS[0], ROWS[1] + ",1"), None),
    ("missing-field", customer_file(ROWS[0], ROWS[1].rsplit(",", 1)[0]), None),
    ("no-numbers", customer_file(ROWS[0], "D,J61.1,P36-M001,"), 3),
    ("only-row-without-numbers", customer_file("D,J61.1,P36-M001,"), 2),
    ("three-fields", customer_file(ROWS[0], "D,J61.1,P36-M001"), 3),
    ("empty-id", customer_file(ROWS[0], customer("  ")), None),
    ("duplicate-id", customer_file(ROWS[0], ROWS[1], customer("A")), None),
    ("duplicate-id-after-strip", customer_file(ROWS[0], customer(" A")), None),
    ("zero-demand", customer_file(ROWS[0], customer("Z", months=("0",) * 12), ROWS[1]), None),
    ("missing-keys", customer_file(customer("A", "", ""), ROWS[1]), None),
    ("non-ascii-ids", customer_file(customer("Ålesund-é"), customer("客户", "ç", "ß")), None),
    ("unicode-line-separator-in-id", customer_file(customer("A\u2028B"), ROWS[1]), None),
    # the order of the row rules: field count, empty id, repeated id, malformed number, values
    ("empty-id-with-wrong-field-count", customer_file(ROWS[0], customer("  ") + ",1"), None),
    ("repeated-id-with-wrong-field-count", customer_file(ROWS[0], customer("A") + ",1"), None),
    ("empty-id-with-malformed-number", customer_file(ROWS[0], customer("  ", kw="x")), None),
    ("repeated-id-with-malformed-number", customer_file(ROWS[0], ROWS[1], customer("A", kw="x")), None),
    ("repeated-id-with-negative-value", customer_file(ROWS[0], ROWS[1], customer("A", kw="-1")), None),
    ("rejected-id-reused", customer_file(customer("A", kw="x"), customer("A", kw="-1"), *ROWS), None),
    (
        "notes-in-line-order",
        customer_file(customer("Z", months=("0",) * 12), customer("N", kw="x"), ROWS[0],
                      customer("Y", months=("0",) * 12), "M,J61.1,P36,1", ROWS[1]),
        None,
    ),
]


@pytest.mark.parametrize("block", [2, 3, 4096])
@pytest.mark.parametrize("name,text,not_plain", CUSTOMER_CASES, ids=[c[0] for c in CUSTOMER_CASES])
def test_customer_readers_agree(tmp_path, monkeypatch, block, name, text, not_plain):
    set_block(monkeypatch, block)
    path = tmp_path / "customers.csv"
    path.write_bytes(text.encode("utf-8"))
    reads = csv_reads(monkeypatch)
    assert outcome(load_customers, path) == outcome(reader_oracle._read_customer_rows, path)
    assert csv_start(reads, path) == hand_over(not_plain, block)


def test_customer_readers_agree_on_invalid_utf8(tmp_path):
    path = tmp_path / "customers.csv"
    path.write_bytes(customer_file(*ROWS).encode() + b"\xff,x,y,1" + b",1" * 12 + b"\n")
    with pytest.raises(UnicodeDecodeError) as referee:
        reader_oracle._read_customer_rows(path)
    with pytest.raises(DataError) as got:
        load_customers(path)
    assert str(got.value) == f"{path}: {referee.value}"


def test_bulk_zero_demand_notes_keep_line_numbers(tmp_path, monkeypatch):
    monkeypatch.setattr(model, "_BLOCK", 2)
    reads = csv_reads(monkeypatch)
    path = tmp_path / "customers.csv"
    zero = ("0",) * 12
    path.write_text(customer_file(ROWS[0], customer("Y", months=zero), ROWS[1], ROWS[2], customer("Z", months=zero)))
    assert load_customers(path).diagnostics == (
        "line 3: customer 'Y' has zero annual demand; excluded from profiling",
        "line 6: customer 'Z' has zero annual demand; excluded from profiling",
    )
    assert reads == []


# -- pair tables -------------------------------------------------------------


@pytest.fixture(scope="module")
def pair_rows(tmp_path_factory):
    """The cells of a written table of three pairs (the first of two customers), and its dataset."""
    dataset = make_dataset(
        [(f"C{i}", f"N{i}", "L1", 1.0, offset_demand(100, 10 + i)) for i in range(3)]
        + [("C3", "N0", "L1", 2.0, flat_demand())]
    )
    path = tmp_path_factory.mktemp("pairs") / "pairs.csv"
    write_pair_table(attach_kpis(build_pairs(dataset), RESOLVER), path)
    return [line.split(",") for line in path.read_text().splitlines()[1:]], dataset


def pair_file(rows, end="\n", final=True):
    lines = [",".join(PAIR_TABLE_HEADER)] + [",".join(row) for row in rows]
    return end.join(lines) + (end if final else "")


def edit(column, value):
    """An edit of one cell of line 3, the second data row."""
    def apply(rows):
        rows[1][PAIR_TABLE_HEADER.index(column)] = value
        return rows
    return apply


def profile(value):
    def apply(rows):
        rows[1][8:] = [value] * 12
        return rows
    return apply


def text_of(rows_edit=None, end="\n", final=True, prefix=""):
    def build(cells):
        rows = [list(row) for row in cells]
        if rows_edit is not None:
            rows = rows_edit(rows)
        return prefix + pair_file(rows, end, final)
    return build


def extra_field(rows):
    rows[1].append("1")
    return rows


def missing_field(rows):
    del rows[1][-1]
    return rows


def duplicate(rows):
    return rows + [list(rows[0])]


def blank(rows):
    return [rows[0], [""], rows[1]]


PAIR_CASES = [
    ("lf", text_of(), None),
    ("crlf", text_of(end="\r\n"), None),
    ("lf-no-final-newline", text_of(final=False), None),
    ("crlf-no-final-newline", text_of(end="\r\n", final=False), None),
    ("header-only", lambda cells: pair_file([]), None),
    ("blank-line", text_of(blank), 3),
    ("quoted-cell", text_of(edit("nace", '"N1"')), 3),
    ("cr-only", text_of(end="\r"), 1),
    ("bare-cr-in-cell", text_of(edit("location", "L\r1")), 3),
    ("nul", text_of(edit("nace", "N\0")), 3),
    ("utf8-bom", text_of(prefix="\ufeff"), 1),
    ("hash-in-key", text_of(edit("nace", "N#1")), None),
    ("hash-in-number", text_of(edit("avg_demand_kwh", "1#2")), None),
    ("hash-in-last-number", text_of(edit("p12", "1.0#9")), None),
    ("spaces-around-cells", text_of(edit("nace", " N1 ")), None),
    ("spaces-around-number", text_of(edit("avg_contracted_kw", " 1.0 ")), None),
    ("spaces-around-n_k", text_of(edit("n_k", " 1 ")), None),
    ("plus-sign", text_of(edit("avg_contracted_kw", "+1.5")), None),
    ("underscore-digits", text_of(edit("avg_contracted_kw", "1_0")), None),
    ("underscore-in-n_k", text_of(edit("n_k", "0_1")), None),
    ("decimal-n_k", text_of(edit("n_k", "1.0")), None),
    ("huge-exponent", text_of(edit("avg_contracted_kw", "1e400")), None),
    ("nan-kpi", text_of(edit("d_k", "nan")), None),
    ("negative-zero-kpi", text_of(edit("e_k", "-0.0")), None),
    ("smallest-subnormal", text_of(edit("avg_demand_kwh", "5e-324")), None),
    ("negative-power", text_of(edit("avg_demand_kwh", "-1")), None),
    ("profile-sum-overflow", text_of(profile("1.5e307")), None),
    ("empty-kpi-cell", text_of(edit("e_k", "")), None),
    ("empty-power-cell", text_of(edit("avg_contracted_kw", "")), None),
    ("extra-field", text_of(extra_field), None),
    ("missing-field", text_of(missing_field), None),
    ("duplicate-pair", text_of(duplicate), None),
    ("non-ascii-key", text_of(edit("location", "Łódź")), None),
    ("n_k-zero", text_of(edit("n_k", "0")), None),
    ("n_k-at-bound", text_of(edit("n_k", str(pairing.MAX_PAIR_SIZE))), None),
    ("n_k-past-bound", text_of(edit("n_k", "1000000000000")), None),
    ("n_k-past-int64", text_of(edit("n_k", "99999999999999999999")), None),
]


@pytest.mark.parametrize("block", [2, 4096])
@pytest.mark.parametrize("with_dataset", [False, True])
@pytest.mark.parametrize("name,build,not_plain", PAIR_CASES, ids=[c[0] for c in PAIR_CASES])
def test_pair_readers_agree(tmp_path, monkeypatch, pair_rows, block, with_dataset, name, build, not_plain):
    set_block(monkeypatch, block)
    cells, dataset = pair_rows
    data = dataset if with_dataset else None
    path = tmp_path / "pairs.csv"
    path.write_bytes(build(cells).encode("utf-8"))
    reads = csv_reads(monkeypatch)
    assert outcome(read_pair_table, path, data) == outcome(reader_oracle._read_pair_rows, path, data)
    assert csv_start(reads, path) == hand_over(not_plain, block)


@pytest.mark.parametrize("cell,bound", [("9" * 20, "<= 1000000"), ("-" + "9" * 20, ">= 1")], ids=["high", "low"])
@pytest.mark.parametrize("read", [read_pair_table, reader_oracle._read_pair_rows], ids=["reader", "referee"])
def test_n_k_past_int64_reports_its_bound(tmp_path, pair_rows, read, cell, bound):
    path = tmp_path / "pairs.csv"
    path.write_text(text_of(edit("n_k", cell))(pair_rows[0]))
    with pytest.raises(DataError) as caught:
        read(path, None)
    assert str(caught.value) == f"{path}: line 3: n_k must be {bound}, got {cell}"


def malformed_last_cell(rows):
    rows[-1][-1] = "x"
    return rows


@pytest.mark.parametrize(
    "read,referee,build",
    [
        (load_customers, reader_oracle._read_customer_rows, lambda cells: customer_file(*ROWS, customer("  "))),
        (load_customers, reader_oracle._read_customer_rows, lambda cells: customer_file(*ROWS, customer("N", kw="-1"))),
        (load_customers, reader_oracle._read_customer_rows, lambda cells: customer_file(*ROWS, customer("B"))),
        (read_pair_table, functools.partial(reader_oracle._read_pair_rows, dataset=None), text_of(malformed_last_cell)),
    ],
    ids=["empty-id", "negative", "repeated-id", "malformed-pair-cell"],
)
def test_bad_last_row_is_tokenized_once(tmp_path, monkeypatch, pair_rows, read, referee, build):
    monkeypatch.setattr(model, "_BLOCK", 2)
    path = tmp_path / "data.csv"
    path.write_text(build(pair_rows[0]))
    reads = csv_reads(monkeypatch)
    calls = []
    blocks = model._blocks

    def counted(*args):
        calls.append(args)
        yield from blocks(*args)

    monkeypatch.setattr(model, "_blocks", counted)
    monkeypatch.setattr(pairing, "_blocks", counted)
    assert outcome(read, path) == outcome(referee, path)
    assert len(calls) == 1
    assert reads == []


# -- a late block that is not plain -----------------------------------------


def late_customers(kind, n):
    """A customer file of ``n`` rows whose only quote, blank line or bare CR is at its end."""
    rows = [customer(f"C{i:05d}") for i in range(n)]
    if kind == "quoted-cell":
        return customer_file(*rows[:-1], customer(f'"C{n - 1:05d}"'))
    if kind == "multi-line-cell":
        return customer_file(*rows[:-1], customer(f'"C{n - 1:05d}\nX"'))
    if kind == "blank-line":
        return customer_file(*rows[:-1], "", rows[-1])
    return customer_file(*rows[:-1]) + rows[-1] + "\r"


def late_pairs(kind, n):
    """A pair table of ``n`` rows whose only quote, blank line or bare CR is at its end."""
    rows = [[f"N{i:05d}", "L1", "1", "1.0", "1.0", "", "", ""] + ["1.0"] * 12 for i in range(n)]
    if kind == "quoted-cell":
        rows[-1][0] = f'"{rows[-1][0]}"'
    elif kind == "multi-line-cell":
        rows[-1][0] = f'"{rows[-1][0]}\nX"'
    elif kind == "blank-line":
        rows.insert(n - 1, [""])
    else:
        return pair_file(rows[:-1]) + ",".join(rows[-1]) + "\r"
    return pair_file(rows)


@pytest.mark.parametrize("block", [2, 4096])
@pytest.mark.parametrize("kind", ["quoted-cell", "multi-line-cell", "blank-line", "bare-cr"])
@pytest.mark.parametrize(
    "build,read,referee,checker",
    [
        (late_customers, load_customers, reader_oracle._read_customer_rows, (model, "_checked_customers")),
        (late_pairs, read_pair_table, functools.partial(reader_oracle._read_pair_rows, dataset=None),
         (pairing, "_checked_table")),
    ],
    ids=["customers", "pairs"],
)
def test_late_block_that_is_not_plain_is_tokenized_once(
    tmp_path, monkeypatch, block, kind, build, read, referee, checker
):
    """The blocks before the first that is not plain are split once; csv.reader reads only from that block on."""
    set_block(monkeypatch, block)
    path = tmp_path / "data.csv"
    path.write_bytes(build(kind, block + 1).encode("utf-8"))
    with path.open(newline="", encoding="utf-8") as fh:
        lines = list(fh)
    start = hand_over(block + 2, block)  # the last row's line, or the blank line's
    assert start > 2
    expected = outcome(referee, path)
    assert not isinstance(expected, tuple)  # every file here is read without error
    reads = csv_reads(monkeypatch)
    checks = []
    module, name = checker
    check = getattr(module, name)

    def counted(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(module, name, counted)
    assert outcome(read, path) == expected
    assert csv_start(reads, path) == start
    assert reads[0] == lines[start - 1:]
    assert len(checks) == 1


def test_late_block_errors_match_the_referee(tmp_path, monkeypatch):
    """Past the hand-over a csv.Error names the line the referee reads, and text that is not UTF-8 its message.

    The file spans several 8192-byte chunks, so it is decoded piece by piece
    while the first blocks are split.
    """
    set_block(monkeypatch, 2)
    rows = [customer(f"C{i:05d}") for i in range(200)]
    path = tmp_path / "customers.csv"
    path.write_text(customer_file(*rows, customer('"A"'), customer('"' + "x" * (csv.field_size_limit() + 1) + '"')))
    with pytest.raises(csv.Error) as referee:
        reader_oracle._read_customer_rows(path)
    with pytest.raises(DataError) as got:
        load_customers(path)
    assert str(got.value) == f"{path}: line 203: {referee.value}"
    path.write_bytes(customer_file(*rows).encode() + b"\xff,x,y,1" + b",1" * 12 + b"\n")
    with pytest.raises(UnicodeDecodeError) as referee:
        reader_oracle._read_customer_rows(path)
    with pytest.raises(DataError) as got:
        load_customers(path)
    assert str(got.value) == f"{path}: {referee.value}"


@pytest.mark.parametrize("block", [2, 4096])
@pytest.mark.parametrize(
    "build,read,referee",
    [
        (lambda cells, cell: customer_file(ROWS[0], customer(cell), ROWS[1]), load_customers,
         reader_oracle._read_customer_rows),
        (lambda cells, cell: text_of(edit("nace", cell))(cells), read_pair_table,
         functools.partial(reader_oracle._read_pair_rows, dataset=None)),
    ],
    ids=["customers", "pairs"],
)
def test_unquoted_cell_over_field_limit_is_a_data_error(tmp_path, monkeypatch, pair_rows, block, build, read, referee):
    """A plain-looking line longer than the csv field limit goes to csv.reader, which refuses its cell on line 3."""
    set_block(monkeypatch, block)
    path = tmp_path / "data.csv"
    path.write_text(build(pair_rows[0], "x" * (csv.field_size_limit() + 1)))
    with pytest.raises(csv.Error) as expected:
        referee(path)
    reads = csv_reads(monkeypatch)
    with pytest.raises(DataError) as got:
        read(path)
    assert str(got.value) == f"{path}: line 3: {expected.value}"
    assert csv_start(reads, path) == hand_over(3, block)


# -- the plain splitter tokenizes the files the package writes ------------


def test_saved_customers_are_read_in_bulk(tmp_path, monkeypatch, mid_run):
    _, dataset, _, _, _ = mid_run
    path = tmp_path / "customers.csv"
    save_customers(dataset, path)
    assert b"\r\n" in path.read_bytes()
    reads = csv_reads(monkeypatch)
    loaded = load_customers(path)
    assert reads == []
    assert loaded.ids == dataset.ids
    assert (loaded.naces, loaded.locations) == (dataset.naces, dataset.locations)
    assert loaded.nace.tobytes() == dataset.nace.tobytes()
    assert loaded.location.tobytes() == dataset.location.tobytes()
    assert loaded.raw_demand.tobytes() == dataset.raw_demand.tobytes()
    assert loaded.contracted_kw.tobytes() == dataset.contracted_kw.tobytes()


def test_written_pair_table_is_read_in_bulk(tmp_path, monkeypatch, mid_run):
    _, dataset, _, table, _ = mid_run
    path = tmp_path / "pairs.csv"
    write_pair_table(table, path)
    assert b"\r\n" in path.read_bytes()
    reads = csv_reads(monkeypatch)
    loaded = read_pair_table(path, dataset)
    assert reads == []
    assert loaded.member_rows.tobytes() == table.member_rows.tobytes()
    assert loaded.d_k.tobytes() == table.d_k.tobytes()
    assert loaded.profiles.tobytes() == table.profiles.tobytes()


# -- key codes ----------------------------------------------------------------


@pytest.mark.parametrize("block", [2, 4096])
def test_tokenizers_give_the_same_key_codes(tmp_path, monkeypatch, block):
    """Both tokenizers code the stripped keys into one sorted vocabulary, "" first when present."""
    set_block(monkeypatch, block)
    text = customer_file(
        customer("A", "", "P2"), customer("B", "J61.1", ""), customer("C", " J61.1 ", "P1"),
        customer("D", "A01", " "), customer("E", "ç", "P1"), customer("F", "J61.1", "P2"),
    )
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text(text)
    spaced.write_text(text.replace("id,nace", "id, nace", 1))  # a header that is not plain
    plain_reads = csv_reads(monkeypatch)
    split = load_customers(plain)
    spaced_reads = csv_reads(monkeypatch)
    tokenized = load_customers(spaced)
    assert (csv_start(plain_reads, plain), csv_start(spaced_reads, spaced)) == (None, 1)
    for got in (split, tokenized):
        assert got.naces == ("", "A01", "J61.1", "ç")
        assert got.locations == ("", "P1", "P2")
        assert got.nace.tolist() == [0, 2, 2, 1, 3, 2]
        assert got.location.tolist() == [2, 0, 1, 0, 1, 2]
        assert got.has_keys_mask.tolist() == [False, False, True, False, True, True]


# -- allocations ------------------------------------------------------------


def traced(read, *args):
    """What ``read`` returns, the traced bytes it still holds on return, and its traced peak."""
    tracemalloc.start()
    try:
        result = read(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


@pytest.fixture(scope="module")
def written_inputs(tmp_path_factory):
    """A customer file of 6000 rows and its pair table, as the package writes them."""
    config = synth.SynthConfig(
        n_customers=6000, n_locations=600, n_nace=50, pair_concentration=3.0, max_pair_size=20, seed=3
    )
    dataset, _ = synth.generate(config, flat_target())
    root = tmp_path_factory.mktemp("written")
    save_customers(dataset, root / "customers.csv")
    write_pair_table(build_pairs(dataset), root / "pairs.csv")
    return root / "customers.csv", root / "pairs.csv"


def test_readers_let_go_of_their_blocks(monkeypatch, written_inputs):
    """A reader's traced peak is what it returns plus a bounded multiple of the numbers it returns.

    With 64-row blocks the files span 94 and 71 blocks, so a list of blocks
    kept alive while the next full-size array is built shows as a whole
    extra copy of the numbers: a reader that held its block list past the
    concatenation peaked at 2.35 (customers) and 3.96 (pair table) times
    its numbers above what it returns; one that lets the blocks go peaks at
    1.19 and 2.65.
    """
    monkeypatch.setattr(model, "_BLOCK", 64)
    customers, pairs = written_inputs
    dataset, kept, peak = traced(load_customers, customers)
    numbers = dataset.raw_demand.nbytes + dataset.contracted_kw.nbytes
    assert peak - kept <= 1.5 * numbers
    dataset.pair_groups  # cached before the trace, so the trace sees the reader alone
    table, kept, peak = traced(read_pair_table, pairs, dataset)
    numbers = sum(column.nbytes for column in (table.profiles, table.avg_contracted, table.avg_demand, table.n_k))
    assert peak - kept <= 3.4 * numbers
