"""Core domain model: the customer dataset, its ingestion, profile normalization.

A dataset is stored column-wise (a tuple of id strings, nace and location codes,
and numpy arrays for contracted power and the 12 monthly demands) so that
downstream passes stream over millions of rows without materializing per-row
objects. The package refers to customers by row index, and to a nace or
location by its code: its rank in the sorted vocabulary of the column. The
readers encode the key cells block by block as they parse them, so key strings
exist only once per distinct value, in the vocabularies, the writers and the
messages.

Normalization convention: a demand profile is divided by the arithmetic mean
of its 12 monthly values, so every normalized profile (and every target) has
unit mean. Shape is what matters; absolute magnitude is deliberately dropped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from retail_profiler import kernels

MONTHS = 12
MONTH_COLUMNS = tuple(f"m{j:02d}" for j in range(1, MONTHS + 1))
CUSTOMER_CSV_HEADER = ("id", "nace", "location", "contracted_kw") + MONTH_COLUMNS

# Tolerance on the unit-mean invariant of target and pair profiles.
MEAN_TOLERANCE = 1e-9


class DataError(Exception):
    """Input data violates a documented contract."""


class SchemaError(DataError):
    """A CSV file does not match its expected header/schema."""


class DuplicateIdError(DataError):
    """Two rows share a customer id. Identity is the join key, so this is fatal."""


class ZeroDemandError(DataError):
    """A profile with zero total demand cannot be normalized."""


@dataclass(frozen=True, eq=False)
class TargetProfile:
    """Desired 12-month demand shape (unit mean); negatives are permitted."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.shape != (MONTHS,):
            raise ValueError(f"target profile must have exactly {MONTHS} values, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("target profile contains non-finite values")
        if abs(arr.mean() - 1.0) > MEAN_TOLERANCE:
            raise ValueError(f"target profile must have unit mean, got {float(arr.mean())!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def normalize_profile(raw) -> np.ndarray:
    """Divide a 12-month raw demand by its arithmetic mean, as a read-only array.

    Raises ZeroDemandError for an all-zero profile: such a customer has no
    shape and is excluded from every KPI computation. Any positive total has
    a shape, even one whose mean is subnormal (see ``kernels.unit_mean_rows``).
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.shape != (MONTHS,):
        raise ValueError(f"raw demand must have exactly {MONTHS} values, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("raw demand contains non-finite values")
    if np.any(arr < 0):
        raise ValueError("raw demand contains negative values")
    if arr.sum() <= 0.0:
        raise ZeroDemandError("cannot normalize an all-zero demand profile")
    profile = kernels.unit_mean_rows(arr[None])[0]
    profile.setflags(write=False)
    return profile


@dataclass(frozen=True, eq=False)
class PairGroups:
    """Rows grouped by pair key, groups in (nace, location) order.

    Group g is the pair ``(naces[nace[g]], locations[location[g]])``, where
    ``naces`` and ``locations`` are the sorted vocabularies the codes index;
    its members are ``rows[offsets[g]:offsets[g + 1]]``, row indices into one
    dataset.
    """

    nace: np.ndarray
    location: np.ndarray
    naces: tuple[str, ...]
    locations: tuple[str, ...]
    offsets: np.ndarray
    rows: np.ndarray

    def members(self, picks: np.ndarray) -> np.ndarray:
        """Rows of the groups ``picks``, group after group, as a new array."""
        starts = self.offsets[:-1][picks]
        counts = self.offsets[1:][picks] - starts
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return self.rows[shift + np.arange(shift.size)]


@dataclass(frozen=True, eq=False)
class CustomerDataset:
    """Immutable column-wise customer table.

    Row i's nace is ``naces[nace[i]]`` and its location ``locations[location[i]]``:
    the key columns are ``intp`` codes into sorted vocabularies of distinct
    strings. Rows with an empty nace or location are retained (and counted in
    ``total``) but excluded from pairing; rows with zero annual demand are
    likewise retained but cannot be profiled. ``pairable_mask`` selects the
    rows eligible for every KPI computation. The dataset is safe for
    unrestricted concurrent reads once constructed.
    """

    ids: tuple[str, ...]
    nace: np.ndarray
    location: np.ndarray
    naces: tuple[str, ...]
    locations: tuple[str, ...]
    contracted_kw: np.ndarray
    raw_demand: np.ndarray
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self):
        n = len(self.ids)
        for name, vocabulary in (("nace", self.naces), ("location", self.locations)):
            codes = np.asarray(getattr(self, name), dtype=np.intp)
            if codes.shape != (n,) or (n and not 0 <= codes.min() <= codes.max() < len(vocabulary)):
                raise ValueError(f"{name} must hold one code into the {name} vocabulary per row")
            if list(vocabulary) != sorted(set(vocabulary)):
                raise ValueError(f"the {name} vocabulary must be sorted and distinct")
            codes.setflags(write=False)
            object.__setattr__(self, name, codes)
            object.__setattr__(self, name + "s", tuple(vocabulary))
        contracted = np.asarray(self.contracted_kw, dtype=np.float64)
        raw = np.ascontiguousarray(self.raw_demand, dtype=np.float64)
        if contracted.shape != (n,) or raw.shape != (n, MONTHS):
            raise ValueError("array shapes disagree with row count")
        if raw.size and (not np.all(np.isfinite(raw)) or np.any(raw < 0)):
            raise ValueError("raw demands must be finite and non-negative")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(raw.sum(axis=1))):
                raise ValueError("a customer's monthly demands sum past the float64 range")
        if contracted.size and (not np.all(np.isfinite(contracted)) or np.any(contracted < 0)):
            raise ValueError("contracted power must be finite and non-negative")
        if len(set(self.ids)) != n:
            seen: set[str] = set()
            for cid in self.ids:
                if cid in seen:
                    raise DuplicateIdError(f"duplicate customer id: {cid!r}")
                seen.add(cid)
        contracted.setflags(write=False)
        raw.setflags(write=False)
        object.__setattr__(self, "contracted_kw", contracted)
        object.__setattr__(self, "raw_demand", raw)

    # -- counts -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def total(self) -> int:
        return len(self.ids)

    @cached_property
    def has_keys_mask(self) -> np.ndarray:
        # "" sorts first, so a vocabulary that holds it gives it code 0
        mask = (self.nace >= (self.naces[:1] == ("",))) & (self.location >= (self.locations[:1] == ("",)))
        mask.setflags(write=False)
        return mask

    @cached_property
    def nonzero_mask(self) -> np.ndarray:
        mask = self.raw_demand.sum(axis=1) > 0.0
        mask.setflags(write=False)
        return mask

    @cached_property
    def pairable_mask(self) -> np.ndarray:
        mask = self.has_keys_mask & self.nonzero_mask
        mask.setflags(write=False)
        return mask

    @property
    def excluded(self) -> int:
        """Rows kept in the totals but barred from pairing (missing nace/location)."""
        return self.total - int(self.has_keys_mask.sum())

    @property
    def zero_demand_count(self) -> int:
        return self.total - int(self.nonzero_mask.sum())

    @property
    def pairable_count(self) -> int:
        return int(self.pairable_mask.sum())

    @cached_property
    def pairable_indices(self) -> np.ndarray:
        idx = np.flatnonzero(self.pairable_mask)
        idx.setflags(write=False)
        return idx

    # -- row access ---------------------------------------------------------

    @cached_property
    def pairable_order(self) -> np.ndarray:
        """The pairable rows, in Python string order of their ids: the one sort of the ids."""
        order = np.array(sorted(self.pairable_indices.tolist(), key=self.ids.__getitem__), dtype=np.intp)
        order.setflags(write=False)
        return order

    @cached_property
    def _index(self) -> dict[str, int]:
        return {cid: i for i, cid in enumerate(self.ids)}

    def index_of(self, customer_id: str) -> int:
        """The row of a customer id."""
        try:
            return self._index[customer_id]
        except KeyError:
            raise DataError(f"unknown customer id: {customer_id!r}") from None

    @cached_property
    def pair_groups(self) -> PairGroups:
        """Pairable rows grouped by (nace, location), groups in key order.

        Each group lists its rows in customer-id order, so member order (and
        every seeded shuffle of it) does not depend on the input row order.
        """
        rows = self.pairable_order
        key = pair_codes(self.nace[rows], self.location[rows], self.locations)
        order = np.argsort(key, kind="stable")
        rows, key = rows[order], key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))  # where a new key begins
        offsets = np.append(starts, rows.size)
        rows.setflags(write=False)
        offsets.setflags(write=False)
        first = rows[starts]
        return PairGroups(self.nace[first], self.location[first], self.naces, self.locations, offsets, rows)


def encode(column, vocabulary: tuple[str, ...]) -> np.ndarray:
    """Each value's code in a sorted vocabulary, or -1 for a value it lacks."""
    index = {value: code for code, value in enumerate(vocabulary)}
    return np.fromiter(map(index.get, column, repeat(-1)), dtype=np.intp, count=len(column))


def recode(values: list[str], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The column ``values[codes]`` as the sorted distinct values it holds and each row's code among them."""
    used = np.zeros(len(values), dtype=bool)
    used[codes] = True
    vocabulary = tuple(sorted({values[i] for i in np.flatnonzero(used).tolist()}))
    return vocabulary, encode(values, vocabulary)[codes]


def decode(vocabulary: tuple[str, ...], codes: np.ndarray) -> list[str]:
    """The string of each code, for a writer."""
    return list(map(vocabulary.__getitem__, codes.tolist()))


class _KeyCodes:
    """A key column read block by block, each cell coded in a vocabulary that grows as cells arrive."""

    def __init__(self):
        self.index: dict[str, int] = {}
        self.blocks = [np.empty(0, dtype=np.intp)]

    def add(self, cells, keep) -> None:
        """Code a block's cells, and keep the codes of its rows ``keep``."""
        index = self.index
        for cell in set(cells).difference(index):
            index[cell] = len(index)
        self.blocks.append(np.fromiter(map(index.__getitem__, cells), dtype=np.intp, count=len(cells))[keep])

    def column(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The :func:`recode` of the stripped cells."""
        codes = np.concatenate(self.blocks)
        self.blocks = []
        return recode([cell.strip() for cell in self.index], codes)


def pair_codes(nace: np.ndarray, location: np.ndarray, locations: tuple[str, ...]) -> np.ndarray:
    """One code per (nace, location) code pair, ordered as the pairs are."""
    return nace * len(locations) + location


# Lines of a CSV file parsed or formatted at a time.
_BLOCK = 4096

# The leading text columns of the customer and pair-table CSVs; the rest are numbers.
_TEXT_COLUMNS = 3

_ZERO_DEMAND_NOTE = "line {}: customer {!r} has zero annual demand; excluded from profiling"


def _rows(path: Path, lines, header: tuple[str, ...] | None, first: int):
    """Yield ``(line number, cells)`` for each non-blank row ``csv.reader`` reads from ``lines``.

    ``lines`` are a file's lines from line ``first`` on; a row is numbered by
    the line it ends on, ``csv.reader`` counting lines from ``first``. With
    a ``header``, the first row must be ``header`` once its cells are
    stripped, or a SchemaError names the file; with None it is yielded like
    any other. Text ``csv.reader`` rejects (such as a cell over its field
    limit) is a DataError naming the file and the line.
    """
    reader = csv.reader(lines)
    try:
        if header is not None:
            got = next(reader, None)
            if got is None or tuple(h.strip() for h in got) != header:
                raise SchemaError(f"{path}: header mismatch; expected {','.join(header)}")
        for row in reader:
            if row:
                yield first - 1 + reader.line_num, row
    except csv.Error as exc:
        raise DataError(f"{path}: line {first - 1 + reader.line_num}: {exc}") from None


def _csv_rows(path: Path, header: tuple[str, ...] | None):
    """The :func:`_rows` of a whole CSV file, numbered from 1; text that is not UTF-8 is a DataError."""
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            yield from _rows(path, fh, header, 1)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None


def _block(lines: np.ndarray, strings, numbers: np.ndarray | None, rows, width: int):
    """A tokenized block: ``(lines, strings, numbers, errors)``.

    ``strings`` holds the first ``_TEXT_COLUMNS`` columns, one tuple of
    unstripped cells each. ``numbers`` is the float64 matrix of the other
    columns from one parse of the whole block, or None if that parse failed;
    then each row is read with ``float`` instead. ``errors`` maps each row
    with the wrong field count or a cell ``float`` rejects to its cells, as
    ``rows()`` gives them; such a row's numbers are NaN. ``width`` is the
    header's field count.
    """
    shape = (lines.size, width - _TEXT_COLUMNS)
    errors = {}
    if numbers is None or numbers.shape != shape:
        numbers = np.full(shape, np.nan)
        for i, row in enumerate(rows()):
            try:
                if len(row) != width:
                    raise ValueError
                numbers[i] = [float(cell) for cell in row[_TEXT_COLUMNS:]]
            except ValueError:
                errors[i] = row
    return lines, strings, numbers, errors


def _blocks(path: Path, header: tuple[str, ...]):
    """Yield the :func:`_block` of each block of a CSV file after its header.

    While the file is plain, each block of ``_BLOCK`` lines is split with
    string methods, and its numbers come from one ``np.loadtxt`` call, which
    accepts a subset of the cells ``float`` accepts and gives the same values.
    A plain block has LF or CRLF line ends (the latter is what ``csv.writer``
    writes), no quote, NUL, bare CR, blank line or line longer than the
    ``csv`` field limit, and a cell after the first ``_TEXT_COLUMNS`` on
    every line; a plain header line is exactly ``header``. At the first line
    that is not plain, ``csv.reader`` takes over: it reads from the header
    line, or from the first line of the block that holds that line, to the
    end of the file, counting lines from there (see :func:`_rows`). Its
    blocks are ``_BLOCK`` non-blank rows, their numbers from one
    ``np.array(cells, dtype=np.float64)`` call, which parses each cell as
    ``float`` does; a row with the wrong field count has empty text cells.
    Text that is not UTF-8 is a DataError naming the file.
    """
    head, width = ",".join(header), len(header)
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            block, line = list(islice(fh, 1)), 1
            if block and block[0] in (head, head + "\n", head + "\r\n"):
                header, line = None, 2
                while block := list(islice(fh, _BLOCK)):
                    text = "".join(block)
                    if ('"' in text or "\0" in text or text.count("\r") != text.count("\r\n")
                            or max(map(len, block)) > csv.field_size_limit()):
                        break
                    rows = text.replace("\r\n", "\n").split("\n")
                    if text.endswith("\n"):
                        rows.pop()
                    cells = [row.split(",", _TEXT_COLUMNS) for row in rows]
                    if min(map(len, cells)) <= _TEXT_COLUMNS:  # also a blank line
                        break
                    *strings, tails = zip(*cells)
                    if "" in tails:  # loadtxt would skip the line
                        break
                    try:
                        # comments=None: the default "#" would cut a cell short
                        numbers = np.loadtxt(tails, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
                    except ValueError:
                        numbers = None
                    lines = np.arange(line, line + len(rows))
                    line += len(rows)
                    yield _block(lines, strings, numbers, lambda: [row.split(",") for row in rows], width)
                else:
                    return
            reader = _rows(path, chain(block, fh), header, line)
            while block := list(islice(reader, _BLOCK)):
                lines, rows = zip(*block)
                strings = zip(*(row[:_TEXT_COLUMNS] if len(row) == width else [""] * _TEXT_COLUMNS for row in rows))
                try:
                    numbers = np.array([row[_TEXT_COLUMNS:] for row in rows], dtype=np.float64)
                except ValueError:
                    numbers = None
                yield _block(np.array(lines), tuple(strings), numbers, lambda: rows, width)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None


def load_customers(path) -> CustomerDataset:
    """Parse a customer CSV (schema: id,nace,location,contracted_kw,m01..m12).

    Well-formed rows are kept even when nace/location is missing; rows with
    the wrong field count, an empty id, malformed or negative numerics, or
    monthly demands whose sum overflows float64, are rejected with a
    line-numbered diagnostic. An id that repeats an accepted row's aborts
    the load.
    """
    path = Path(path)
    return _checked_customers(path, _blocks(path, CUSTOMER_CSV_HEADER))


def _checked_customers(path: Path, blocks) -> CustomerDataset:
    """The dataset of a tokenized customer CSV, checked one block at a time.

    A row's rules apply in this order: field count, empty id, an id that
    repeats an earlier accepted row's, malformed number, then the values. A
    block that passes them all is taken whole.
    """
    ids: list[str] = []
    nace_codes, location_codes = _KeyCodes(), _KeyCodes()
    contracted = [np.empty(0)]
    demands = [np.empty((0, MONTHS))]
    diagnostics: list[str] = []
    seen: set[str] = set()
    for lines, (cid, nace, location), numbers, errors in blocks:
        cid = [cell.strip() for cell in cid]
        block_ids = set(cid)
        # a non-finite row sum is reported as a diagnostic, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            totals = numbers[:, 1:].sum(axis=1)
            proper = np.isfinite(numbers).all(axis=1) & (numbers >= 0).all(axis=1)
        valid = proper & np.isfinite(totals)
        clean = not errors and valid.all() and "" not in block_ids and len(block_ids) == len(cid)
        if not (clean and seen.isdisjoint(block_ids)):
            keep = []
            for i, line in enumerate(lines.tolist()):
                row = errors.get(i)
                if row is not None and len(row) != len(CUSTOMER_CSV_HEADER):
                    problem = f"expected {len(CUSTOMER_CSV_HEADER)} fields, got {len(row)}"
                elif not cid[i]:
                    problem = "empty customer id"
                elif cid[i] in seen:
                    raise DuplicateIdError(f"{path}: line {line}: duplicate customer id: {cid[i]!r}")
                elif row is not None:
                    try:
                        list(map(float, row[_TEXT_COLUMNS:]))
                    except ValueError as exc:  # _block found a cell that raises
                        problem = f"malformed numeric field ({exc})"
                elif not valid[i]:
                    problem = (
                        "monthly demands sum past the float64 range" if proper[i]
                        else "numeric fields must be finite and >= 0"
                    )
                else:
                    seen.add(cid[i])
                    keep.append(i)
                    if totals[i] == 0.0:
                        diagnostics.append(_ZERO_DEMAND_NOTE.format(line, cid[i]))
                    continue
                diagnostics.append(f"line {line}: {problem}; row rejected")
        else:
            seen |= block_ids
            keep = range(len(cid))
            zero = np.flatnonzero(totals == 0.0).tolist()
            diagnostics += map(_ZERO_DEMAND_NOTE.format, lines[zero].tolist(), map(cid.__getitem__, zero))
        ids += map(cid.__getitem__, keep)
        nace_codes.add(nace, keep)
        location_codes.add(location, keep)
        contracted.append(numbers[keep, 0])
        demands.append(numbers[keep, 1:])
    del seen  # the dataset builds its own set of the ids
    # the block lists are let go before the key columns and the dataset are built
    contracted, demands = np.concatenate(contracted), np.concatenate(demands)
    (naces, nace), (locations, location) = nace_codes.column(), location_codes.column()
    return CustomerDataset(tuple(ids), nace, location, naces, locations, contracted, demands, tuple(diagnostics))


def save_customers(dataset: CustomerDataset, path) -> None:
    """Write a dataset back to the customer-CSV schema (exact float round-trip)."""
    naces, locations = decode(dataset.naces, dataset.nace), decode(dataset.locations, dataset.location)
    write_csv(path, CUSTOMER_CSV_HEADER, [dataset.ids, naces, locations, dataset.contracted_kw, *dataset.raw_demand.T])


# csv.writer quotes a cell that holds one of these; it writes any other text bare.
_QUOTED = (",", '"', "\r", "\n")


def write_csv(path, header: tuple[str, ...], columns) -> None:
    """Write equal-length columns under ``header`` as ``csv.writer`` would, a block of rows at a time.

    A column is a sequence of str or a 1-D numpy array. Each ``_BLOCK`` rows of
    an array column are formatted by one ``repr`` of their Python values: a
    float as its shortest round-trip text, an integer as itself, and a NaN
    as an empty cell. Rows end with CRLF. A block whose text cells hold a
    character ``csv.writer`` quotes goes through ``csv.writer``, so every
    byte is the one it writes.
    """
    if len({len(column) for column in columns}) > 1:
        raise ValueError("columns differ in length")
    texts = [j for j, column in enumerate(columns) if not isinstance(column, np.ndarray)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, len(columns[0]), _BLOCK):
            cells = [_cells(column[lo:lo + _BLOCK]) for column in columns]
            text = "".join(["".join(cells[j]) for j in texts])
            if any(ch in text for ch in _QUOTED):
                writer.writerows(zip(*cells))
            else:
                fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _cells(part):
    """The text cells of one block of a column."""
    if not isinstance(part, np.ndarray):
        return part
    cells = repr(part.tolist())[1:-1].split(", ")
    if part.dtype.kind == "f" and np.isnan(part).any():
        cells = ["" if cell == "nan" else cell for cell in cells]
    return cells
