"""Core domain model: the customer dataset, its ingestion, profile normalization.

A dataset is stored column-wise (id/nace/location tuples plus numpy arrays for
contracted power and the 12 monthly demands) so that downstream passes stream
over millions of rows without materializing per-row objects; the rest of the
package refers to customers by row index.

Normalization convention: a demand profile is divided by the arithmetic mean
of its 12 monthly values, so every normalized profile (and every target) has
unit mean. Shape is what matters; absolute magnitude is deliberately dropped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from retail_profiler import kernels

MONTHS = 12
MONTH_COLUMNS = tuple(f"m{j:02d}" for j in range(1, MONTHS + 1))
CUSTOMER_CSV_HEADER = ("id", "nace", "location", "contracted_kw") + MONTH_COLUMNS

# Tolerance on the unit-mean invariant of target and pair profiles.
MEAN_TOLERANCE = 1e-9

TARGET_LABELS = ("flat", "solar", "complement", "custom")


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


class DataError(Exception):
    """Input data violates a documented contract."""


class SchemaError(DataError):
    """A CSV file does not match its expected header/schema."""


class DuplicateIdError(DataError):
    """Two rows share a customer id. Identity is the join key, so this is fatal."""


class ZeroDemandError(DataError):
    """A profile with zero total demand cannot be normalized."""


class PairKey(NamedTuple):
    """Activity-sector x location group key."""

    nace: str
    location: str


@dataclass(frozen=True, eq=False)
class TargetProfile:
    """Desired 12-month demand shape (unit mean); negatives are permitted."""

    values: np.ndarray
    label: str

    def __post_init__(self):
        if self.label not in TARGET_LABELS:
            raise ValueError(f"unknown target label {self.label!r}; expected one of {TARGET_LABELS}")
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

    Group g is the pair ``(nace[g], location[g])``; its members are
    ``rows[offsets[g]:offsets[g + 1]]``, row indices into one dataset.
    """

    nace: tuple[str, ...]
    location: tuple[str, ...]
    offsets: np.ndarray
    rows: np.ndarray

    def members(self, picks: np.ndarray) -> np.ndarray:
        """Rows of the groups ``picks``, group after group, as a new array."""
        starts = self.offsets[:-1][picks]
        counts = self.offsets[1:][picks] - starts
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return self.rows[shift + np.arange(shift.size)]


def _annual_totals(contracted: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Each row's demand sum; ValueError unless every value and sum is finite and >= 0."""
    if raw.size and (not np.all(np.isfinite(raw)) or np.any(raw < 0)):
        raise ValueError("raw demands must be finite and non-negative")
    with np.errstate(over="ignore"):
        totals = raw.sum(axis=1)
    if not np.all(np.isfinite(totals)):
        raise ValueError("a customer's monthly demands sum past the float64 range")
    if contracted.size and (not np.all(np.isfinite(contracted)) or np.any(contracted < 0)):
        raise ValueError("contracted power must be finite and non-negative")
    return totals


@dataclass(frozen=True, eq=False)
class CustomerDataset:
    """Immutable column-wise customer table.

    Rows with an empty nace or location are retained (and counted in
    ``total``) but excluded from pairing; rows with zero annual demand are
    likewise retained but cannot be profiled. ``pairable_mask`` selects the
    rows eligible for every KPI computation. The dataset is safe for
    unrestricted concurrent reads once constructed.
    """

    ids: tuple[str, ...]
    nace: tuple[str, ...]
    location: tuple[str, ...]
    contracted_kw: np.ndarray
    raw_demand: np.ndarray
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self):
        n = len(self.ids)
        if not (len(self.nace) == len(self.location) == n):
            raise ValueError("column lengths disagree")
        contracted = np.asarray(self.contracted_kw, dtype=np.float64)
        raw = np.ascontiguousarray(self.raw_demand, dtype=np.float64)
        if contracted.shape != (n,) or raw.shape != (n, MONTHS):
            raise ValueError("array shapes disagree with row count")
        _annual_totals(contracted, raw)
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
        mask = np.fromiter(
            (bool(a) and bool(b) for a, b in zip(self.nace, self.location)),
            dtype=bool,
            count=len(self.ids),
        )
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
    def with_pair_keys(self) -> int:
        return int(self.has_keys_mask.sum())

    @property
    def excluded(self) -> int:
        """Rows kept in the totals but barred from pairing (missing nace/location)."""
        return self.total - self.with_pair_keys

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
    def _index(self) -> dict[str, int]:
        return {cid: i for i, cid in enumerate(self.ids)}

    def rows_of(self, customer_ids) -> np.ndarray:
        """Row indices of the given customer ids, in the order given."""
        index = self._index
        try:
            return np.fromiter((index[cid] for cid in customer_ids), dtype=np.intp)
        except KeyError as exc:
            raise DataError(f"unknown customer id: {exc.args[0]!r}") from None

    def index_of(self, customer_id: str) -> int:
        return int(self.rows_of((customer_id,))[0])

    @cached_property
    def pair_groups(self) -> PairGroups:
        """Pairable rows grouped by (nace, location), groups in key order.

        Each group lists its rows in customer-id order, so member order (and
        every seeded shuffle of it) does not depend on the input row order.
        """
        rows = np.array(sorted(self.pairable_indices.tolist(), key=self.ids.__getitem__), dtype=np.intp)
        nace = np.asarray(self.nace, dtype=object)[rows]
        location = np.asarray(self.location, dtype=object)[rows]
        order, new_key = pair_order(nace, location)
        starts = np.flatnonzero(new_key)
        offsets = np.append(starts, rows.size)
        rows = rows[order]
        rows.setflags(write=False)
        offsets.setflags(write=False)
        first = order[starts]
        return PairGroups(tuple(nace[first].tolist()), tuple(location[first].tolist()), offsets, rows)


def _codes(column) -> np.ndarray:
    """Each value's rank among the distinct values of a string column."""
    index = {value: code for code, value in enumerate(sorted(set(column)))}
    return np.fromiter(map(index.__getitem__, column), dtype=np.intp, count=len(column))


def pair_order(nace, location) -> tuple[np.ndarray, np.ndarray]:
    """Stable row order by (nace, location): rows sharing a key keep their order.

    Also returns the mask of the sorted positions that start a new key.
    """
    nace_code, location_code = _codes(nace), _codes(location)
    order = np.lexsort((location_code, nace_code))
    nace_code, location_code = nace_code[order], location_code[order]
    new_key = np.ones(order.size, dtype=bool)
    new_key[1:] = (nace_code[1:] != nace_code[:-1]) | (location_code[1:] != location_code[:-1])
    return order, new_key


# Lines of a CSV file parsed or formatted at a time.
_BLOCK = 4096


class _NotPlain(Exception):
    """The bulk reader does not cover this file; the row reader reads it instead."""


def _plain_blocks(path: Path, header: tuple[str, ...], numeric_from: int):
    """Yield ``(strings, numbers)`` for each block of ``_BLOCK`` lines of a plain CSV.

    ``strings`` holds the first ``numeric_from`` columns, one tuple of
    unstripped cells each; ``numbers`` is the float64 matrix of the other
    columns from one ``np.loadtxt`` call, which accepts a subset of the cells
    ``float`` accepts and gives the same values. A plain file has exactly the
    given header, LF or CRLF line ends (the latter is what ``csv.writer``
    writes), no quote, NUL, bare CR or blank line, and the header's field
    count on every line; for any other file this raises _NotPlain.
    """
    head = ",".join(header)
    width = len(header) - numeric_from
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            if fh.readline() not in (head, head + "\n", head + "\r\n"):
                raise _NotPlain
            while lines := list(islice(fh, _BLOCK)):
                text = "".join(lines)
                if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
                    raise _NotPlain
                rows = text.replace("\r\n", "\n").split("\n")
                if text.endswith("\n"):
                    rows.pop()
                cells = [row.split(",", numeric_from) for row in rows]
                if min(map(len, cells)) <= numeric_from:  # also a blank line
                    raise _NotPlain
                *strings, tails = zip(*cells)
                if "" in tails:  # loadtxt would skip the line
                    raise _NotPlain
                # comments=None: the default "#" would cut a cell short
                numbers = np.loadtxt(tails, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
                if numbers.shape != (len(rows), width):
                    raise _NotPlain
                yield strings, numbers
    except ValueError:  # loadtxt rejected a cell, or the file is not UTF-8
        raise _NotPlain from None


def load_customers(path) -> CustomerDataset:
    """Parse a customer CSV (schema: id,nace,location,contracted_kw,m01..m12).

    Well-formed rows are kept even when nace/location is missing; rows with
    malformed or negative numerics, or monthly demands whose sum overflows
    float64, are rejected with a line-numbered diagnostic. Duplicate ids
    abort the load.

    A plain file whose rows are all valid is parsed in bulk; any other file is
    read row by row, which gives the same values, notes and errors.
    """
    path = Path(path)
    try:
        return _load_plain_customers(path)
    except _NotPlain:
        return _read_customer_rows(path)


def _load_plain_customers(path: Path) -> CustomerDataset:
    """The dataset of a plain customer CSV; raises _NotPlain for a row the row reader would reject.

    The checks of one row run on each block, so such a row ends the bulk
    parse at its block; duplicate ids are found when the dataset is built.
    """
    ids: list[str] = []
    naces: list[str] = []
    locations: list[str] = []
    blocks = [np.empty((0, MONTHS + 1))]
    totals = [np.empty(0)]
    for (cid, nace, location), numbers in _plain_blocks(path, CUSTOMER_CSV_HEADER, 3):
        cid = [cell.strip() for cell in cid]
        if "" in cid:
            raise _NotPlain
        try:
            totals.append(_annual_totals(numbers[:, 0], numbers[:, 1:]))
        except ValueError:
            raise _NotPlain from None
        ids += cid
        naces += map(str.strip, nace)
        locations += map(str.strip, location)
        blocks.append(numbers)
    try:
        return CustomerDataset(
            ids=tuple(ids),
            nace=tuple(naces),
            location=tuple(locations),
            contracted_kw=np.concatenate([block[:, 0] for block in blocks]),
            raw_demand=np.concatenate([block[:, 1:] for block in blocks]),
            diagnostics=tuple(
                f"line {i + 2}: customer {ids[i]!r} has zero annual demand; excluded from profiling"
                for i in np.flatnonzero(np.concatenate(totals) == 0.0).tolist()
            ),
        )
    except DuplicateIdError:
        raise _NotPlain from None


def _read_customer_rows(path: Path) -> CustomerDataset:
    """Read a customer CSV row by row; this reads every file the bulk path does not."""
    ids: list[str] = []
    naces: list[str] = []
    locations: list[str] = []
    contracted: list[float] = []
    demands: list[list[float]] = []
    diagnostics: list[str] = []
    seen: set[str] = set()

    # a non-finite row sum is reported as a diagnostic, not as a numpy warning
    with path.open(newline="", encoding="utf-8") as fh, np.errstate(over="ignore", invalid="ignore"):
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CUSTOMER_CSV_HEADER:
            raise SchemaError(
                f"{path}: header mismatch; expected {','.join(CUSTOMER_CSV_HEADER)}"
            )
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != len(CUSTOMER_CSV_HEADER):
                diagnostics.append(
                    f"line {line}: expected {len(CUSTOMER_CSV_HEADER)} fields, got {len(row)}; row rejected"
                )
                continue
            cid = row[0].strip()
            if not cid:
                diagnostics.append(f"line {line}: empty customer id; row rejected")
                continue
            if cid in seen:
                raise DuplicateIdError(f"{path}: line {line}: duplicate customer id: {cid!r}")
            try:
                kw = float(row[3])
                monthly = [float(cell) for cell in row[4:]]
            except ValueError as exc:
                diagnostics.append(f"line {line}: malformed numeric field ({exc}); row rejected")
                continue
            values = np.array([kw] + monthly)
            total = values[1:].sum()
            # non-negative months with a finite sum are finite themselves
            if not (values.min() >= 0.0 and math.isfinite(kw) and math.isfinite(total)):
                problem = (
                    "monthly demands sum past the float64 range"
                    if np.all(np.isfinite(values)) and values.min() >= 0.0
                    else "numeric fields must be finite and >= 0"
                )
                diagnostics.append(f"line {line}: {problem}; row rejected")
                continue
            seen.add(cid)
            ids.append(cid)
            naces.append(row[1].strip())
            locations.append(row[2].strip())
            contracted.append(kw)
            demands.append(monthly)
            if total == 0.0:
                diagnostics.append(
                    f"line {line}: customer {cid!r} has zero annual demand; excluded from profiling"
                )

    n = len(ids)
    dataset = CustomerDataset(
        ids=tuple(ids),
        nace=tuple(naces),
        location=tuple(locations),
        contracted_kw=np.array(contracted, dtype=np.float64),
        raw_demand=np.array(demands, dtype=np.float64).reshape(n, MONTHS),
        diagnostics=tuple(diagnostics),
    )
    return dataset


def save_customers(dataset: CustomerDataset, path) -> None:
    """Write a dataset back to the customer-CSV schema (exact float round-trip)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CUSTOMER_CSV_HEADER)
        for lo in range(0, len(dataset), _BLOCK):
            block = slice(lo, lo + _BLOCK)
            writer.writerows(
                [cid, nace, location, format_float(kw)] + list(map(format_float, monthly))
                for cid, nace, location, kw, monthly in zip(
                    dataset.ids[block], dataset.nace[block], dataset.location[block],
                    dataset.contracted_kw[block].tolist(), dataset.raw_demand[block].tolist(),
                )
            )
