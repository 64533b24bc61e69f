"""Core domain model: customer records, dataset ingestion, profile normalization.

A dataset is stored column-wise (id/nace/location tuples plus numpy arrays for
contracted power and the 12 monthly demands) so that downstream passes stream
over millions of rows without materializing per-row objects. Row objects
(:class:`CustomerRecord`) are only built on demand at the API edges.

Normalization convention: a demand profile is divided by the arithmetic mean
of its 12 monthly values, so every normalized profile (and every target) has
unit mean. Shape is what matters; absolute magnitude is deliberately dropped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

MONTHS = 12
MONTH_COLUMNS = tuple(f"m{j:02d}" for j in range(1, MONTHS + 1))
CUSTOMER_CSV_HEADER = ("id", "nace", "location", "contracted_kw") + MONTH_COLUMNS

# Tolerance on the unit-mean invariant of normalized and target profiles.
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


def _profile_array(values, what: str, check_mean: bool = False) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.shape != (MONTHS,):
        raise ValueError(f"{what} must have exactly {MONTHS} values, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    if check_mean and abs(arr.mean() - 1.0) > MEAN_TOLERANCE:
        raise ValueError(f"{what} must have unit mean, got {arr.mean()!r}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class NormalizedProfile:
    """Dimensionless 12-month demand shape with unit mean."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _profile_array(self.values, "normalized profile", check_mean=True)
        )


@dataclass(frozen=True, eq=False)
class TargetProfile:
    """Desired 12-month demand shape (unit mean); negatives are permitted."""

    values: np.ndarray
    label: str

    def __post_init__(self):
        if self.label not in TARGET_LABELS:
            raise ValueError(f"unknown target label {self.label!r}; expected one of {TARGET_LABELS}")
        object.__setattr__(
            self, "values", _profile_array(self.values, "target profile", check_mean=True)
        )


def normalize_profile(raw) -> NormalizedProfile:
    """Divide a 12-month raw demand by its arithmetic mean.

    Raises ZeroDemandError for an all-zero profile: such a customer has no
    shape and is excluded from every KPI computation.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.shape != (MONTHS,):
        raise ValueError(f"raw demand must have exactly {MONTHS} values, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("raw demand contains non-finite values")
    if np.any(arr < 0):
        raise ValueError("raw demand contains negative values")
    mean = arr.mean()
    if mean <= 0.0:
        raise ZeroDemandError("cannot normalize an all-zero demand profile")
    return NormalizedProfile(arr / mean)


@dataclass(frozen=True, eq=False)
class CustomerRecord:
    """One anonymized supply point."""

    id: str
    nace: str
    location: str
    contracted_kw: float
    raw_demand: np.ndarray

    @property
    def has_pair_key(self) -> bool:
        return bool(self.nace) and bool(self.location)

    @property
    def pair_key(self) -> PairKey:
        return PairKey(self.nace, self.location)

    def normalized(self) -> NormalizedProfile:
        return normalize_profile(self.raw_demand)


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
        if n and (not np.all(np.isfinite(raw)) or np.any(raw < 0)):
            raise ValueError("raw demands must be finite and non-negative")
        with np.errstate(over="ignore"):
            totals = raw.sum(axis=1)
        if not np.all(np.isfinite(totals)):
            raise ValueError("a customer's monthly demands sum past the float64 range")
        if n and (not np.all(np.isfinite(contracted)) or np.any(contracted < 0)):
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

    def record(self, i: int) -> CustomerRecord:
        return CustomerRecord(
            id=self.ids[i],
            nace=self.nace[i],
            location=self.location[i],
            contracted_kw=float(self.contracted_kw[i]),
            raw_demand=self.raw_demand[i],
        )

    def records(self) -> Iterator[CustomerRecord]:
        for i in range(len(self.ids)):
            yield self.record(i)

    def normalized_rows(self, indices) -> np.ndarray:
        """Row-normalized demand shapes for the given row indices."""
        rows = self.raw_demand[np.asarray(indices, dtype=np.intp)]
        means = rows.mean(axis=1)
        if np.any(means <= 0.0):
            raise ZeroDemandError("cannot normalize rows with zero total demand")
        return rows / means[:, None]

    @cached_property
    def pair_groups(self) -> dict[PairKey, np.ndarray]:
        """Row indices of pairable customers grouped by (nace, location).

        Each group lists its rows in customer-id order, so member order (and
        every seeded shuffle of it) does not depend on the input row order.
        """
        groups: dict[PairKey, list[int]] = {}
        for i in sorted(self.pairable_indices.tolist(), key=self.ids.__getitem__):
            groups.setdefault(PairKey(self.nace[i], self.location[i]), []).append(i)
        return {key: np.asarray(rows, dtype=np.intp) for key, rows in groups.items()}


def load_customers(path) -> CustomerDataset:
    """Parse a customer CSV (schema: id,nace,location,contracted_kw,m01..m12).

    Well-formed rows are kept even when nace/location is missing; rows with
    malformed or negative numerics, or monthly demands whose sum overflows
    float64, are rejected with a line-numbered diagnostic. Duplicate ids
    abort the load.
    """
    path = Path(path)
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
        for i, cid in enumerate(dataset.ids):
            writer.writerow(
                [cid, dataset.nace[i], dataset.location[i], format_float(dataset.contracted_kw[i])]
                + [format_float(v) for v in dataset.raw_demand[i]]
            )
