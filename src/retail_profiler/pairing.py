"""Pair table construction, per-pair KPIs, identification statistics, matrices.

Customers sharing one (nace, location) key form a pair: the unit of both
marketing targeting and indirect identification. A pair's distance KPI is the
median of its members' individual distances, which is deliberately not the
distance of the pair's averaged profile (the two differ in general).
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from retail_profiler import kernels
from retail_profiler.metrics import DegenerateReferenceError, eid, eid_values
from retail_profiler.model import (
    MONTHS,
    CustomerDataset,
    DataError,
    NormalizedProfile,
    PairKey,
    SchemaError,
    format_float,
)

PAIR_TABLE_HEADER = (
    "nace",
    "location",
    "n_k",
    "avg_contracted_kw",
    "avg_demand_kwh",
    "d_k",
    "e_k",
    "E_k",
) + tuple(f"p{j:02d}" for j in range(1, MONTHS + 1))

MATRIX_CSV_HEADER = ("province", "division", "customers", "E")

LOCATION_MAP_HEADER = ("location", "province")
NACE_MAP_HEADER = ("nace", "division")


@dataclass(frozen=True, eq=False)
class PairRecord:
    """One (nace, location) pair with its members and KPIs.

    ``member_ids`` is canonicalized (sorted) so the table is independent of
    input row order. KPI fields are None until :func:`attach_kpis` runs.
    ``member_rows`` holds dataset row indices aligned with ``member_ids`` and
    is absent for tables loaded from CSV without customer data.
    """

    key: PairKey
    member_ids: tuple[str, ...]
    n_k: int
    pair_profile: NormalizedProfile
    avg_contracted: float
    avg_demand: float
    d_k: float | None = None
    e_k: float | None = None
    E_k: float | None = None
    member_rows: np.ndarray | None = None

    @property
    def nace(self) -> str:
        return self.key.nace

    @property
    def location(self) -> str:
        return self.key.location


@dataclass(frozen=True, eq=False)
class PairTable:
    """Immutable pair table, records sorted by (nace, location)."""

    records: tuple[PairRecord, ...]
    dataset: CustomerDataset | None = None
    diagnostics: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[PairRecord]:
        return iter(self.records)

    @cached_property
    def by_key(self) -> dict[PairKey, PairRecord]:
        return {record.key: record for record in self.records}

    def get(self, key: PairKey) -> PairRecord:
        try:
            return self.by_key[key]
        except KeyError:
            raise DataError(f"no pair for key {key!r}") from None

    @property
    def has_kpis(self) -> bool:
        return bool(self.records) and all(r.d_k is not None for r in self.records)


def build_pairs(dataset: CustomerDataset) -> PairTable:
    """Group pairable customers into one record per distinct (nace, location).

    The pair profile is the arithmetic mean of the members' unit-mean shapes,
    renormalized; average contracted and demanded power are plain means over
    members. KPIs are left unset.
    """
    groups = dataset.pair_groups
    if not groups:
        return PairTable(
            records=(),
            dataset=dataset,
            diagnostics=("no pairable customers; pair table is empty",),
        )

    keys = sorted(groups)
    ordered_rows = [groups[key] for key in keys]
    ordered_ids = [tuple(dataset.ids[i] for i in rows.tolist()) for rows in ordered_rows]

    # one pass over the concatenated member layout for all pair aggregates
    counts = np.array([rows.size for rows in ordered_rows], dtype=np.intp)
    starts = np.zeros(len(counts), dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    all_rows = np.concatenate(ordered_rows)
    raw = dataset.raw_demand[all_rows]
    member_means = raw.mean(axis=1)
    profiles = np.add.reduceat(raw / member_means[:, None], starts, axis=0) / counts[:, None]
    profiles /= profiles.mean(axis=1)[:, None]
    avg_contracted = np.add.reduceat(dataset.contracted_kw[all_rows], starts) / counts
    avg_demand = np.add.reduceat(member_means, starts) / counts

    records = tuple(
        PairRecord(
            key=key,
            member_ids=ids,
            n_k=int(count),
            pair_profile=NormalizedProfile(profile),
            avg_contracted=float(kw),
            avg_demand=float(kwh),
            member_rows=rows,
        )
        for key, ids, rows, count, profile, kw, kwh in zip(
            keys, ordered_ids, ordered_rows, counts, profiles, avg_contracted, avg_demand
        )
    )
    return PairTable(records=records, dataset=dataset)


def _member_distance_layout(table: PairTable, resolver):
    """Per-member distances for every pair, concatenated in record order.

    Positions sharing a resolved target are batched into one kernel pass per
    distinct target profile.
    """
    if table.dataset is None:
        raise ValueError("pair table carries no customer data; rebuild or reload with a dataset")
    if any(r.member_rows is None for r in table.records):
        raise ValueError("pair table lacks member row indices")
    counts = np.array([r.n_k for r in table.records], dtype=np.intp)
    offsets = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    all_rows = np.concatenate([r.member_rows for r in table.records])
    by_target: dict[int, tuple[object, list[np.ndarray]]] = {}
    for record, lo, hi in zip(table.records, offsets[:-1], offsets[1:]):
        target = resolver(record.key)
        entry = by_target.setdefault(id(target), (target, []))
        entry[1].append(np.arange(lo, hi, dtype=np.intp))
    distances = np.empty(all_rows.size, dtype=np.float64)
    for target, spans in by_target.values():
        positions = np.concatenate(spans)
        distances[positions] = kernels.normalized_rmsd(
            table.dataset.raw_demand[all_rows[positions]], target.values
        )
    return offsets, distances


def attach_kpis(table: PairTable, resolver, d_star: float) -> PairTable:
    """Attach d_k (median member distance), e_k and E_k to every pair.

    All pair medians come out of a single global sort of the member-distance
    layout (mean-of-two-middles for even counts, as everywhere else).
    """
    if not (d_star > 0):
        raise DegenerateReferenceError(f"reference distance must be > 0, got {d_star!r}")
    if not table.records:
        return table
    offsets, distances = _member_distance_layout(table, resolver)
    counts = np.diff(offsets)
    pair_of = np.repeat(np.arange(counts.size), counts)
    sorted_d = distances[np.lexsort((distances, pair_of))]
    lo = offsets[:-1]
    d_k = (sorted_d[lo + (counts - 1) // 2] + sorted_d[lo + counts // 2]) / 2.0
    e_k = 1.0 - d_k / d_star
    E_k = eid_values(e_k)
    records = tuple(
        replace(record, d_k=float(d), e_k=float(e), E_k=float(E))
        for record, d, e, E in zip(table.records, d_k, e_k, E_k)
    )
    return PairTable(records=records, dataset=table.dataset, diagnostics=table.diagnostics)


@dataclass(frozen=True, eq=False)
class IdentificationStats:
    """How identifiable customers are from their pair's cardinality."""

    pair_cardinality_histogram: dict[int, int]
    customers_in_sets_leq: dict[int, int]
    nonempty_pair_count: int
    total_pair_space: int

    @property
    def max_size(self) -> int:
        return max(self.pair_cardinality_histogram, default=0)

    def pairs_leq(self, n: int) -> int:
        return sum(c for s, c in self.pair_cardinality_histogram.items() if s <= n)

    def customers_leq(self, n: int) -> int:
        return sum(s * c for s, c in self.pair_cardinality_histogram.items() if s <= n)

    def ratio_leq(self, n: int) -> float:
        """Share of non-empty pairs containing at most n customers."""
        if self.nonempty_pair_count == 0:
            return 0.0
        return self.pairs_leq(n) / self.nonempty_pair_count

    def ratio_table(self) -> list[tuple[int, int, int, float, int]]:
        """(size, pairs, pairs_leq, ratio_leq, customers_leq) for size 1..max."""
        rows = []
        pairs_cum = 0
        customers_cum = 0
        for size in range(1, self.max_size + 1):
            count = self.pair_cardinality_histogram.get(size, 0)
            pairs_cum += count
            customers_cum += size * count
            rows.append(
                (size, count, pairs_cum, pairs_cum / self.nonempty_pair_count, customers_cum)
            )
        return rows


def identification_stats(table: PairTable) -> IdentificationStats:
    """Cardinality histogram plus cumulative identifiability counts.

    ``customers_in_sets_leq`` is reported for set sizes 1..10 and the largest
    pair; the full curve is available via :meth:`IdentificationStats.ratio_table`.
    """
    sizes = [record.n_k for record in table.records]
    histogram = dict(sorted(Counter(sizes).items()))
    naces = {record.key.nace for record in table.records}
    locations = {record.key.location for record in table.records}
    max_size = max(sizes, default=0)
    thresholds = sorted(set(range(1, 11)) | ({max_size} if max_size else set()))
    cumulative = {}
    for n in thresholds:
        cumulative[n] = sum(s * c for s, c in histogram.items() if s <= n)
    return IdentificationStats(
        pair_cardinality_histogram=histogram,
        customers_in_sets_leq=cumulative,
        nonempty_pair_count=len(sizes),
        total_pair_space=len(naces) * len(locations),
    )


@dataclass(frozen=True, eq=False)
class IndicatorMatrix:
    """Province x division grid of enhancement indicators.

    Cells with zero customers carry NaN (the no-customer marker); ``counts``
    holds the pooled customer count per cell.
    """

    provinces: tuple[str, ...]
    divisions: tuple[str, ...]
    values: np.ndarray
    counts: np.ndarray
    diagnostics: tuple[str, ...] = ()

    def row_index(self, province: str) -> int:
        try:
            return self.provinces.index(province)
        except ValueError:
            raise DataError(f"unknown province: {province!r}") from None

    def cell(self, province: str, division: str) -> tuple[float, int]:
        i = self.row_index(province)
        try:
            j = self.divisions.index(division)
        except ValueError:
            raise DataError(f"unknown division: {division!r}") from None
        return float(self.values[i, j]), int(self.counts[i, j])


def aggregate_matrix(
    table: PairTable,
    dataset: CustomerDataset,
    province_of: Callable[[str], str],
    division_of: Callable[[str], str],
    resolver,
    d_star: float,
) -> IndicatorMatrix:
    """Pool customer distances by province x division and convert to indicators.

    All member distances in a group are pooled before taking the median
    (pooling raw distances is not the same as taking the median of the pair
    medians). Pairs whose codes cannot be mapped are excluded and reported in
    the diagnostics.
    """
    if not (d_star > 0):
        raise DegenerateReferenceError(f"reference distance must be > 0, got {d_star!r}")
    offsets, distances = _member_distance_layout(table, resolver)

    groups: dict[tuple[str, str], list[np.ndarray]] = {}
    diagnostics: list[str] = []
    for record, lo, hi in zip(table.records, offsets[:-1], offsets[1:]):
        try:
            province = province_of(record.key.location)
        except KeyError:
            diagnostics.append(f"location {record.key.location!r} has no province mapping; pair excluded")
            continue
        try:
            division = division_of(record.key.nace)
        except KeyError:
            diagnostics.append(f"nace {record.key.nace!r} has no division mapping; pair excluded")
            continue
        groups.setdefault((province, division), []).append(distances[lo:hi])

    provinces = tuple(sorted({p for p, _ in groups}))
    divisions = tuple(sorted({d for _, d in groups}))
    p_index = {p: i for i, p in enumerate(provinces)}
    d_index = {d: j for j, d in enumerate(divisions)}
    values = np.full((len(provinces), len(divisions)), np.nan)
    counts = np.zeros((len(provinces), len(divisions)), dtype=np.int64)
    for (province, division), chunks in groups.items():
        pooled = np.concatenate(chunks)
        i, j = p_index[province], d_index[division]
        counts[i, j] = pooled.size
        values[i, j] = eid(1.0 - float(np.median(pooled)) / d_star)
    values.setflags(write=False)
    counts.setflags(write=False)
    return IndicatorMatrix(
        provinces=provinces,
        divisions=divisions,
        values=values,
        counts=counts,
        diagnostics=tuple(diagnostics),
    )


def slice_row(matrix: IndicatorMatrix, province: str) -> list[tuple[str, float, int]]:
    """Non-empty cells of one province: (division, indicator, customers), best first."""
    i = matrix.row_index(province)
    cells = [
        (division, float(matrix.values[i, j]), int(matrix.counts[i, j]))
        for j, division in enumerate(matrix.divisions)
        if matrix.counts[i, j] > 0
    ]
    cells.sort(key=lambda cell: (-cell[1], cell[0]))
    return cells


# -- mappings ---------------------------------------------------------------

_ALNUM_PREFIX = re.compile(r"[A-Za-z0-9]+")


def default_province(location: str) -> str:
    """Leading alphanumeric prefix of the location code (first 3 chars if none)."""
    match = _ALNUM_PREFIX.match(location)
    prefix = match.group(0) if match else ""
    if not prefix:
        raise KeyError(location)
    return location[:3] if prefix == location else prefix


def default_division(nace: str) -> str:
    """First 3 characters of the activity code."""
    if not nace:
        raise KeyError(nace)
    return nace[:3]


def load_mapping(path, header: tuple[str, str]) -> dict[str, str]:
    """Read a two-column code mapping CSV with the given header."""
    path = Path(path)
    mapping: dict[str, str] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None or tuple(h.strip() for h in got) != header:
            raise SchemaError(f"{path}: header mismatch; expected {','.join(header)}")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise SchemaError(f"{path}: line {reader.line_num}: expected 2 fields")
            mapping[row[0].strip()] = row[1].strip()
    return mapping


# -- CSV round trip ----------------------------------------------------------


def write_pair_table(table: PairTable, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PAIR_TABLE_HEADER)
        for r in table.records:
            kpis = [
                "" if v is None else format_float(v) for v in (r.d_k, r.e_k, r.E_k)
            ]
            writer.writerow(
                [r.key.nace, r.key.location, r.n_k, format_float(r.avg_contracted),
                 format_float(r.avg_demand)]
                + kpis
                + [format_float(v) for v in r.pair_profile.values]
            )


def read_pair_table(path, dataset: CustomerDataset | None = None) -> PairTable:
    """Load a pair-table CSV, optionally re-joining member lists from a dataset.

    The CSV schema intentionally omits member ids; when a dataset is supplied
    the members are re-derived by grouping it on (nace, location) and checked
    against the stored cardinality.
    """
    path = Path(path)
    groups = dataset.pair_groups if dataset is not None else {}
    records: list[PairRecord] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != PAIR_TABLE_HEADER:
            raise SchemaError(f"{path}: header mismatch; expected {','.join(PAIR_TABLE_HEADER)}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(PAIR_TABLE_HEADER):
                raise SchemaError(f"{path}: line {line}: expected {len(PAIR_TABLE_HEADER)} fields")
            key = PairKey(row[0].strip(), row[1].strip())
            try:
                n_k = int(row[2])
                avg_contracted = float(row[3])
                avg_demand = float(row[4])
                kpis = [None if cell == "" else float(cell) for cell in row[5:8]]
                profile = [float(cell) for cell in row[8:]]
            except ValueError as exc:
                raise DataError(f"{path}: line {line}: malformed numeric field ({exc})") from None
            try:
                pair_profile = NormalizedProfile(profile)
            except ValueError as exc:
                raise DataError(f"{path}: line {line}: {exc}") from None
            member_ids: tuple[str, ...] = ()
            member_rows = None
            if dataset is not None:
                rows = groups.get(key)
                if rows is None:
                    raise DataError(f"{path}: line {line}: pair {key} not present in the customer data")
                if rows.size != n_k:
                    raise DataError(
                        f"{path}: line {line}: pair {key} has {rows.size} customers in the data, "
                        f"but the table says n_k={n_k}"
                    )
                member_rows = rows
                member_ids = tuple(dataset.ids[i] for i in rows.tolist())
            records.append(
                PairRecord(
                    key=key,
                    member_ids=member_ids,
                    n_k=n_k,
                    pair_profile=pair_profile,
                    avg_contracted=avg_contracted,
                    avg_demand=avg_demand,
                    d_k=kpis[0],
                    e_k=kpis[1],
                    E_k=kpis[2],
                    member_rows=member_rows,
                )
            )
    records.sort(key=lambda r: r.key)
    return PairTable(records=tuple(records), dataset=dataset)


def write_matrix(matrix: IndicatorMatrix, path) -> None:
    """Long-form export of the full grid; empty cells keep an empty E field."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MATRIX_CSV_HEADER)
        for i, province in enumerate(matrix.provinces):
            for j, division in enumerate(matrix.divisions):
                count = int(matrix.counts[i, j])
                cell = format_float(matrix.values[i, j]) if count else ""
                writer.writerow([province, division, count, cell])


def write_identification_stats(stats: IdentificationStats, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("size", "pairs", "pairs_leq", "pairs_leq_ratio", "customers_leq"))
        for size, count, pairs_cum, ratio, customers_cum in stats.ratio_table():
            writer.writerow((size, count, pairs_cum, format_float(ratio), customers_cum))
