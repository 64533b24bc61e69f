"""Pair table construction, per-pair KPIs, identification statistics, matrices.

Customers sharing one (nace, location) key form a pair: the unit of both
marketing targeting and indirect identification. A pair's distance KPI is the
median of its members' individual distances, which is deliberately not the
distance of the pair's averaged profile (the two differ in general).
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Callable

import numpy as np

from retail_profiler.metrics import (
    DegenerateReferenceError,
    eid,
    eid_values,
    member_distances,
    reference_distance,
)
from retail_profiler.model import (
    MEAN_TOLERANCE,
    MONTHS,
    CustomerDataset,
    DataError,
    PairGroups,
    PairKey,
    SchemaError,
    format_float,
    pair_order,
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
class PairTable:
    """Immutable pair table held as columns, one entry per pair in (nace, location) order.

    ``profiles`` is the read-only ``k x 12`` matrix of pair profiles. The KPI
    columns ``d_k``, ``e_k`` and ``E_k`` are None until :func:`attach_kpis`
    runs, which also records the reference distance ``d_star`` they were
    computed against; a table read from CSV holds NaN for an empty KPI cell
    and no ``d_star``. Pair p's members are rows of ``dataset`` in
    customer-id order, concatenated pair after pair in ``member_rows`` (see
    :attr:`groups`); ``member_rows`` is None for a table loaded without
    customer data.
    """

    nace: tuple[str, ...]
    location: tuple[str, ...]
    n_k: np.ndarray
    profiles: np.ndarray
    avg_contracted: np.ndarray
    avg_demand: np.ndarray
    d_k: np.ndarray | None = None
    e_k: np.ndarray | None = None
    E_k: np.ndarray | None = None
    d_star: float | None = None
    member_rows: np.ndarray | None = None
    dataset: CustomerDataset | None = None
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self):
        for column in (self.n_k, self.profiles, self.avg_contracted, self.avg_demand,
                       self.d_k, self.e_k, self.E_k, self.member_rows):
            if column is not None:
                column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.nace)

    @property
    def groups(self) -> PairGroups:
        """The member layout of the table, with pair offsets from ``cumsum(n_k)``."""
        if self.dataset is None or self.member_rows is None:
            raise ValueError("pair table carries no customer data; rebuild or reload with a dataset")
        offsets = np.concatenate(([0], np.cumsum(self.n_k)))
        return PairGroups(self.nace, self.location, offsets, self.member_rows)

    @property
    def has_kpis(self) -> bool:
        return len(self) > 0 and all(
            column is not None and not np.isnan(column).any()
            for column in (self.d_k, self.e_k, self.E_k)
        )


def build_pairs(dataset: CustomerDataset) -> PairTable:
    """Group pairable customers into one row per distinct (nace, location).

    The pair profile is the arithmetic mean of the members' unit-mean shapes,
    renormalized; average contracted and demanded power are plain means over
    members. KPIs are left unset.
    """
    groups = dataset.pair_groups
    starts = groups.offsets[:-1]
    counts = np.diff(groups.offsets)
    raw = dataset.raw_demand[groups.rows]
    member_means = raw.mean(axis=1)
    profiles = np.add.reduceat(raw / member_means[:, None], starts, axis=0) / counts[:, None]
    profiles /= profiles.mean(axis=1)[:, None]
    return PairTable(
        nace=groups.nace,
        location=groups.location,
        n_k=counts,
        profiles=profiles,
        avg_contracted=_pair_means(dataset.contracted_kw[groups.rows], starts, counts),
        avg_demand=_pair_means(member_means, starts, counts),
        member_rows=groups.rows,
        dataset=dataset,
        diagnostics=() if counts.size else ("no pairable customers; pair table is empty",),
    )


def _pair_means(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each pair's slice of ``values``.

    A pair whose sum overflows float64 is averaged again from values divided
    by the pair size first, which stays finite for finite values.
    """
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(values, starts)
    means = sums / counts
    for p in np.flatnonzero(~np.isfinite(sums)).tolist():
        lo = starts[p]
        means[p] = (values[lo:lo + counts[p]] / counts[p]).sum()
    return means


def _medians(values: np.ndarray, group_of: np.ndarray, groups: int) -> np.ndarray:
    """Median of the values of each group 0..groups-1, from one sort of them all.

    Even counts take the mean of the two middle values, bit for bit what
    ``np.median`` gives for each group.
    """
    counts = np.bincount(group_of, minlength=groups)
    lo = np.cumsum(counts) - counts
    ordered = values[np.lexsort((values, group_of))]
    return (ordered[lo + (counts - 1) // 2] + ordered[lo + counts // 2]) / 2.0


def _kpi_distances(table: PairTable, resolver) -> tuple[np.ndarray, float]:
    """The members' distances, in member order, and d* from the same distance pass.

    d* is the median over every pairable row of the table's dataset, also
    over the rows of pairs the table does not list.
    """
    members = table.groups.rows  # raises for a table without customer data
    distances = member_distances(table.dataset, resolver)
    d_star = reference_distance(table.dataset, distances)
    if not d_star > 0:
        raise DegenerateReferenceError(f"reference distance must be > 0, got {d_star!r}")
    return distances[members], d_star


def attach_kpis(table: PairTable, resolver) -> PairTable:
    """Attach d_k (median member distance), e_k and E_k to every pair, and d* to the table.

    All pair medians come out of a single global sort of the member
    distances (mean-of-two-middles for even counts, as everywhere else).
    """
    if not len(table):
        return table
    distances, d_star = _kpi_distances(table, resolver)
    d_k = _medians(distances, np.repeat(np.arange(len(table)), table.n_k), len(table))
    e_k = 1.0 - d_k / d_star
    return replace(table, d_k=d_k, e_k=e_k, E_k=eid_values(e_k), d_star=d_star)


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
    sizes, counts = np.unique(table.n_k, return_counts=True)
    histogram = dict(zip(sizes.tolist(), counts.tolist()))
    max_size = max(histogram, default=0)
    thresholds = sorted(set(range(1, 11)) | ({max_size} if max_size else set()))
    return IdentificationStats(
        pair_cardinality_histogram=histogram,
        customers_in_sets_leq={
            n: sum(s * c for s, c in histogram.items() if s <= n) for n in thresholds
        },
        nonempty_pair_count=len(table),
        total_pair_space=len(set(table.nace)) * len(set(table.location)),
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
    province_of: Callable[[str], str],
    division_of: Callable[[str], str],
    resolver,
) -> IndicatorMatrix:
    """Pool customer distances by province x division and convert to indicators.

    All member distances in a group are pooled before taking the median
    (pooling raw distances is not the same as taking the median of the pair
    medians). The indicators divide by d*, derived as in :func:`attach_kpis`.
    Pairs whose codes cannot be mapped are excluded and reported in the
    diagnostics.
    """
    distances, d_star = _kpi_distances(table, resolver)

    # pool each pair's member distances into its (province, division) cell
    cells: dict[tuple[str, str], int] = {}
    cell_of = np.full(len(table), -1, dtype=np.intp)
    diagnostics: list[str] = []
    for p, (nace, location) in enumerate(zip(table.nace, table.location)):
        try:
            province = province_of(location)
        except KeyError:
            diagnostics.append(f"location {location!r} has no province mapping; pair excluded")
            continue
        try:
            division = division_of(nace)
        except KeyError:
            diagnostics.append(f"nace {nace!r} has no division mapping; pair excluded")
            continue
        cell_of[p] = cells.setdefault((province, division), len(cells))
    member_cell = np.repeat(cell_of, table.n_k)
    pooled = member_cell >= 0
    medians = _medians(distances[pooled], member_cell[pooled], len(cells))

    provinces = tuple(sorted({p for p, _ in cells}))
    divisions = tuple(sorted({d for _, d in cells}))
    p_index = {p: i for i, p in enumerate(provinces)}
    d_index = {d: j for j, d in enumerate(divisions)}
    at = ([p_index[p] for p, _ in cells], [d_index[d] for _, d in cells])
    values = np.full((len(provinces), len(divisions)), np.nan)
    counts = np.zeros((len(provinces), len(divisions)), dtype=np.int64)
    counts[at] = np.bincount(member_cell[pooled], minlength=len(cells))
    values[at] = [eid(1.0 - m / d_star) for m in medians.tolist()]
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


# Rows of pairs.csv formatted or parsed at a time.
_BLOCK = 4096


def write_pair_table(table: PairTable, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PAIR_TABLE_HEADER)
        for lo in range(0, len(table), _BLOCK):
            block = slice(lo, lo + _BLOCK)
            # an unset KPI column, or an empty cell read back as NaN, writes as ""
            kpis = [
                [""] * len(table.nace[block]) if column is None
                else ["" if math.isnan(v) else format_float(v) for v in column[block].tolist()]
                for column in (table.d_k, table.e_k, table.E_k)
            ]
            writer.writerows(
                [nace, location, n_k, format_float(kw), format_float(kwh), d, e, E]
                + list(map(format_float, profile))
                for nace, location, n_k, kw, kwh, d, e, E, profile in zip(
                    table.nace[block], table.location[block], table.n_k[block].tolist(),
                    table.avg_contracted[block].tolist(), table.avg_demand[block].tolist(),
                    *kpis, table.profiles[block].tolist(),
                )
            )


def read_pair_table(path, dataset: CustomerDataset | None = None) -> PairTable:
    """Load a pair-table CSV, optionally re-joining member lists from a dataset.

    The CSV schema intentionally omits member ids; when a dataset is supplied
    the members are re-derived by grouping it on (nace, location) and checked
    against the stored cardinality. Rows are parsed in blocks into float64
    arrays and checked all at once; the error raised is that of the first
    failing line. The table comes back in (nace, location) order.
    """
    path = Path(path)
    blocks: list[tuple] = []
    rows: list[list[str]] = []
    lines: list[int] = []
    error = None
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != PAIR_TABLE_HEADER:
            raise SchemaError(f"{path}: header mismatch; expected {','.join(PAIR_TABLE_HEADER)}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(PAIR_TABLE_HEADER):
                error = SchemaError(f"{path}: line {reader.line_num}: expected {len(PAIR_TABLE_HEADER)} fields")
                break
            rows.append(row)
            lines.append(reader.line_num)
            if len(rows) == _BLOCK:
                error = _parse_block(rows, lines, path, blocks)
                rows, lines = [], []
                if error is not None:
                    break
    # the rows read before an error come earlier in the file, so they are checked first
    error = _parse_block(rows, lines, path, blocks) or error
    table = _checked_table(path, blocks, dataset)
    if error is not None:
        raise error
    return table


def _parse_block(rows: list[list[str]], lines: list[int], path: Path, blocks: list) -> DataError | None:
    """Append the columns of a block of pair rows to ``blocks``.

    The columns are line numbers, nace, location, ``n_k``, the float columns
    from ``avg_contracted_kw`` on, and a mask of the empty KPI cells, which
    parse as NaN. A malformed row ends the block and its DataError is returned.
    """
    n = len(rows)
    n_k = np.empty(n, dtype=np.int64)
    values = np.empty((n, len(PAIR_TABLE_HEADER) - 3))
    empty = np.zeros((n, 3), dtype=bool)
    error = None
    for i, row in enumerate(rows):
        try:
            n_k[i] = int(row[2])
            empty[i] = [cell == "" for cell in row[5:8]]
            values[i] = (
                [float(row[3]), float(row[4])]
                + [math.nan if cell == "" else float(cell) for cell in row[5:8]]
                + [float(cell) for cell in row[8:]]
            )
        except (ValueError, OverflowError) as exc:
            error = DataError(f"{path}: line {lines[i]}: malformed numeric field ({exc})")
            n = i
            break
    nace = np.array([row[0].strip() for row in rows[:n]], dtype=object)
    location = np.array([row[1].strip() for row in rows[:n]], dtype=object)
    blocks.append((np.array(lines[:n], dtype=np.int64), nace, location, n_k[:n], values[:n], empty[:n]))
    return error


def _checked_table(path: Path, blocks: list, dataset: CustomerDataset | None) -> PairTable:
    """The pair table of the parsed rows; raises a DataError for the first failing line."""
    lines, nace, location, n_k, values, empty = map(np.concatenate, zip(*blocks))
    kpis, profiles = values[:, 2:5], values[:, 5:]
    order, new_key = pair_order(nace, location)
    # each later row of a repeated key points at the row before it
    earlier = np.full(n_k.size, -1, dtype=np.intp)
    earlier[order[1:][~new_key[1:]]] = order[:-1][~new_key[1:]]

    def key(i: int) -> PairKey:
        return PairKey(nace[i], location[i])

    finite = np.isfinite(profiles).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        off_mean = finite & (np.abs(profiles.mean(axis=1) - 1.0) > MEAN_TOLERANCE)
    # (failing rows, message of row i), in the order the checks apply to one line
    checks = [
        (~finite, lambda i: "normalized profile contains non-finite values"),
        (off_mean, lambda i: f"normalized profile must have unit mean, got {profiles[i].mean()!r}"),
    ]
    if dataset is not None:
        groups = dataset.pair_groups
        index = {k: g for g, k in enumerate(zip(groups.nace, groups.location))}
        group = np.fromiter(map(index.get, zip(nace, location), repeat(-1)), dtype=np.intp, count=n_k.size)
        sizes = np.append(np.diff(groups.offsets), 0)[group]  # an unknown pair reads the 0
        checks.append((group < 0, lambda i: f"pair {key(i)} not present in the customer data"))
        checks.append((
            (group >= 0) & (sizes != n_k),
            lambda i: f"pair {key(i)} has {sizes[i]} customers in the data, but the table says n_k={n_k[i]}",
        ))
    checks.append((n_k < 1, lambda i: f"n_k must be >= 1, got {n_k[i]}"))
    for j, name in enumerate(PAIR_TABLE_HEADER[3:8]):
        column = values[:, j]
        if j < 2:
            bad, rule = ~(np.isfinite(column) & (column >= 0)), "finite and >= 0"
        else:
            bad, rule = ~(np.isfinite(column) | empty[:, j - 2]), "finite"
        checks.append((bad, lambda i, name=name, rule=rule, column=column:
                       f"{name} must be {rule}, got {float(column[i])!r}"))
    checks.append((earlier >= 0, lambda i: f"pair {key(i)} duplicates line {lines[earlier[i]]}"))

    failing = np.logical_or.reduce([mask for mask, _ in checks])
    if failing.any():
        i = int(failing.argmax())
        message = next(message for mask, message in checks if mask[i])
        raise DataError(f"{path}: line {lines[i]}: {message(i)}")
    kpi = [None if empty[:, j].all() else kpis[order, j] for j in range(3)]
    return PairTable(
        nace=tuple(nace[order].tolist()),
        location=tuple(location[order].tolist()),
        n_k=n_k[order],
        profiles=profiles[order],
        avg_contracted=values[order, 0],
        avg_demand=values[order, 1],
        d_k=kpi[0],
        e_k=kpi[1],
        E_k=kpi[2],
        member_rows=None if dataset is None else groups.members(group[order]),
        dataset=dataset,
    )


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
