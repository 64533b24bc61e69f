"""Pair table construction, per-pair KPIs, identification statistics, matrices.

Customers sharing one (nace, location) key form a pair: the unit of both
marketing targeting and indirect identification. A pair's distance KPI is the
median of its members' individual distances, which is deliberately not the
distance of the pair's averaged profile (the two differ in general).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from retail_profiler import kernels
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
    SchemaError,
    _blocks,
    _csv_rows,
    _KeyCodes,
    decode,
    encode,
    pair_codes,
    write_csv,
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

# The largest pair a pair table may list: `stats` writes one row per size up to it.
MAX_PAIR_SIZE = 10**6

MATRIX_CSV_HEADER = ("province", "division", "customers", "E")

LOCATION_MAP_HEADER = ("location", "province")
NACE_MAP_HEADER = ("nace", "division")


@dataclass(frozen=True, eq=False)
class PairTable:
    """Immutable pair table held as columns, one entry per pair in (nace, location) order.

    Pair p is ``(naces[nace[p]], locations[location[p]])``: its key columns
    are codes into the sorted vocabularies ``naces`` and ``locations``, those
    of ``dataset`` for a table built or read with one. ``profiles`` is the
    read-only ``k x 12`` matrix of pair profiles. The KPI columns ``d_k``,
    ``e_k`` and ``E_k`` are None until :func:`attach_kpis` runs, which also
    records the reference distance ``d_star`` they were computed against; a
    table read from CSV holds NaN for an empty KPI cell and no ``d_star``.
    Pair p's members are rows of ``dataset`` in customer-id order,
    concatenated pair after pair in ``member_rows`` (see :attr:`groups`);
    ``member_rows`` is None for a table loaded without customer data.
    """

    nace: np.ndarray
    location: np.ndarray
    naces: tuple[str, ...]
    locations: tuple[str, ...]
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

    def __post_init__(self):
        for column in (self.nace, self.location, self.n_k, self.profiles, self.avg_contracted,
                       self.avg_demand, self.d_k, self.e_k, self.E_k, self.member_rows):
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
        return PairGroups(self.nace, self.location, self.naces, self.locations, offsets, self.member_rows)

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
    raw = dataset.raw_demand[groups.rows]  # a copy, so the shapes can overwrite it
    member_means = raw.mean(axis=1)
    shapes = kernels.unit_mean_rows(raw, member_means, out=raw)
    profiles = np.add.reduceat(shapes, starts, axis=0) / counts[:, None]
    kernels.unit_mean_rows(profiles, out=profiles)
    return PairTable(
        nace=groups.nace,
        location=groups.location,
        naces=groups.naces,
        locations=groups.locations,
        n_k=counts,
        profiles=profiles,
        avg_contracted=_pair_means(dataset.contracted_kw[groups.rows], starts, counts),
        avg_demand=_pair_means(member_means, starts, counts),
        member_rows=groups.rows,
        dataset=dataset,
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

    def ratio_table(self) -> tuple[np.ndarray, ...]:
        """Per size 1..max, as columns: the size, its pairs, pairs up to it, their share, their customers."""
        size = np.arange(1, self.max_size + 1)
        pairs = np.zeros(size.size + 1, dtype=np.int64)
        pairs[list(self.pair_cardinality_histogram)] = list(self.pair_cardinality_histogram.values())
        pairs = pairs[1:]
        pairs_leq = np.cumsum(pairs)
        return size, pairs, pairs_leq, pairs_leq / self.nonempty_pair_count, np.cumsum(size * pairs)


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
        total_pair_space=np.unique(table.nace).size * np.unique(table.location).size,
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
    provinces, province = _mapped(province_of, table.locations)
    divisions, division = _mapped(division_of, table.naces)
    province, division = province[table.location], division[table.nace]
    diagnostics = [
        f"location {table.locations[table.location[p]]!r} has no province mapping; pair excluded"
        if province[p] < 0
        else f"nace {table.naces[table.nace[p]]!r} has no division mapping; pair excluded"
        for p in np.flatnonzero((province < 0) | (division < 0)).tolist()
    ]

    # pool each mapped pair's member distances into its (province, division) cell;
    # the grid lists only the provinces and divisions of mapped pairs
    mapped = (province >= 0) & (division >= 0)
    rows, row = np.unique(province[mapped], return_inverse=True)
    columns, column = np.unique(division[mapped], return_inverse=True)
    cells, cell = np.unique(row * columns.size + column, return_inverse=True)  # in the flattened grid
    member_cell = np.repeat(cell, table.n_k[mapped])
    medians = _medians(distances[np.repeat(mapped, table.n_k)], member_cell, cells.size)
    values = np.full((rows.size, columns.size), np.nan)
    counts = np.zeros((rows.size, columns.size), dtype=np.int64)
    counts.flat[cells] = np.bincount(member_cell, minlength=cells.size)
    values.flat[cells] = [eid(1.0 - m / d_star) for m in medians.tolist()]
    values.setflags(write=False)
    counts.setflags(write=False)
    return IndicatorMatrix(
        provinces=tuple(map(provinces.__getitem__, rows.tolist())),
        divisions=tuple(map(divisions.__getitem__, columns.tolist())),
        values=values,
        counts=counts,
        diagnostics=tuple(diagnostics),
    )


# -- mappings ---------------------------------------------------------------


def _mapped(mapper: Callable[[str], str], vocabulary: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted values ``mapper`` gives the entries, and each entry's code among them (-1 for a KeyError)."""
    values = []
    for entry in vocabulary:
        try:
            values.append(mapper(entry))
        except KeyError:
            values.append(None)
    mapped = tuple(sorted(set(values) - {None}))
    return mapped, encode(values, mapped)


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
    """Read a two-column code mapping CSV with the given header; a code maps once, to a non-empty value."""
    path = Path(path)
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for line, row in _csv_rows(path, header):
        if len(row) != 2:
            raise SchemaError(f"{path}: line {line}: expected 2 fields")
        code, value = row[0].strip(), row[1].strip()
        if not code:
            raise DataError(f"{path}: line {line}: empty {header[0]}")
        if not value:
            raise DataError(f"{path}: line {line}: {header[0]} {code!r} maps to an empty {header[1]}")
        if code in mapping:
            raise DataError(f"{path}: line {line}: {header[0]} {code!r} duplicates line {first_line[code]}")
        mapping[code] = value
        first_line[code] = line
    return mapping


# -- CSV round trip ----------------------------------------------------------


def write_pair_table(table: PairTable, path) -> None:
    # an unset KPI column writes as empty cells, as does a NaN read back from one
    unset = [""] * len(table)
    write_csv(path, PAIR_TABLE_HEADER, [
        decode(table.naces, table.nace),
        decode(table.locations, table.location),
        table.n_k,
        table.avg_contracted,
        table.avg_demand,
        *(unset if column is None else column for column in (table.d_k, table.e_k, table.E_k)),
        *table.profiles.T,
    ])


def read_pair_table(path, dataset: CustomerDataset | None = None) -> PairTable:
    """Load a pair-table CSV, optionally re-joining member lists from a dataset.

    The CSV schema intentionally omits member ids; when a dataset is supplied
    the members are re-derived by grouping it on (nace, location) and checked
    against the stored cardinality. The rows are checked all at once, and the
    error raised is that of the first failing line. The table comes back in
    (nace, location) order.
    """
    path = Path(path)
    return _checked_table(path, _blocks(path, PAIR_TABLE_HEADER), dataset)


def _n_k_bound(n_k: int) -> str:
    """The message for an ``n_k`` outside ``1..MAX_PAIR_SIZE``."""
    return f"n_k must be >= 1, got {n_k}" if n_k < 1 else f"n_k must be <= {MAX_PAIR_SIZE}, got {n_k}"


def _checked_table(path: Path, blocks, dataset: CustomerDataset | None) -> PairTable:
    """The pair table of a tokenized file; raises a DataError for the first failing line.

    Blocks are read up to the first row with the wrong field count or a
    malformed number, and the rows before that row are checked first. An
    empty KPI cell parses as NaN.
    """
    columns = [(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
        np.empty((0, len(PAIR_TABLE_HEADER) - 3)), np.empty((0, 3), dtype=bool),
    )]
    nace_codes, location_codes = _KeyCodes(), _KeyCodes()
    error = None
    for lines, (nace, location, n_k_cells), values, errors in blocks:
        n = lines.size
        empty = np.zeros((n, 3), dtype=bool)
        try:
            n_k = np.fromiter(map(int, n_k_cells), dtype=np.int64, count=n)
        except (ValueError, OverflowError):
            n_k = np.empty(n, dtype=np.int64)
            errors = {i: errors.get(i) for i in range(n)}  # read every row alone
        for i, row in errors.items():  # in line order
            if row is not None and len(row) != len(PAIR_TABLE_HEADER):
                error = SchemaError(f"{path}: line {lines[i]}: expected {len(PAIR_TABLE_HEADER)} fields")
                break
            try:
                n_k[i] = int(n_k_cells[i])
                if row is not None:
                    empty[i] = [cell == "" for cell in row[5:8]]
                    values[i] = (
                        [float(row[3]), float(row[4])]
                        + [math.nan if cell == "" else float(cell) for cell in row[5:8]]
                        + [float(cell) for cell in row[8:]]
                    )
            except OverflowError:  # a well-formed n_k past int64
                error = DataError(f"{path}: line {lines[i]}: {_n_k_bound(int(n_k_cells[i]))}")
                break
            except ValueError as exc:
                error = DataError(f"{path}: line {lines[i]}: malformed numeric field ({exc})")
                break
        n = i if error is not None else n
        nace_codes.add(nace, slice(n))
        location_codes.add(location, slice(n))
        columns.append((lines[:n], n_k[:n], values[:n], empty[:n]))
        if error is not None:
            break
    lines, n_k, values, empty = map(np.concatenate, zip(*columns))
    del columns  # the blocks would double the table's numbers until it is returned
    kpis, profiles = values[:, 2:5], values[:, 5:]
    (naces, nace), (locations, location) = nace_codes.column(), location_codes.column()
    codes = pair_codes(nace, location, locations)
    order = np.argsort(codes, kind="stable")
    # each later row of a repeated key points at the row before it
    repeated = np.diff(codes[order]) == 0
    earlier = np.full(n_k.size, -1, dtype=np.intp)
    earlier[order[1:][repeated]] = order[:-1][repeated]

    def key(i: int) -> str:
        return f"PairKey(nace={naces[nace[i]]!r}, location={locations[location[i]]!r})"

    finite = np.isfinite(profiles).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        means = profiles.mean(axis=1)
    off_mean = finite & (np.abs(means - 1.0) > MEAN_TOLERANCE)
    # (failing rows, message of row i), in the order the checks apply to one line
    blank = (nace == encode(("",), naces)[0]) | (location == encode(("",), locations)[0])
    checks = [
        (blank, lambda i: f"pair {key(i)} has an empty nace or location"),
        (~finite, lambda i: "normalized profile contains non-finite values"),
        (off_mean, lambda i: f"normalized profile must have unit mean, got {float(means[i])!r}"),
    ]
    if dataset is not None:
        groups = dataset.pair_groups
        # the rows' codes into the dataset's vocabularies, -1 for a string it lacks
        nace_in, location_in = encode(naces, groups.naces)[nace], encode(locations, groups.locations)[location]
        group_key = pair_codes(groups.nace, groups.location, groups.locations)
        row_key = pair_codes(nace_in, location_in, groups.locations)
        group = np.searchsorted(group_key, row_key)
        group[(nace_in < 0) | (location_in < 0) | (np.append(group_key, -1)[group] != row_key)] = -1
        sizes = np.append(np.diff(groups.offsets), 0)[group]  # an unknown pair reads the 0
        checks.append((group < 0, lambda i: f"pair {key(i)} not present in the customer data"))
        checks.append((
            (group >= 0) & (sizes != n_k),
            lambda i: f"pair {key(i)} has {sizes[i]} customers in the data, but the table says n_k={n_k[i]}",
        ))
    checks.append(((n_k < 1) | (n_k > MAX_PAIR_SIZE), lambda i: _n_k_bound(n_k[i])))
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
    if error is not None:
        raise error
    kpi = [None if empty[:, j].all() else kpis[order, j] for j in range(3)]
    if dataset is not None:  # every row found its group, so the table shares the dataset's vocabularies
        nace, location, naces, locations = nace_in, location_in, groups.naces, groups.locations
    return PairTable(
        nace=nace[order],
        location=location[order],
        naces=naces,
        locations=locations,
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
    write_csv(path, MATRIX_CSV_HEADER, [
        [province for province in matrix.provinces for _ in matrix.divisions],
        matrix.divisions * len(matrix.provinces),
        matrix.counts.ravel(),
        np.where(matrix.counts > 0, matrix.values, np.nan).ravel(),
    ])


def write_identification_stats(stats: IdentificationStats, path) -> None:
    write_csv(path, ("size", "pairs", "pairs_leq", "pairs_leq_ratio", "customers_leq"), stats.ratio_table())
