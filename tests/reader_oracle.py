"""The row-by-row CSV readers the package used before its readers shared one checker.

They read every file with ``csv.reader``, one row at a time, and stay here as
the referee that ``tests/test_readers.py`` holds ``load_customers`` and
``read_pair_table`` to: same columns, same diagnostics, same errors. They
read ``_BLOCK`` from this module, so a test can shrink their blocks too.
Their pair tables join and order the keys as strings, and only encode them
as codes at the end, into the vocabularies the package's tables carry.
"""

from __future__ import annotations

import csv
import math
from itertools import repeat
from pathlib import Path

import numpy as np

from retail_profiler.model import (
    CUSTOMER_CSV_HEADER,
    MEAN_TOLERANCE,
    MONTHS,
    CustomerDataset,
    DataError,
    DuplicateIdError,
    SchemaError,
)
from retail_profiler.pairing import MAX_PAIR_SIZE, PAIR_TABLE_HEADER, PairTable
from retail_profiler.synth import PairKey
from tests.conftest import dataset_from_strings

_BLOCK = 4096


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
    dataset = dataset_from_strings(
        ids=tuple(ids),
        nace=tuple(naces),
        location=tuple(locations),
        contracted_kw=np.array(contracted, dtype=np.float64),
        raw_demand=np.array(demands, dtype=np.float64).reshape(n, MONTHS),
        diagnostics=tuple(diagnostics),
    )
    return dataset


def _read_pair_rows(path: Path, dataset: CustomerDataset | None) -> PairTable:
    """Read a pair table row by row; this reads every file the bulk path does not.

    Blocks of ``_BLOCK`` rows are parsed into float64 arrays. The rows before
    a malformed row are checked first, so the error raised is that of the
    first failing line.
    """
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
        except OverflowError:  # a well-formed n_k past int64 is out of its bounds
            size = int(row[2])
            bound = ">= 1" if size < 1 else f"<= {MAX_PAIR_SIZE}"
            error = DataError(f"{path}: line {lines[i]}: n_k must be {bound}, got {size}")
            n = i
            break
        except ValueError as exc:
            error = DataError(f"{path}: line {lines[i]}: malformed numeric field ({exc})")
            n = i
            break
    nace = np.array([row[0].strip() for row in rows[:n]], dtype=object)
    location = np.array([row[1].strip() for row in rows[:n]], dtype=object)
    blocks.append((np.array(lines[:n], dtype=np.int64), nace, location, n_k[:n], values[:n], empty[:n]))
    return error


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


def _encoded(column, vocabulary: tuple[str, ...]) -> np.ndarray:
    """The codes of a string column in a sorted vocabulary."""
    index = {value: code for code, value in enumerate(vocabulary)}
    return np.array([index[value] for value in column], dtype=np.intp)


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
        means = profiles.mean(axis=1)
    off_mean = finite & (np.abs(means - 1.0) > MEAN_TOLERANCE)
    # (failing rows, message of row i), in the order the checks apply to one line
    checks = [
        ((nace == "") | (location == ""), lambda i: f"pair {key(i)} has an empty nace or location"),
        (~finite, lambda i: "normalized profile contains non-finite values"),
        (off_mean, lambda i: f"normalized profile must have unit mean, got {float(means[i])!r}"),
    ]
    if dataset is not None:
        groups = dataset.pair_groups
        keys = zip(map(groups.naces.__getitem__, groups.nace), map(groups.locations.__getitem__, groups.location))
        index = {k: g for g, k in enumerate(keys)}
        group = np.fromiter(map(index.get, zip(nace, location), repeat(-1)), dtype=np.intp, count=n_k.size)
        sizes = np.append(np.diff(groups.offsets), 0)[group]  # an unknown pair reads the 0
        checks.append((group < 0, lambda i: f"pair {key(i)} not present in the customer data"))
        checks.append((
            (group >= 0) & (sizes != n_k),
            lambda i: f"pair {key(i)} has {sizes[i]} customers in the data, but the table says n_k={n_k[i]}",
        ))
    checks.append((n_k < 1, lambda i: f"n_k must be >= 1, got {n_k[i]}"))
    checks.append((n_k > MAX_PAIR_SIZE, lambda i: f"n_k must be <= {MAX_PAIR_SIZE}, got {n_k[i]}"))
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
    if dataset is None:
        naces, locations = tuple(sorted(set(nace))), tuple(sorted(set(location)))
    else:
        naces, locations = groups.naces, groups.locations
    return PairTable(
        nace=_encoded(nace[order], naces),
        location=_encoded(location[order], locations),
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
