"""Target-profile construction: flat, solar-shaped, and complement-of-aggregate.

All constructors return unit-mean :class:`TargetProfile` objects, normalized
by ``kernels.unit_mean_rows`` as customer shapes are. Per-group targets are
expressed through a resolver callable (location -> target), so a single global
target and a per-province solar table use the same downstream machinery; it is
called once per distinct location of the pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from retail_profiler import kernels
from retail_profiler.model import (
    MONTH_COLUMNS,
    MONTHS,
    DataError,
    SchemaError,
    TargetProfile,
    _csv_rows,
)

TargetResolver = Callable[[str], TargetProfile]

SOLAR_TABLE_HEADER = ("province",) + MONTH_COLUMNS

DEFAULT_SOLAR_AMPLITUDE = 0.35
DEFAULT_SOLAR_PEAK_MONTH = 7


class NegativeTargetWarning(UserWarning):
    """A complement target dipped below zero in at least one month."""


@dataclass(frozen=True, eq=False)
class AggregateDemand:
    """A 12-month aggregate demand series (energy units, not normalized)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.shape != (MONTHS,):
            raise ValueError(f"aggregate demand must have {MONTHS} values, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("aggregate demand values must be finite and >= 0")
        with np.errstate(over="ignore"):
            if not np.isfinite(arr.sum()):
                raise ValueError("aggregate demand values sum past the float64 range")
        if not np.any(arr > 0):
            raise DataError("aggregate demand is all zero; its mean must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def mean(self) -> float:
        """Mean monthly demand over the year."""
        return float(self.values.mean())


def flat_target() -> TargetProfile:
    """Constant demand: the same value in every month."""
    return TargetProfile(np.ones(MONTHS))


def solar_target(province: str, table: Mapping[str, TargetProfile]) -> TargetProfile:
    """The province's profile in a table :func:`load_solar_table` read."""
    try:
        return table[province]
    except KeyError:
        raise DataError(f"unknown province code: {province!r}") from None


def complement_target(m: AggregateDemand) -> TargetProfile:
    """Demand shape that flattens the given aggregate when added to it.

    Each month is inverted with respect to the aggregate's mean:
    g_j = 2 - m_j / mean(m). Months where m_j exceeds twice the mean come out
    negative; they are kept (no clamping) and reported via a warning.
    """
    g = 2.0 - kernels.unit_mean_rows(m.values[None])[0]
    negative = np.flatnonzero(g < 0)
    if negative.size:
        months = ", ".join(str(int(j) + 1) for j in negative)
        warnings.warn(
            f"complement target is negative in month(s) {months}; values kept unclamped",
            NegativeTargetWarning,
            stacklevel=2,
        )
    return TargetProfile(g)


def custom_target(values) -> TargetProfile:
    """Arbitrary user-supplied 12-month shape, renormalized to unit mean."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (MONTHS,):
        raise ValueError(f"custom target must have {MONTHS} values, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("custom target contains non-finite values")
    with np.errstate(over="ignore"):
        total = arr.sum()
    if not np.isfinite(total):
        raise ValueError("custom target values sum past the float64 range")
    if total <= 0:
        raise DataError("custom target must have a positive mean")
    # a sum cancelled to a subnormal can rescale months past float64; TargetProfile rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        return TargetProfile(kernels.unit_mean_rows(arr[None])[0])


def default_solar_row(amplitude: float = DEFAULT_SOLAR_AMPLITUDE) -> np.ndarray:
    """Built-in summer-peaked sinusoid: 1 + A*cos(2*pi*(j - 7)/12), unit mean.

    Stands in for licensed radiation atlases; amplitude must lie in (0, 1) so
    the profile stays positive.
    """
    if not 0.0 < amplitude < 1.0:
        raise ValueError(f"solar amplitude must be in (0, 1), got {amplitude}")
    months = np.arange(1, MONTHS + 1, dtype=np.float64)
    return 1.0 + amplitude * np.cos(2.0 * math.pi * (months - DEFAULT_SOLAR_PEAK_MONTH) / MONTHS)


def default_solar_target(amplitude: float = DEFAULT_SOLAR_AMPLITUDE) -> TargetProfile:
    return TargetProfile(kernels.unit_mean_rows(default_solar_row(amplitude)[None])[0])


def constant_resolver(target: TargetProfile) -> TargetResolver:
    """Resolver assigning the same target to every location."""

    def resolve(location: str) -> TargetProfile:
        return target

    return resolve


def solar_resolver(table: Mapping[str, TargetProfile], province_of: Callable[[str], str]) -> TargetResolver:
    """Resolver mapping a location to its province's solar target.

    ``province_of`` maps a location code to a province code, raising KeyError
    for an unmapped one, which the resolver reports as a DataError.
    """

    def resolve(location: str) -> TargetProfile:
        try:
            province = province_of(location)
        except KeyError:
            raise DataError(f"location {location!r} has no province mapping") from None
        return solar_target(province, table)

    return resolve


def load_solar_table(path) -> dict[str, TargetProfile]:
    """Each province's unit-mean profile in a solar table CSV (province,m01..m12, positive decimals)."""
    path = Path(path)
    rows: dict[str, TargetProfile] = {}
    for line, row in _csv_rows(path, SOLAR_TABLE_HEADER):
        if len(row) != len(SOLAR_TABLE_HEADER):
            raise SchemaError(f"{path}: line {line}: expected {len(SOLAR_TABLE_HEADER)} fields")
        province = row[0].strip()
        if province in rows:
            raise DataError(f"{path}: line {line}: duplicate province {province!r}")
        try:
            values = np.array([float(cell) for cell in row[1:]])
        except ValueError as exc:
            raise DataError(f"{path}: line {line}: malformed numeric field ({exc})") from None
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise DataError(f"{path}: solar row for {province!r} must be finite and positive")
        with np.errstate(over="ignore"):
            if not np.isfinite(values.sum()):
                raise DataError(f"{path}: solar row for {province!r} sums past the float64 range")
        rows[province] = TargetProfile(kernels.unit_mean_rows(values[None])[0])
    if not rows:
        raise DataError(f"{path}: solar table has no rows")
    return rows


def load_aggregate_demand(path) -> AggregateDemand:
    """Read an aggregate-demand CSV: one or more 12-value rows, averaged month-wise.

    A non-numeric first row is treated as a header and skipped.
    """
    path = Path(path)
    rows: list[list[float]] = []
    for line, row in _csv_rows(path, None):
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            if not rows and line <= 1:
                continue  # header row
            raise DataError(f"{path}: line {line}: malformed numeric field") from None
        if len(values) != MONTHS:
            raise DataError(f"{path}: line {line}: expected {MONTHS} values, got {len(values)}")
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: aggregate demand file has no data rows")
    try:
        return AggregateDemand(np.asarray(rows, dtype=np.float64).mean(axis=0))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
