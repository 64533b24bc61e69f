"""Distances and enhancement KPIs.

The distance between two 12-month shapes is the root-mean-square of their
month-wise differences. Group distances use the median (not the mean) to keep
outlier consumptions from dominating. The enhancement metric of a distance d
against the dataset-wide reference d* is 1 - d/d*; the enhancement indicator
squashes it into (-1, 1] while leaving [0, 1] untouched.
"""

from __future__ import annotations

import math

import numpy as np

from retail_profiler import kernels
from retail_profiler.model import MONTHS, CustomerDataset, DataError

__all__ = [
    "DegenerateReferenceError",
    "profile_distance",
    "median_distance",
    "member_distances",
    "reference_distance",
    "global_distance",
    "eid",
    "eid_values",
    "reduction",
]


class DegenerateReferenceError(DataError):
    """The reference distance is zero: every customer already fits perfectly."""


def _values(profile) -> np.ndarray:
    arr = np.asarray(getattr(profile, "values", profile), dtype=np.float64)
    if arr.shape != (MONTHS,):
        raise ValueError(f"profile must have {MONTHS} values, got shape {arr.shape}")
    return arr


def profile_distance(profile, target) -> float:
    """Root-mean-square distance between two 12-month shapes."""
    delta = _values(profile) - _values(target)
    return math.sqrt(float(np.mean(delta * delta)))


def median_distance(distances) -> float:
    """Median of a non-empty collection of distances.

    Even counts take the arithmetic mean of the two middle values.
    """
    arr = np.asarray(distances, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("median_distance needs a non-empty 1-d collection")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("distances must be finite and >= 0")
    return float(np.median(arr))


def member_distances(dataset: CustomerDataset, resolver) -> np.ndarray:
    """Distance of each row's shape to its pair's target, one float64 per dataset row.

    Rows outside every pair (no key, or zero demand) hold NaN. The resolver
    is called once per distinct location of ``dataset.pair_groups``, in order
    of first appearance, and members sharing a target profile are batched
    into a single kernel pass, so the common single-target and per-province
    cases never materialize a per-customer target matrix.
    """
    groups = dataset.pair_groups
    locations, first = np.unique(groups.location, return_index=True)
    targets: dict[int, tuple[int, object]] = {}
    target_of = np.empty(len(groups.locations), dtype=np.intp)
    for location in locations[np.argsort(first)].tolist():
        target = resolver(groups.locations[location])
        # the dict keeps each target alive, so its id stays unique while grouping
        target_of[location] = targets.setdefault(id(target), (len(targets), target))[0]
    member_target = np.repeat(target_of[groups.location], np.diff(groups.offsets))
    by_target = groups.rows[np.argsort(member_target, kind="stable")]
    bounds = np.cumsum(np.bincount(member_target, minlength=len(targets)))[:-1]
    distances = np.full(len(dataset), np.nan)
    for (_, target), rows in zip(targets.values(), np.split(by_target, bounds)):
        distances[rows] = kernels.normalized_rmsd(dataset.raw_demand, rows, target.values)
    return distances


def reference_distance(dataset: CustomerDataset, distances: np.ndarray) -> float:
    """d*: the median of the :func:`member_distances` column over every pairable row."""
    pairable = distances[dataset.pairable_indices]
    if pairable.size == 0:
        raise DataError("no pairable customers with nonzero demand")
    return float(np.median(pairable))


def global_distance(dataset: CustomerDataset, resolver) -> float:
    """Median distance over the whole dataset: the reference d* of the null strategy.

    This is the expected distance when the next customer is picked uniformly
    at random, and the denominator of every enhancement metric.
    """
    return reference_distance(dataset, member_distances(dataset, resolver))


def eid(e: float) -> float:
    """Squash an enhancement metric into the indicator range (-1, 1].

    Identity on [0, 1]; clamps above 1; exp(e) - 1 below 0. Monotone and
    continuous, so rankings by metric and by indicator coincide. The lower
    bound is approached asymptotically; below about e = -37 the exp term
    underflows and the result rounds onto -1.0 in float64.
    """
    if not math.isfinite(e):
        raise ValueError(f"enhancement metric must be finite, got {e!r}")
    if e > 1.0:
        return 1.0
    if e >= 0.0:
        return e
    return math.exp(e) - 1.0


def eid_values(e) -> np.ndarray:
    """Vectorized :func:`eid`."""
    arr = np.asarray(e, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("enhancement metrics must be finite")
    return np.where(arr > 1.0, 1.0, np.where(arr >= 0.0, arr, np.exp(arr) - 1.0))


def reduction(d_r: float, d_m: float) -> float:
    """Relative reduction of the strategy distance d_m versus the baseline d_r."""
    if not (math.isfinite(d_r) and d_r >= 0):
        raise ValueError(f"baseline distance must be finite and >= 0, got {d_r!r}")
    if not (math.isfinite(d_m) and d_m >= 0):
        raise ValueError(f"strategy distance must be finite and >= 0, got {d_m!r}")
    if d_r == 0:
        raise DegenerateReferenceError("baseline distance is zero; reduction is undefined")
    return (d_r - d_m) / d_r
