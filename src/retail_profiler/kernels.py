"""Chunked numpy kernels for the two hot loops, with input validation.

``accumulate_distance_curve`` walks an acquisition sequence keeping a running
monthly sum; ``normalized_rmsd`` scores each row's unit-mean shape against a
target. Work is chunked so memory stays O(chunk) for arbitrarily many rows.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_CHUNK = 1 << 15

_TINY = np.finfo(np.float64).tiny
_RESCALE = 600  # 2**600 lifts any subnormal into the normal range, exactly


def _as_rows(raw) -> np.ndarray:
    arr = np.ascontiguousarray(raw, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d (rows, months) array, got ndim={arr.ndim}")
    if arr.shape[0] and not np.all(arr.sum(axis=1) > 0.0):
        raise ValueError("every row must have positive total demand")
    return arr


def unit_mean_rows(
    rows: np.ndarray, means: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Each row of ``rows`` (positive sums) divided by its mean ``means``.

    A row whose mean is below the smallest normal float64 (a subnormal, or 0
    after rounding) is scaled by 2**600 first. The scaling is exact, so the
    row keeps its whole shape; every other row is divided as it stands.
    ``out`` may be ``rows`` itself.
    """
    if means is None:
        means = rows.mean(axis=1)
    small = np.flatnonzero(means < _TINY)
    if small.size:
        scaled = np.ldexp(rows[small], _RESCALE)
        means = means.copy()
        means[small] = scaled.mean(axis=1)
    out = np.divide(rows, means[:, None], out=out)
    if small.size:
        out[small] = scaled / means[small, None]
    return out


def accumulate_distance_curve(raw, target) -> np.ndarray:
    """Distance of the running (normalized) row sum to ``target`` after each row.

    ``raw[i]`` is appended to a running monthly sum at step i; the sum is
    normalized to unit mean and its RMSD to the target recorded. Every prefix
    must have positive total demand, which holds whenever each row does.
    Raises OverflowError when the running total leaves the float64 range.
    """
    arr = _as_rows(raw)
    t = np.ascontiguousarray(target, dtype=np.float64)
    if t.shape != (arr.shape[1],):
        raise ValueError("target length does not match the row width")
    n, m = arr.shape
    out = np.empty(n, dtype=np.float64)
    carry = np.zeros(m, dtype=np.float64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        with np.errstate(over="ignore"):  # an overflow shows as a non-finite mean
            sums = np.cumsum(arr[lo:hi], axis=0)
            sums += carry
            carry = sums[-1].copy()
            means = sums.mean(axis=1)
        finite = np.isfinite(means)
        if not finite.all():
            step = lo + int(finite.argmin()) + 1
            raise OverflowError(f"running demand sum overflows float64 at step {step}")
        # the rest works in place on the chunk buffer: no chunk-sized temporaries
        unit_mean_rows(sums, means, out=sums)
        sums -= t
        np.square(sums, out=sums)
        np.sqrt(sums.mean(axis=1), out=out[lo:hi])
    return out


def normalized_rmsd(raw, target) -> np.ndarray:
    """Per-row RMSD of the row's unit-mean shape to a target.

    ``target`` is either a single profile, shared by all rows, or one profile
    per row (same shape as ``raw``).
    """
    arr = _as_rows(raw)
    t = np.ascontiguousarray(target, dtype=np.float64)
    if t.ndim == 1:
        if t.shape != (arr.shape[1],):
            raise ValueError("target length does not match the row width")
    elif t.shape != arr.shape:
        raise ValueError(f"target shape {t.shape} matches neither a profile nor the rows")
    per_row = t.ndim == 2
    n = arr.shape[0]
    out = np.empty(n, dtype=np.float64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        block = arr[lo:hi]
        goal = t[lo:hi] if per_row else t
        np.sqrt(np.mean((unit_mean_rows(block) - goal) ** 2, axis=1), out=out[lo:hi])
    return out
