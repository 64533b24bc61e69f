"""Chunked numpy kernels for the two hot loops, with input validation.

``accumulate_distance_curve`` walks an acquisition sequence keeping a running
monthly sum; ``normalized_rmsd`` scores each row's unit-mean shape against a
target. Both take the demand matrix and the indices of the rows to visit, and
gather one chunk of those rows at a time into a reused buffer, so memory
stays O(chunk) for arbitrarily many rows.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_CHUNK = 1 << 15

_TINY = np.finfo(np.float64).tiny
_RESCALE = 600  # 2**600 lifts any subnormal into the normal range, exactly


def _chunks(raw: np.ndarray, rows, target: np.ndarray):
    """Yield ``(lo, hi, raw[rows[lo:hi]])`` for each chunk of ``rows``.

    Every chunk is gathered into the same buffer, so a chunk is valid only
    until the next one is yielded. Raises ValueError when the target does not
    fit the row width or a gathered row has no positive total demand, and
    IndexError when a row index is out of range.
    """
    if target.shape != (raw.shape[1],):
        raise ValueError("target length does not match the row width")
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size and (rows.min() < 0 or rows.max() >= len(raw)):
        raise IndexError(f"row indices must lie in 0..{len(raw) - 1}")
    buffer = np.empty((min(rows.size, _CHUNK), raw.shape[1]))
    for lo in range(0, rows.size, _CHUNK):
        hi = min(lo + _CHUNK, rows.size)
        # the indices are checked above, so "clip" clips nothing; unlike the
        # default "raise", it writes straight into the buffer
        block = np.take(raw, rows[lo:hi], axis=0, out=buffer[: hi - lo], mode="clip")
        if not np.all(block.sum(axis=1) > 0.0):
            raise ValueError("every row must have positive total demand")
        yield lo, hi, block


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


def accumulate_distance_curve(raw, rows, target, carry=None, start=0) -> np.ndarray:
    """Distance of the running (normalized) row sum to ``target`` after each row.

    ``raw[rows[i]]`` is appended to a running monthly sum at step i; the sum
    is normalized to unit mean and its RMSD to the target recorded. Every
    prefix must have positive total demand, which holds whenever each row
    does. Raises OverflowError when the running total leaves the float64 range.

    A sequence may be walked in pieces: ``carry``, when given, is read as the
    running sum before ``rows[0]`` and overwritten with the sum after the last
    row, and ``start`` is the number of steps before ``rows[0]``, from which
    an overflow's step is counted. Pieces that start at multiples of
    ``_CHUNK`` give the bits of one call, as the sum restarts at every chunk.
    """
    t = np.asarray(target, dtype=np.float64)
    out = np.empty(len(rows), dtype=np.float64)
    if carry is None:
        carry = np.zeros(t.size, dtype=np.float64)
    for lo, hi, block in _chunks(raw, rows, t):
        # the rest works in place on the chunk buffer: no chunk-sized temporaries
        with np.errstate(over="ignore"):  # an overflow shows as a non-finite mean
            sums = np.cumsum(block, axis=0, out=block)
            sums += carry
            carry[:] = sums[-1]
            means = sums.mean(axis=1)
        finite = np.isfinite(means)
        if not finite.all():
            step = start + lo + int(finite.argmin()) + 1
            raise OverflowError(f"running demand sum overflows float64 at step {step}")
        unit_mean_rows(sums, means, out=sums)
        sums -= t
        np.square(sums, out=sums)
        np.sqrt(sums.mean(axis=1), out=out[lo:hi])
    return out


def normalized_rmsd(raw, rows, target) -> np.ndarray:
    """RMSD of the unit-mean shape of each row ``raw[rows[i]]`` to a target."""
    t = np.asarray(target, dtype=np.float64)
    out = np.empty(len(rows), dtype=np.float64)
    for lo, hi, block in _chunks(raw, rows, t):
        np.sqrt(np.mean((unit_mean_rows(block) - t) ** 2, axis=1), out=out[lo:hi])
    return out
