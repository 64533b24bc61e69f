"""Pure-numpy fallback for the compiled kernels.

Mirrors the signatures of ``retail_profiler._kernels``. Work is chunked so the
running-sum curve stays O(chunk) in memory for arbitrarily long sequences.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 15


def accumulate_distance_curve(raw: np.ndarray, target: np.ndarray, out: np.ndarray) -> None:
    n, m = raw.shape
    carry = np.zeros(m, dtype=np.float64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        sums = np.cumsum(raw[lo:hi], axis=0)
        sums += carry
        carry = sums[-1].copy()
        # the rest works in place on the chunk buffer: no chunk-sized temporaries
        sums /= sums.mean(axis=1)[:, None]
        sums -= target
        np.square(sums, out=sums)
        np.sqrt(sums.mean(axis=1), out=out[lo:hi])


def normalized_rmsd_single(raw: np.ndarray, target: np.ndarray, out: np.ndarray) -> None:
    n, m = raw.shape
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        block = raw[lo:hi]
        means = block.mean(axis=1)
        np.sqrt(np.mean((block / means[:, None] - target) ** 2, axis=1), out=out[lo:hi])


def normalized_rmsd_rows(raw: np.ndarray, targets: np.ndarray, out: np.ndarray) -> None:
    n, m = raw.shape
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        block = raw[lo:hi]
        means = block.mean(axis=1)
        np.sqrt(
            np.mean((block / means[:, None] - targets[lo:hi]) ** 2, axis=1), out=out[lo:hi]
        )
