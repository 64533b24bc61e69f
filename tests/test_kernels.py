"""Naive-oracle and validation checks for the hot-loop kernels."""

import math

import numpy as np
import pytest

from retail_profiler import kernels


def naive_accumulate(raw, target):
    """Independent oracle: re-sum and renormalize from scratch at every step."""
    out = []
    for i in range(len(raw)):
        total = [sum(raw[r][j] for r in range(i + 1)) for j in range(len(target))]
        mean = sum(total) / len(total)
        out.append(
            math.sqrt(sum((t / mean - g) ** 2 for t, g in zip(total, target)) / len(target))
        )
    return np.array(out)


def naive_rmsd(raw, targets):
    out = []
    for row, goal in zip(raw, targets):
        mean = sum(row) / len(row)
        out.append(math.sqrt(sum((v / mean - g) ** 2 for v, g in zip(row, goal)) / len(row)))
    return np.array(out)


@pytest.fixture(scope="module")
def sample():
    rng = np.random.default_rng(11)
    raw = rng.uniform(0.1, 100.0, size=(300, 12))
    target = rng.uniform(0.5, 1.5, 12)
    target /= target.mean()
    return np.ascontiguousarray(raw), np.ascontiguousarray(target)


def test_accumulate_matches_naive_oracle(sample):
    raw, target = sample
    out = kernels.accumulate_distance_curve(raw, target)
    assert np.allclose(out, naive_accumulate(raw.tolist(), target.tolist()), rtol=1e-12, atol=1e-14)


def test_rmsd_single_matches_naive_oracle(sample):
    raw, target = sample
    out = kernels.normalized_rmsd(raw, target)
    expected = naive_rmsd(raw.tolist(), [target.tolist()] * len(raw))
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-14)


def test_rmsd_rows_matches_naive_oracle(sample):
    raw, target = sample
    rng = np.random.default_rng(12)
    targets = np.ascontiguousarray(rng.uniform(0.5, 1.5, size=raw.shape))
    out = kernels.normalized_rmsd(raw, targets)
    assert np.allclose(out, naive_rmsd(raw.tolist(), targets.tolist()), rtol=1e-12, atol=1e-14)


def test_numpy_accumulate_carries_across_chunks(sample, monkeypatch):
    raw, target = sample
    monkeypatch.setattr(kernels, "_CHUNK", 7)
    out = kernels.accumulate_distance_curve(raw, target)
    assert np.allclose(out, naive_accumulate(raw.tolist(), target.tolist()), rtol=1e-12, atol=1e-14)


def test_rmsd_rows_slices_targets_per_chunk(sample, monkeypatch):
    raw, _ = sample
    rng = np.random.default_rng(13)
    targets = np.ascontiguousarray(rng.uniform(0.5, 1.5, size=raw.shape))
    monkeypatch.setattr(kernels, "_CHUNK", 7)
    out = kernels.normalized_rmsd(raw, targets)
    assert np.allclose(out, naive_rmsd(raw.tolist(), targets.tolist()), rtol=1e-12, atol=1e-14)


class TestDispatch:
    def test_backend_reported(self):
        assert kernels.BACKEND == "numpy"

    def test_accumulate_wrapper_validates_zero_rows(self):
        raw = np.ones((3, 12))
        raw[1] = 0.0
        with pytest.raises(ValueError, match="positive total demand"):
            kernels.accumulate_distance_curve(raw, np.ones(12))

    def test_wrapper_shape_errors(self):
        with pytest.raises(ValueError):
            kernels.accumulate_distance_curve(np.ones((3, 12)), np.ones(11))
        with pytest.raises(ValueError):
            kernels.normalized_rmsd(np.ones((3, 12)), np.ones((4, 12)))

    def test_rmsd_single_and_rows_consistent(self):
        rng = np.random.default_rng(4)
        raw = rng.uniform(0.5, 10, size=(50, 12))
        target = rng.uniform(0.5, 1.5, 12)
        single = kernels.normalized_rmsd(raw, target)
        rows = kernels.normalized_rmsd(raw, np.tile(target, (50, 1)))
        assert np.allclose(single, rows, rtol=1e-15, atol=0)

    def test_empty_input(self):
        out = kernels.accumulate_distance_curve(np.empty((0, 12)), np.ones(12))
        assert out.size == 0

    def test_subnormal_mean_rows_score_like_their_scaled_copy(self, sample):
        raw, target = sample
        tiny = raw[:4].copy()
        tiny[:, :11] = 0.0
        tiny[:, 11] = [5e-324, 1e-320, 2.2250738585e-313, 1e-309]
        tiny[2, 10] = 1e-313
        scaled = np.ldexp(tiny, 600)
        rows = np.vstack([tiny, raw[4:8]])
        assert np.array_equal(
            kernels.normalized_rmsd(rows, target)[:4], kernels.normalized_rmsd(scaled, target)
        )
        # the other rows keep their bytes
        assert np.array_equal(
            kernels.normalized_rmsd(rows, target)[4:], kernels.normalized_rmsd(raw[4:8], target)
        )
        # a subnormal row first in the sequence gives a finite first step
        curve = kernels.accumulate_distance_curve(rows, target)
        assert curve[0] == kernels.normalized_rmsd(scaled[:1], target)[0]
        assert np.all(np.isfinite(curve))
