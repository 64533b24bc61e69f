"""Naive-oracle and validation checks for the hot-loop kernels."""

import math
import tracemalloc

import numpy as np
import pytest

from retail_profiler import kernels
from retail_profiler.simulate import AcquisitionSequence, accumulate_curve
from retail_profiler.targets import flat_target
from tests.conftest import dataset_from_strings


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


def naive_rmsd(raw, target):
    out = []
    for row in raw:
        mean = sum(row) / len(row)
        out.append(math.sqrt(sum((v / mean - g) ** 2 for v, g in zip(row, target)) / len(row)))
    return np.array(out)


@pytest.fixture(scope="module")
def sample():
    rng = np.random.default_rng(11)
    raw = rng.uniform(0.1, 100.0, size=(300, 12))
    target = rng.uniform(0.5, 1.5, 12)
    target /= target.mean()
    return np.ascontiguousarray(raw), np.ascontiguousarray(target)


@pytest.fixture(scope="module")
def shuffled_rows(sample):
    """Every row once in a shuffled order, then some rows again."""
    raw, _ = sample
    rng = np.random.default_rng(14)
    return np.concatenate([rng.permutation(len(raw)), rng.integers(0, len(raw), 40)])


def every_row(raw):
    return np.arange(len(raw))


def test_accumulate_matches_naive_oracle(sample):
    raw, target = sample
    out = kernels.accumulate_distance_curve(raw, every_row(raw), target)
    assert np.allclose(out, naive_accumulate(raw.tolist(), target.tolist()), rtol=1e-12, atol=1e-14)


def test_rmsd_single_matches_naive_oracle(sample):
    raw, target = sample
    out = kernels.normalized_rmsd(raw, every_row(raw), target)
    assert np.allclose(out, naive_rmsd(raw.tolist(), target.tolist()), rtol=1e-12, atol=1e-14)


def test_rmsd_rows_matches_naive_oracle(sample, shuffled_rows):
    raw, target = sample
    out = kernels.normalized_rmsd(raw, shuffled_rows, target)
    expected = naive_rmsd(raw[shuffled_rows].tolist(), target.tolist())
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-14)


def test_numpy_accumulate_carries_across_chunks(sample, monkeypatch):
    raw, target = sample
    monkeypatch.setattr(kernels, "_CHUNK", 7)
    out = kernels.accumulate_distance_curve(raw, every_row(raw), target)
    assert np.allclose(out, naive_accumulate(raw.tolist(), target.tolist()), rtol=1e-12, atol=1e-14)


def test_accumulate_gathers_shuffled_rows_per_chunk(sample, shuffled_rows, monkeypatch):
    raw, target = sample
    monkeypatch.setattr(kernels, "_CHUNK", 7)
    out = kernels.accumulate_distance_curve(raw, shuffled_rows, target)
    expected = naive_accumulate(raw[shuffled_rows].tolist(), target.tolist())
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-14)


def test_rmsd_gathers_shuffled_rows_per_chunk(sample, shuffled_rows, monkeypatch):
    raw, target = sample
    monkeypatch.setattr(kernels, "_CHUNK", 7)
    out = kernels.normalized_rmsd(raw, shuffled_rows, target)
    expected = naive_rmsd(raw[shuffled_rows].tolist(), target.tolist())
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-14)


def test_gathered_rows_give_the_bytes_of_a_copy(sample, shuffled_rows, monkeypatch):
    raw, target = sample
    monkeypatch.setattr(kernels, "_CHUNK", 7)
    copy = raw[shuffled_rows]
    for kernel in (kernels.accumulate_distance_curve, kernels.normalized_rmsd):
        assert kernel(raw, shuffled_rows, target).tobytes() == kernel(copy, every_row(copy), target).tobytes()


@pytest.mark.parametrize("cuts", [(), (7,), (14, 35), (7, 14, 21, 322)], ids=["whole", "one-cut", "two-cuts", "to-the-end"])
def test_accumulate_in_pieces_with_carry_gives_the_bytes_of_one_call(sample, shuffled_rows, monkeypatch, cuts):
    raw, target = sample
    monkeypatch.setattr(kernels, "_CHUNK", 7)
    whole = kernels.accumulate_distance_curve(raw, shuffled_rows, target)
    carry = np.zeros(12)
    bounds = (0, *cuts, shuffled_rows.size)
    pieces = [
        kernels.accumulate_distance_curve(raw, shuffled_rows[lo:hi], target, carry, lo)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    assert np.array_equal(np.concatenate(pieces), whole)
    # the carry is left holding the running sum after the last row, summed chunk by chunk
    running = np.zeros(12)
    for lo in range(0, shuffled_rows.size, 7):
        running = raw[shuffled_rows[lo:lo + 7]].cumsum(axis=0)[-1] + running
    assert np.array_equal(carry, running)


def test_overflow_in_a_later_piece_reports_the_step_in_the_whole_sequence(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK", 7)
    raw = np.full((30, 12), 1.0)
    raw[18:] = 8e306  # a row sums to ~1e308, so the running total first overflows at step 20
    rows = every_row(raw)
    with pytest.raises(OverflowError, match="at step 20$"):
        kernels.accumulate_distance_curve(raw, rows, np.ones(12))
    carry = np.zeros(12)
    kernels.accumulate_distance_curve(raw, rows[:14], np.ones(12), carry, 0)
    with pytest.raises(OverflowError, match="at step 20$"):
        kernels.accumulate_distance_curve(raw, rows[14:], np.ones(12), carry, 14)


@pytest.mark.parametrize("kernel", [kernels.accumulate_distance_curve, kernels.normalized_rmsd])
def test_zero_row_in_a_later_chunk_rejected(sample, monkeypatch, kernel):
    raw, target = sample
    raw = raw.copy()
    raw[20] = 0.0
    monkeypatch.setattr(kernels, "_CHUNK", 7)
    with pytest.raises(ValueError, match="every row must have positive total demand"):
        kernel(raw, every_row(raw), target)


def test_accumulate_curve_holds_no_copy_of_the_sequence_rows():
    n = 200_000
    rng = np.random.default_rng(15)
    dataset = dataset_from_strings(
        ids=tuple(map(str, range(n))),
        nace=("X",) * n,
        location=("L",) * n,
        contracted_kw=np.ones(n),
        raw_demand=rng.uniform(0.5, 2.0, size=(n, 12)),
    )
    seq = AcquisitionSequence(rows=rng.permutation(n), dataset=dataset, strategy="random", seed=15)
    target = flat_target()
    accumulate_curve(seq, target)  # warm the dataset's cached masks
    tracemalloc.start()
    try:
        accumulate_curve(seq, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dataset.raw_demand[seq.rows].nbytes


class TestDispatch:
    def test_backend_reported(self):
        assert kernels.BACKEND == "numpy"

    def test_accumulate_wrapper_validates_zero_rows(self):
        raw = np.ones((3, 12))
        raw[1] = 0.0
        with pytest.raises(ValueError, match="positive total demand"):
            kernels.accumulate_distance_curve(raw, every_row(raw), np.ones(12))

    def test_wrapper_shape_errors(self):
        with pytest.raises(ValueError):
            kernels.accumulate_distance_curve(np.ones((3, 12)), every_row(range(3)), np.ones(11))
        with pytest.raises(ValueError):
            kernels.normalized_rmsd(np.ones((3, 12)), every_row(range(3)), np.ones((4, 12)))

    @pytest.mark.parametrize("rows", [[0, -1], [0, 3]], ids=["negative", "past-the-end"])
    def test_out_of_range_rows_rejected(self, rows):
        for kernel in (kernels.accumulate_distance_curve, kernels.normalized_rmsd):
            with pytest.raises(IndexError, match=r"row indices must lie in 0\.\.2"):
                kernel(np.ones((3, 12)), rows, np.ones(12))

    def test_empty_input(self):
        out = kernels.accumulate_distance_curve(np.empty((0, 12)), every_row(()), np.ones(12))
        assert out.size == 0

    def test_subnormal_mean_rows_score_like_their_scaled_copy(self, sample):
        raw, target = sample
        tiny = raw[:4].copy()
        tiny[:, :11] = 0.0
        tiny[:, 11] = [5e-324, 1e-320, 2.2250738585e-313, 1e-309]
        tiny[2, 10] = 1e-313
        scaled = np.ldexp(tiny, 600)
        rows = np.vstack([tiny, raw[4:8]])
        everything = every_row(rows)
        assert np.array_equal(
            kernels.normalized_rmsd(rows, everything[:4], target),
            kernels.normalized_rmsd(scaled, every_row(scaled), target),
        )
        # the other rows keep their bytes
        assert np.array_equal(
            kernels.normalized_rmsd(rows, everything[4:], target),
            kernels.normalized_rmsd(raw, np.arange(4, 8), target),
        )
        # a subnormal row first in the sequence gives a finite first step
        curve = kernels.accumulate_distance_curve(rows, everything, target)
        assert curve[0] == kernels.normalized_rmsd(scaled, [0], target)[0]
        assert np.all(np.isfinite(curve))
