"""Customer-acquisition simulation: sequences, distance curves, baselines.

A strategy produces an ordered sequence of customers. The simulator keeps a
running sum of raw monthly demands; after each acquisition the sum is
normalized to unit mean and its distance to the target recorded, so a whole
curve costs one pass regardless of length.

Randomness is explicit everywhere: sequences take a seed, and the baseline
derives one child seed per repetition from the master seed via a counter
(``SeedSequence([seed, repetition])``), so runs reproduce bit-for-bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from retail_profiler import kernels, metrics
from retail_profiler.model import CustomerDataset, DataError, TargetProfile, write_csv
from retail_profiler.pairing import PairTable

STRATEGY_LABELS = ("eid", "contracted", "demanded", "random")

# Columns per np.quantile call in baseline_band.
QUANTILE_BLOCK = 4096
# Most column blocks baseline_band takes its steps in.
BASELINE_PASSES = 4


@dataclass(frozen=True, eq=False)
class AcquisitionSequence:
    """Ordered dataset rows produced by one strategy run.

    ``rows`` is a read-only ``intp`` array of row indices into ``dataset``,
    the dataset the sequence was drawn from; customer ids are derived from it
    only when asked for. The constructor takes ownership of ``rows`` and marks
    it read-only. ``seed`` is whatever seeded the run: an int for direct
    calls, a derived ``SeedSequence`` for baseline repetitions.
    """

    rows: np.ndarray
    dataset: CustomerDataset
    strategy: str
    seed: object

    def __post_init__(self):
        if self.strategy not in STRATEGY_LABELS:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGY_LABELS}")
        rows = np.asarray(self.rows, dtype=np.intp)
        if rows.ndim != 1:
            raise ValueError(f"sequence rows must be 1-d, got ndim={rows.ndim}")
        if rows.size and (rows.min() < 0 or rows.max() >= len(self.dataset)):
            raise ValueError(f"sequence rows must lie in 0..{len(self.dataset) - 1}")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return self.rows.size

    @property
    def ids(self) -> tuple[str, ...]:
        """Customer ids in acquisition order."""
        ids = self.dataset.ids
        return tuple(ids[i] for i in self.rows.tolist())

    def prefix(self, n: int) -> "AcquisitionSequence":
        """The first n acquisitions of this run."""
        if n >= self.rows.size:
            return self
        return AcquisitionSequence(
            rows=self.rows[:n], dataset=self.dataset, strategy=self.strategy, seed=self.seed
        )


@dataclass(frozen=True, eq=False)
class DistanceCurve:
    """Aggregate-demand distance to the target after each acquisition step 1..n."""

    distance: np.ndarray
    strategy: str = "eid"

    def __post_init__(self):
        object.__setattr__(self, "distance", np.asarray(self.distance, dtype=np.float64))

    def at(self, n: int) -> float:
        i = int(n) - 1
        if not 0 <= i < len(self.distance):
            raise ValueError(f"step {n} outside curve range 1..{len(self.distance)}")
        return float(self.distance[i])


@dataclass(frozen=True, eq=False)
class BaselineCurve:
    """Median and interquartile band over repeated random runs, at steps 1..n."""

    median: np.ndarray
    q1: np.ndarray
    q3: np.ndarray
    repetitions: int

    def median_at(self, n: int) -> float:
        i = int(n) - 1
        if not 0 <= i < len(self.median):
            raise ValueError(f"step {n} outside curve range 1..{len(self.median)}")
        return float(self.median[i])


def _member_dataset(table: PairTable) -> CustomerDataset:
    """The dataset whose rows the table's member lists index, checked for KPIs."""
    if not len(table):
        raise DataError("pair table is empty")
    if not table.has_kpis:
        raise ValueError("pair table has no KPIs attached; run attach_kpis first")
    if table.dataset is None or table.member_rows is None:
        raise ValueError("pair table lacks member lists; reload it together with the customer data")
    return table.dataset


def _pair_ordered_sequence(
    table: PairTable, power: np.ndarray, strategy: str, seed: int
) -> AcquisitionSequence:
    """Pairs by decreasing ``power``, then ascending d_k, then (nace, location).

    The table is in (nace, location) order, so one stable sort on the first
    two keys gives the whole order. Members are shuffled within each pair.
    """
    dataset = _member_dataset(table)
    order = np.lexsort((table.d_k, -power))
    rows = table.groups.members(order)
    counts = table.n_k[order]
    ends = np.cumsum(counts)
    shuffled = counts > 1  # a singleton pair draws no random numbers
    rng = np.random.default_rng(seed)
    for lo, hi in zip((ends - counts)[shuffled].tolist(), ends[shuffled].tolist()):
        rng.shuffle(rows[lo:hi])
    return AcquisitionSequence(rows=rows, dataset=dataset, strategy=strategy, seed=seed)


def greedy_sequence(table: PairTable, seed: int) -> AcquisitionSequence:
    """Pairs by decreasing enhancement indicator, members shuffled within each pair.

    Ties on the indicator are broken by ascending pair distance, then by
    (nace, location), so a run is fully determined by the seed.
    """
    return _pair_ordered_sequence(table, table.E_k, "eid", seed)


def power_sequence(
    table: PairTable, key: str, seed: int, per_customer: bool = False
) -> AcquisitionSequence:
    """Pairs by decreasing average contracted (or demanded) power.

    ``per_customer=True`` switches to ordering the table's customers by their
    own power instead of pair averages (ties broken by id; no shuffling).
    """
    if key not in ("contracted", "demanded"):
        raise ValueError(f"power key must be 'contracted' or 'demanded', got {key!r}")
    if per_customer:
        dataset = _member_dataset(table)
        # in id order first, so the stable power sort breaks ties by Python string order
        idx = dataset.pairable_order[np.isin(dataset.pairable_order, table.member_rows)]
        power = (
            dataset.contracted_kw[idx]
            if key == "contracted"
            else dataset.raw_demand[idx].mean(axis=1)
        )
        rows = idx[np.argsort(-power, kind="stable")]
        return AcquisitionSequence(rows=rows, dataset=dataset, strategy=key, seed=seed)
    power = table.avg_contracted if key == "contracted" else table.avg_demand
    return _pair_ordered_sequence(table, power, key, seed)


def random_sequence(dataset: CustomerDataset, n: int, seed) -> AcquisitionSequence:
    """Uniform sample without replacement from the pairable customers."""
    pool = dataset.pairable_indices
    if n > pool.size:
        raise ValueError(f"sample size {n} exceeds the {pool.size} pairable customers")
    if n < 0:
        raise ValueError("sample size must be >= 0")
    rng = np.random.default_rng(seed)
    picks = rng.choice(pool, size=n, replace=False)
    return AcquisitionSequence(rows=picks, dataset=dataset, strategy="random", seed=seed)


def accumulate_curve(seq: AcquisitionSequence, target: TargetProfile) -> DistanceCurve:
    """Distance curve of the sequence's accumulated demand against the target.

    The running monthly sum is updated incrementally; total cost is linear in
    the sequence length.
    """
    return DistanceCurve(distance=_distances(seq, target), strategy=seq.strategy)


def _distances(
    seq: AcquisitionSequence, target: TargetProfile, lo: int = 0, hi: int | None = None, carry=None
) -> np.ndarray:
    """Distances at steps ``lo + 1 .. hi`` of ``seq``.

    ``carry``, when given, holds the running sum of the first ``lo`` rows and
    is left holding the sum of the first ``hi`` (see the kernel).
    """
    dataset = seq.dataset
    rows = seq.rows[lo:hi]
    zero = ~dataset.nonzero_mask[rows]
    if zero.any():
        bad = dataset.ids[rows[zero.argmax()]]
        raise DataError(f"customer {bad!r} has zero demand and cannot be accumulated")
    try:
        return kernels.accumulate_distance_curve(dataset.raw_demand, rows, target.values, carry, lo)
    except OverflowError as exc:
        raise DataError(f"{seq.strategy} sequence: {exc}") from None


def baseline_band(
    dataset: CustomerDataset,
    target: TargetProfile,
    n: int,
    reps: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> BaselineCurve:
    """Median and quartile curves over ``reps`` independent random sequences.

    Repetition r uses the child seed ``SeedSequence([seed, r])``. The ``n``
    steps are taken in at most ``BASELINE_PASSES`` column blocks, each a whole
    number of kernel chunks. In every block each repetition redraws its
    sequence (the same rows, bit for bit), walks the block's rows on from its
    saved running sum and writes the block's curve into its row of one
    ``reps x width`` float64 buffer; the buffer's quartiles then fill the
    block's columns of the result. Split at chunk boundaries, a walk sums in
    the order of one whole-sequence call, so the band equals the quartiles of
    the full ``reps x n`` stack, which is never held. Repetitions may run on
    a thread pool, each writing only its own row, so the outcome does not
    depend on the thread count.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    chunk = kernels._CHUNK
    width = chunk * max(1, -(-n // (chunk * BASELINE_PASSES)))
    block = np.empty((reps, min(width, n)), dtype=np.float64)
    carries = np.zeros((reps, dataset.raw_demand.shape[1]), dtype=np.float64)
    bands = np.empty((3, n), dtype=np.float64)

    def one(lo: int, hi: int, rep: int) -> None:
        seq = random_sequence(dataset, n, np.random.SeedSequence([seed, rep]))
        block[rep, : hi - lo] = _distances(seq, target, lo, hi, carries[rep])

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    with pool or nullcontext():
        for lo in range(0, n, width):
            hi = min(lo + width, n)
            # either map re-raises the error of the lowest failing repetition
            list((pool.map if pool else map)(partial(one, lo, hi), range(reps)))
            bands[:, lo:hi] = _quartiles(block[:, : hi - lo])
    q1, median, q3 = bands
    return BaselineCurve(median=median, q1=q1, q3=q3, repetitions=reps)


def _quartiles(stack: np.ndarray) -> np.ndarray:
    """Column-wise (q1, median, q3) of a ``reps x n`` stack, rows 0..2 of the result.

    Taken over blocks of ``QUANTILE_BLOCK`` columns so the partition copy
    ``np.quantile`` makes stays small; each column's quantiles depend on that
    column alone, so the result equals one call over the whole stack.
    """
    n = stack.shape[1]
    out = np.empty((3, n), dtype=np.float64)
    for lo in range(0, n, QUANTILE_BLOCK):
        hi = min(lo + QUANTILE_BLOCK, n)
        out[:, lo:hi] = np.quantile(stack[:, lo:hi], [0.25, 0.5, 0.75], axis=0)
    return out


def reduction_curve(
    strategy: DistanceCurve, baseline: BaselineCurve, checkpoints: Sequence[int]
) -> list[tuple[int, float]]:
    """Relative reduction (:func:`metrics.reduction`) versus the baseline median at each checkpoint."""
    return [(int(n), metrics.reduction(baseline.median_at(n), strategy.at(n))) for n in checkpoints]


# -- CSV exports --------------------------------------------------------------


def write_curve(curve: DistanceCurve, path) -> None:
    write_csv(path, ("step", "distance"), [np.arange(1, curve.distance.size + 1), curve.distance])


def write_baseline(curve: BaselineCurve, path) -> None:
    steps = np.arange(1, curve.median.size + 1)
    write_csv(path, ("step", "median", "q1", "q3"), [steps, curve.median, curve.q1, curve.q3])


def write_reduction(rows: Sequence[tuple[int, float]], path) -> None:
    write_csv(path, ("n", "reduction"), [
        np.array([int(n) for n, _ in rows], dtype=np.int64),
        np.array([r for _, r in rows], dtype=np.float64),
    ])
