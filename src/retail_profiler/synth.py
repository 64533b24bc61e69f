"""Seeded synthetic customer generator with exactly known planted structure.

Real supply-point data is access-restricted, so tests and demos run on
synthetic datasets shaped like it: customers grouped into (nace, location)
pairs whose cardinalities follow a truncated power law (singletons dominate),
per-sector seasonal archetypes, and an optional planted subset of pairs whose
customers are noisy copies of a chosen target profile. The generator returns
the exact realized composition as ground truth, so counting oracles can be
asserted without tolerances.

Noise is multiplicative and bounded, uniform in [1 - 3*sigma, 1 + 3*sigma],
which keeps demands positive without rejection sampling and yields a closed
form worst-case distance for planted customers
(:func:`planted_distance_bound`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from retail_profiler import kernels
from retail_profiler.model import (
    MONTHS,
    CustomerDataset,
    DataError,
    TargetProfile,
    decode,
    recode,
    write_csv,
)
from retail_profiler.pairing import MAX_PAIR_SIZE

GROUND_TRUTH_HEADER = ("id", "planted", "pair_nace", "pair_location")

_DIVISION_LETTERS = "ABCDEFGHIJKLMNOPQRSTU"


# Sector archetype amplitudes and noise levels are drawn uniformly from these
# ranges; a customer's scale is lognormal with this median (kWh) and log-sigma.
AMPLITUDE_RANGE = (0.1, 0.6)
SECTOR_NOISE_RANGE = (0.08, 0.2)
SCALE_MEDIAN_KWH = 2000.0
SCALE_LOG_SIGMA = 0.8


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; all randomness flows from ``seed``.

    ``pair_concentration`` is the exponent of the truncated power law
    P(size = s) proportional to s**-concentration on 1..max_pair_size that
    pair cardinalities are drawn from; larger values concentrate mass on
    singletons. Sector archetypes are summer/winter-peaked sinusoids with
    per-sector amplitude, peak month and noise level drawn from
    ``AMPLITUDE_RANGE`` and ``SECTOR_NOISE_RANGE``. Planted customers use the
    run target's shape with noise level ``noise_sigma`` and always sit in
    pairs of their own.
    """

    n_customers: int
    n_locations: int
    n_nace: int
    pair_concentration: float = 2.0
    max_pair_size: int = 1000
    planted_fraction: float = 0.0
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        counts = (self.n_customers, self.n_locations, self.n_nace, self.max_pair_size, self.seed)
        if not all(isinstance(count, int) and count < 2**63 for count in counts):
            raise ValueError("n_customers, n_locations, n_nace, max_pair_size and seed must be integers below 2**63")
        if min(self.n_customers, self.n_locations, self.n_nace) < 1:
            raise ValueError("n_customers, n_locations and n_nace must all be >= 1")
        if not 0.0 <= self.planted_fraction <= 1.0:
            raise ValueError("planted_fraction must be in [0, 1]")
        if not 0.0 <= self.noise_sigma < 1.0 / 3.0:
            raise ValueError("noise_sigma must be in [0, 1/3) to keep demands positive")
        if not self.pair_concentration > 0:
            raise ValueError("pair_concentration must be > 0")
        if not 1 <= self.max_pair_size <= MAX_PAIR_SIZE:
            raise ValueError(f"max_pair_size must be in 1..{MAX_PAIR_SIZE}, the n_k a pair table accepts")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @classmethod
    def from_dict(cls, data) -> "SynthConfig":
        """The config a JSON object names; anything else, or a bad key or value, is a DataError."""
        if not isinstance(data, dict):
            raise DataError("bad generator config: not a JSON object")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise DataError(f"bad generator config: {exc}") from None


class PairKey(NamedTuple):
    """Activity-sector x location group key, as the ground truth names a pair."""

    nace: str
    location: str


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Exact realized structure of a generated dataset."""

    pair_composition: dict[PairKey, int]
    planted_pairs: frozenset[PairKey]
    planted_ids: frozenset[str]

    @property
    def planted_count(self) -> int:
        return len(self.planted_ids)


def planted_distance_bound(noise_sigma: float, target: TargetProfile) -> float:
    """Worst-case distance of a planted customer's shape to the target.

    With multiplicative noise u_j in [1 - 3s, 1 + 3s] applied to a strictly
    positive target g, the normalized shape satisfies
    |c_j - g_j| <= g_j * 6s / (1 - 3s), hence the distance is at most
    6s / (1 - 3s) * rms(g).
    """
    if not 0.0 <= noise_sigma < 1.0 / 3.0:
        raise ValueError("noise_sigma must be in [0, 1/3)")
    g = target.values
    if np.any(g <= 0):
        raise ValueError("bound requires a strictly positive target")
    return 6.0 * noise_sigma / (1.0 - 3.0 * noise_sigma) * math.sqrt(float(np.mean(g * g)))


def _location_codes(n_locations: int) -> list[str]:
    n_provinces = max(1, min(52, -(-n_locations // 8)))
    return [f"P{(i % n_provinces) + 1:02d}-M{i + 1:04d}" for i in range(n_locations)]


def _nace_codes(n_nace: int) -> list[str]:
    n_divisions = min(99, max(1, -(-n_nace // 10)))
    per_division = -(-n_nace // n_divisions)
    codes = []
    for d in range(n_divisions):
        division = f"{_DIVISION_LETTERS[d % len(_DIVISION_LETTERS)]}{d + 1:02d}"
        for s in range(per_division):
            codes.append(f"{division}.{s}")
            if len(codes) == n_nace:
                return codes
    return codes


def _draw_sizes(rng: np.random.Generator, total: int, config: SynthConfig) -> np.ndarray:
    """Pair cardinalities summing exactly to ``total``, power-law distributed."""
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    support = np.arange(1, config.max_pair_size + 1, dtype=np.int64)
    weights = support.astype(np.float64) ** -config.pair_concentration
    probabilities = weights / weights.sum()
    drawn: list[np.ndarray] = []
    remaining = total
    while remaining > 0:
        batch = max(64, remaining // 2)
        sizes = rng.choice(support, size=batch, p=probabilities)
        drawn.append(sizes)
        remaining -= int(sizes.sum())
    sizes = np.concatenate(drawn)
    cumulative = np.cumsum(sizes)
    cut = int(np.searchsorted(cumulative, total))
    sizes = sizes[: cut + 1].copy()
    sizes[-1] -= int(cumulative[cut]) - total
    return sizes


def generate(config: SynthConfig, target: TargetProfile) -> tuple[CustomerDataset, GroundTruth]:
    """Generate a dataset plus its exact ground truth.

    Raw demand of a customer is scale * shape * noise where shape is either
    its sector archetype or (for planted customers) the target itself. The
    draw order is fixed, so one (config, seed) pair always yields the same
    bytes on disk.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    locations = _location_codes(config.n_locations)
    naces = _nace_codes(config.n_nace)

    amplitudes = rng.uniform(*AMPLITUDE_RANGE, size=config.n_nace)
    peaks = rng.integers(1, MONTHS + 1, size=config.n_nace)
    sector_sigma = rng.uniform(*SECTOR_NOISE_RANGE, size=config.n_nace)

    n_planted = round(config.planted_fraction * config.n_customers)
    if n_planted and np.any(target.values <= 0):
        raise DataError(
            "planting requires a strictly positive target profile "
            "(multiplicative noise cannot keep non-positive demands valid)"
        )
    planted_sizes = _draw_sizes(rng, n_planted, config)
    other_sizes = _draw_sizes(rng, config.n_customers - n_planted, config)
    pair_sizes = np.concatenate([planted_sizes, other_sizes])
    n_pairs = pair_sizes.size
    key_space = config.n_nace * config.n_locations
    if n_pairs > key_space:
        raise DataError(
            f"drew {n_pairs} pairs but only {key_space} (nace, location) keys exist; "
            "lower pair_concentration or raise n_nace/n_locations"
        )

    flat_keys = rng.choice(key_space, size=n_pairs, replace=False)
    pair_nace_idx = flat_keys // config.n_locations
    pair_loc_idx = flat_keys % config.n_locations

    n = config.n_customers
    cust_pair = np.repeat(np.arange(n_pairs), pair_sizes)
    cust_nace_idx = pair_nace_idx[cust_pair]
    cust_loc_idx = pair_loc_idx[cust_pair]
    cust_planted = cust_pair < planted_sizes.size

    months = np.arange(1, MONTHS + 1, dtype=np.float64)
    archetype = 1.0 + amplitudes[:, None] * np.cos(
        2.0 * math.pi * (months[None, :] - peaks[:, None]) / MONTHS
    )
    shape = archetype[cust_nace_idx]
    sigma = sector_sigma[cust_nace_idx]
    if n_planted:
        shape[cust_planted] = target.values
        sigma[cust_planted] = config.noise_sigma

    noise = 1.0 + 3.0 * sigma[:, None] * rng.uniform(-1.0, 1.0, size=(n, MONTHS))
    scale = rng.lognormal(math.log(SCALE_MEDIAN_KWH), SCALE_LOG_SIGMA, size=n)
    raw = scale[:, None] * shape * noise
    contracted = np.round(scale / 730.0 * rng.uniform(1.2, 2.5, size=n), 3)

    ids = tuple(f"C{i:08d}" for i in range(n))
    nace_vocabulary, nace = recode(naces, cust_nace_idx)
    location_vocabulary, location = recode(locations, cust_loc_idx)
    dataset = CustomerDataset(ids, nace, location, nace_vocabulary, location_vocabulary, contracted, raw)

    pair_keys = [
        PairKey(naces[pair_nace_idx[p]], locations[pair_loc_idx[p]]) for p in range(n_pairs)
    ]
    planted_rows = np.flatnonzero(cust_planted)
    truth = GroundTruth(
        pair_composition={key: int(size) for key, size in zip(pair_keys, pair_sizes)},
        planted_pairs=frozenset(pair_keys[: planted_sizes.size]),
        planted_ids=frozenset(ids[i] for i in planted_rows),
    )

    if n_planted:
        bound = planted_distance_bound(config.noise_sigma, target)
        worst = float(kernels.normalized_rmsd(dataset.raw_demand, planted_rows, target.values).max())
        if worst > bound + 1e-12:  # small allowance for float rounding
            raise RuntimeError(
                f"planted distance {worst} exceeds the documented bound {bound}"
            )
    return dataset, truth


def write_ground_truth(dataset: CustomerDataset, truth: GroundTruth, path) -> None:
    """Sidecar CSV naming each customer's pair and planted flag."""
    planted = np.fromiter(map(truth.planted_ids.__contains__, dataset.ids), dtype=np.int8, count=len(dataset))
    write_csv(path, GROUND_TRUTH_HEADER, [
        dataset.ids, planted, decode(dataset.naces, dataset.nace), decode(dataset.locations, dataset.location),
    ])
