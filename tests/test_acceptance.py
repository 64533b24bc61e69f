"""Acceptance gate: every criterion at its stated tolerance and time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Quantitative checks run on the fixed-seed reference dataset
(100k customers, seed 42); property suites are exact or tolerance-pinned.
"""

import hashlib
import json
import math
import time
import warnings

import numpy as np
import pytest

from retail_profiler import metrics, pairing, simulate, synth, targets
from retail_profiler.cli import main as cli_main
from retail_profiler.metrics import eid, median_distance, profile_distance
from retail_profiler.model import normalize_profile
from retail_profiler.targets import AggregateDemand, NegativeTargetWarning, complement_target


def report(name: str, elapsed: float, limit: float) -> None:
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"{name} exceeded its {limit:.0f}s budget ({elapsed:.2f}s)"


def test_eid_correctness():
    start = time.perf_counter()
    grid = np.linspace(-5.0, 2.0, 1000)

    def formula(e):  # branch-by-branch restatement
        if e > 1.0:
            return 1.0
        if e >= 0.0:
            return e
        return math.exp(e) - 1.0

    values = [eid(float(e)) for e in grid]
    assert values == [formula(float(e)) for e in grid]
    # continuity at the branch joints, within 1e-12
    for eps in (1e-15, 1e-13):
        assert abs(eid(-eps) - eid(0.0)) < 1e-12
        assert abs(eid(eps) - eid(0.0)) < 1e-12
        assert abs(eid(1.0 - eps) - eid(1.0)) < 1e-12
        assert abs(eid(1.0 + eps) - eid(1.0)) < 1e-12
    # monotone over the grid
    assert all(a <= b for a, b in zip(values, values[1:]))
    # range (-1, 1]
    assert all(-1.0 < v <= 1.0 for v in values)
    report("eid-correctness", time.perf_counter() - start, 1.0)


def test_distance_metric_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    a = rng.uniform(-3, 3, size=(10_000, 12))
    b = rng.uniform(-3, 3, size=(10_000, 12))
    c = rng.uniform(-3, 3, size=(10_000, 12))

    def rmsd(x, y):
        return np.sqrt(np.mean((x - y) ** 2, axis=1))

    d_ab, d_ba = rmsd(a, b), rmsd(b, a)
    d_bc, d_ac = rmsd(b, c), rmsd(a, c)
    assert np.array_equal(d_ab, d_ba)  # symmetry
    assert np.all(d_ab >= 0)  # non-negativity
    assert np.all(d_ac <= d_ab + d_bc + 1e-12)  # triangle inequality
    assert np.all(rmsd(a, a) == 0)  # identity
    assert np.all(d_ab[np.any(a != b, axis=1)] > 0)
    # spot-check the vectorized oracle against the scalar implementation
    for i in range(0, 10_000, 997):
        assert profile_distance(a[i], b[i]) == pytest.approx(float(d_ab[i]), rel=1e-15)

    # scale invariance of the normalized distance under raw-demand scaling
    target = targets.default_solar_target()
    raw = rng.uniform(0.5, 400.0, size=(200, 12))
    base = [profile_distance(normalize_profile(r), target) for r in raw]
    for k in (0.1, 1.0, 1000.0):
        scaled = [profile_distance(normalize_profile(k * r), target) for r in raw]
        assert all(
            math.isclose(s, t, rel_tol=1e-12) for s, t in zip(scaled, base)
        )
    report("distance-metric-suite", time.perf_counter() - start, 5.0)


def test_median_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    def oracle(values):
        ordered = sorted(values)
        n = len(ordered)
        if n % 2:
            return ordered[n // 2]
        return (ordered[n // 2 - 1] + ordered[n // 2]) / 2

    for length in range(1, 51):
        for _ in range(100):
            values = rng.uniform(0, 10, length).tolist()
            assert median_distance(values) == oracle(values)
    report("median-oracle", time.perf_counter() - start, 5.0)


def test_complement_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeTargetWarning)
        for _ in range(1000):
            m = AggregateDemand(rng.uniform(0.01, 50.0, 12))
            g = complement_target(m)
            assert abs(g.values.mean() - 1.0) <= 1e-12
            assert np.all(np.abs(g.values + m.values / m.mean - 2.0) <= 1e-12)
    report("complement-identity", time.perf_counter() - start, 1.0)


def test_incremental_matches_from_scratch_oracle(mid_run, solar_default):
    start = time.perf_counter()
    _, dataset, _, table, _ = mid_run
    n = dataset.pairable_count
    sequences = [
        simulate.greedy_sequence(table, seed=4),
        simulate.random_sequence(dataset, n, seed=4),
    ]
    for seq in sequences:
        assert len(seq.ids) == 10_000
        curve = simulate.accumulate_curve(seq, solar_default)
        idx = np.array([dataset.index_of(cid) for cid in seq.ids])
        raw = dataset.raw_demand[idx]
        goal = solar_default.values
        for step in range(n):
            total = raw[: step + 1].sum(axis=0)  # from scratch, every step
            shape = total / total.mean()
            expected = math.sqrt(float(np.mean((shape - goal) ** 2)))
            got = float(curve.distance[step])
            assert abs(got - expected) <= 1e-9 * expected
    report("incremental-vs-oracle", time.perf_counter() - start, 30.0)


def test_identification_exactness(reference_run):
    start = time.perf_counter()
    _, dataset, truth = reference_run
    stats = pairing.identification_stats(pairing.build_pairs(dataset))

    # exact counting oracle over the planted composition
    composition = list(truth.pair_composition.values())
    histogram = {}
    for size in composition:
        histogram[size] = histogram.get(size, 0) + 1
    assert stats.pair_cardinality_histogram == dict(sorted(histogram.items()))
    assert stats.nonempty_pair_count == len(composition)
    for n, counted in stats.customers_in_sets_leq.items():
        assert counted == sum(s for s in composition if s <= n)
    largest = max(composition)
    assert stats.customers_in_sets_leq[largest] == sum(composition) == dataset.pairable_count
    report("identification-exactness", time.perf_counter() - start, 30.0)


def test_strategy_quality(reference_run, solar_default):
    start = time.perf_counter()
    config, dataset, truth = reference_run
    assert truth.planted_count == 2000
    resolver = targets.constant_resolver(solar_default)
    table = pairing.attach_kpis(pairing.build_pairs(dataset), resolver)

    greedy = simulate.accumulate_curve(
        simulate.greedy_sequence(table, seed=42).prefix(1000), solar_default
    )
    baseline = simulate.baseline_band(dataset, solar_default, n=1000, reps=100, seed=42)

    bound = synth.planted_distance_bound(config.noise_sigma, solar_default)
    greedy_at_1000 = greedy.at(1000)
    baseline_at_1000 = baseline.median_at(1000)
    assert greedy_at_1000 <= 2.0 * bound
    assert baseline_at_1000 >= 5.0 * greedy_at_1000
    reduction = metrics.reduction(baseline_at_1000, greedy_at_1000)
    assert reduction >= 0.5

    # deterministic under the fixed seed: bit-identical rerun
    greedy_again = simulate.accumulate_curve(
        simulate.greedy_sequence(table, seed=42).prefix(1000), solar_default
    )
    baseline_again = simulate.baseline_band(dataset, solar_default, n=1000, reps=100, seed=42)
    assert np.array_equal(greedy.distance, greedy_again.distance)
    assert np.array_equal(baseline.median, baseline_again.median)
    assert np.array_equal(baseline.q1, baseline_again.q1)
    assert np.array_equal(baseline.q3, baseline_again.q3)

    print(
        f"  greedy@1000={greedy_at_1000:.5f} bound={bound:.4f} "
        f"baseline@1000={baseline_at_1000:.4f} reduction={reduction:.3f}"
    )
    report("strategy-quality", time.perf_counter() - start, 300.0)


def test_convergence_at_exhaustion(mid_run, solar_default):
    start = time.perf_counter()
    _, dataset, _, table, _ = mid_run
    n = dataset.pairable_count
    finals = [
        simulate.accumulate_curve(seq, solar_default).distance[-1]
        for seq in (
            simulate.greedy_sequence(table, seed=8),
            simulate.power_sequence(table, "contracted", seed=8),
            simulate.random_sequence(dataset, n, seed=8),
        )
    ]
    assert max(finals) - min(finals) <= 1e-9
    report("convergence-exhaustion", time.perf_counter() - start, 60.0)


@pytest.fixture(scope="module")
def scaling_dataset(solar_default):
    config = synth.SynthConfig(
        n_customers=200_000, n_locations=400, n_nace=300, seed=77
    )
    dataset, _ = synth.generate(config, solar_default)
    return dataset


def test_linear_scaling(scaling_dataset, solar_default):
    start = time.perf_counter()
    dataset = scaling_dataset
    half = simulate.random_sequence(dataset, 100_000, seed=1)
    full = simulate.random_sequence(dataset, 200_000, seed=1)

    def median_time(seq):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            simulate.accumulate_curve(seq, solar_default)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    simulate.accumulate_curve(half, solar_default)  # warm up
    t_half = median_time(half)
    t_full = median_time(full)
    ratio = t_full / t_half
    print(f"  1e5: {t_half * 1e3:.1f} ms, 2e5: {t_full * 1e3:.1f} ms, ratio {ratio:.2f}")
    assert ratio <= 2.5
    report("linear-scaling", time.perf_counter() - start, 120.0)


def test_cli_simulate_determinism(tmp_path):
    start = time.perf_counter()
    config = {
        "n_customers": 8000,
        "n_locations": 60,
        "n_nace": 50,
        "planted_fraction": 0.02,
        "noise_sigma": 0.05,
        "seed": 42,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli_main(["synth", "--config", str(config_path), "--out", str(tmp_path / "data")]) == 0
    assert (
        cli_main(
            [
                "pairs",
                "--customers", str(tmp_path / "data" / "customers.csv"),
                "--target", "solar:default",
                "--out", str(tmp_path / "kpis"),
            ]
        )
        == 0
    )
    args = [
        "simulate",
        "--customers", str(tmp_path / "data" / "customers.csv"),
        "--pairs", str(tmp_path / "kpis" / "pairs.csv"),
        "--target", "solar:default",
        "--strategies", "eid,contracted,demanded,random",
        "-n", "600",
        "--reps", "25",
        "--seed", "42",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "run2")]) == 0

    names = [
        "curve_eid.csv",
        "curve_contracted.csv",
        "curve_demanded.csv",
        "baseline.csv",
        "reduction.csv",
        "manifest.json",
    ]
    for name in names:
        first = hashlib.sha256((tmp_path / "run1" / name).read_bytes()).hexdigest()
        second = hashlib.sha256((tmp_path / "run2" / name).read_bytes()).hexdigest()
        assert first == second, f"{name} differs between identical runs"
    report("cli-simulate-determinism", time.perf_counter() - start, 120.0)
