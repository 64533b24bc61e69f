import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from retail_profiler import metrics
from retail_profiler.metrics import (
    DegenerateReferenceError,
    eid,
    eid_values,
    global_distance,
    median_distance,
    profile_distance,
    reduction,
)
from retail_profiler.model import DataError, normalize_profile
from retail_profiler.pairing import attach_kpis, build_pairs
from retail_profiler.targets import SolarTable, constant_resolver, custom_target, flat_target, solar_resolver
from tests.conftest import flat_demand, make_dataset, offset_demand

profiles = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=12, max_size=12
).map(np.array)


def brute_force_median(values):
    """Independent oracle: full sort, middle value or mean of the two middles."""
    ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


class TestProfileDistance:
    def test_zero_when_equal(self):
        c = normalize_profile([3.0] * 12)
        assert profile_distance(c, flat_target()) == 0.0

    def test_constant_offset_of_one(self):
        g = flat_target()
        shifted = g.values + 1.0
        assert profile_distance(shifted, g) == 1.0

    def test_alternating_half_offset(self):
        c = np.array([1.5, 0.5] * 6)
        assert profile_distance(c, flat_target()) == 0.5

    @given(profiles, profiles)
    def test_symmetry_and_nonnegativity(self, a, b):
        d1 = profile_distance(a, b)
        assert d1 == profile_distance(b, a)
        assert d1 >= 0.0

    @given(profiles, profiles, profiles)
    def test_triangle_inequality(self, a, b, c):
        assert profile_distance(a, c) <= profile_distance(a, b) + profile_distance(b, c) + 1e-9

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 3, 12)
        assert profile_distance(a, a) == 0.0
        assert profile_distance(a, a + 1e-6) > 0.0

    def test_invariant_under_raw_scaling(self):
        raw = np.array(offset_demand(), dtype=float)
        g = flat_target()
        base = profile_distance(normalize_profile(raw), g)
        for k in (0.1, 1.0, 1000.0):
            scaled = profile_distance(normalize_profile(k * raw), g)
            assert math.isclose(scaled, base, rel_tol=1e-12)


class TestMedianDistance:
    def test_singleton(self):
        assert median_distance([0.3]) == 0.3

    def test_odd_count(self):
        assert median_distance([0.1, 0.9, 0.2]) == 0.2

    def test_even_count_mean_of_middles(self):
        assert median_distance([0.1, 0.2, 0.6, 1.0]) == 0.4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_distance([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            median_distance([0.1, -0.2])

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=50))
    def test_matches_brute_force_oracle(self, values):
        assert median_distance(values) == brute_force_median(values)


class TestGlobalDistance:
    def test_single_customer(self):
        ds = make_dataset([("A", "X", "L", 1.0, offset_demand())])
        resolver = constant_resolver(flat_target())
        expected = profile_distance(normalize_profile(offset_demand()), flat_target())
        assert global_distance(ds, resolver) == pytest.approx(expected, rel=1e-15)

    def test_zero_when_everyone_matches(self):
        ds = make_dataset([(f"C{i}", "X", "L", 1.0, flat_demand(10.0 * (i + 1))) for i in range(4)])
        assert global_distance(ds, constant_resolver(flat_target())) == 0.0

    def test_five_customer_flat_recompute_oracle(self):
        rows = [
            ("A", "X", "L1", 1.0, offset_demand(100, 10)),
            ("B", "X", "L1", 1.0, offset_demand(100, 25)),
            ("C", "Y", "L1", 1.0, offset_demand(100, 40)),
            ("D", "Y", "L2", 1.0, offset_demand(100, 55)),
            ("E", "Z", "L2", 1.0, offset_demand(100, 70)),
        ]
        ds = make_dataset(rows)
        g = flat_target()
        # independent oracle: recompute every distance by hand and sort
        oracle = brute_force_median(
            [profile_distance(normalize_profile(r[4]), g) for r in rows]
        )
        assert global_distance(ds, constant_resolver(g)) == oracle

    def test_no_eligible_customers(self):
        ds = make_dataset([("A", "", "L", 1.0, flat_demand())])
        with pytest.raises(DataError):
            global_distance(ds, constant_resolver(flat_target()))


class TestEnhancement:
    """The enhancement metric e = 1 - d/d*, as attach_kpis gives it for each pair."""

    @staticmethod
    def metrics_of(distances):
        """e_k of one singleton pair per distance from flat; d* is the median distance."""
        rows = [
            (f"C{i}", f"N{i}", "L", 1.0, [100.0 * (1 + d), 100.0 * (1 - d)] * 6)
            for i, d in enumerate(distances)
        ]
        table = attach_kpis(build_pairs(make_dataset(rows)), constant_resolver(flat_target()))
        assert table.d_k.tolist() == list(distances)
        return table.e_k.tolist()

    def test_no_improvement_is_zero(self):
        assert self.metrics_of([0.0, 0.5, 1.0])[1] == 0.0

    def test_perfect_fit_is_one(self):
        assert self.metrics_of([0.0, 0.5, 1.0])[0] == 1.0

    def test_double_distance_is_minus_one(self):
        assert self.metrics_of([0.0, 0.5, 1.0])[2] == -1.0

    def test_degenerate_reference(self):
        with pytest.raises(DegenerateReferenceError):
            self.metrics_of([0.0, 0.0])


class TestEid:
    def test_identity_branch(self):
        assert eid(0.5) == 0.5

    def test_clamp_branch(self):
        assert eid(2.0) == 1.0

    def test_exp_branch(self):
        assert eid(-1.0) == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-15)
        assert eid(-1.0) == pytest.approx(-0.6321205588285577, abs=1e-12)

    def test_continuity_at_zero_and_one(self):
        eps = 1e-13
        assert abs(eid(-eps) - eid(0.0)) < 1e-12
        assert abs(eid(eps) - eid(0.0)) < 1e-12
        assert abs(eid(1.0 - eps) - 1.0) < 1e-12
        assert eid(1.0 + eps) == 1.0

    @given(st.floats(min_value=-50, max_value=5), st.floats(min_value=-50, max_value=5))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert eid(lo) <= eid(hi)

    @given(st.floats(min_value=-30, max_value=100, allow_nan=False))
    def test_range(self, e):
        # below about -37 the exp term underflows and float64 rounds onto -1,
        # so the open lower bound is only testable on representable inputs
        value = eid(e)
        assert -1.0 < value <= 1.0

    def test_vectorized_matches_scalar(self):
        grid = np.linspace(-5, 2, 997)
        vectorized = eid_values(grid)
        scalar = np.array([eid(e) for e in grid])
        # np.exp and math.exp may differ in the last ulp on the negative branch
        assert np.allclose(vectorized, scalar, rtol=0, atol=1e-15)
        nonneg = grid >= 0
        assert np.array_equal(vectorized[nonneg], scalar[nonneg])

    def test_ranking_by_metric_and_indicator_agree(self):
        rng = np.random.default_rng(7)
        e = rng.uniform(-4, 1, 500)  # metric values never exceed 1 in practice
        by_e = np.argsort(-e, kind="stable")
        by_eid = np.argsort(-eid_values(e), kind="stable")
        assert np.array_equal(by_e, by_eid)


class TestReduction:
    def test_reported_example(self):
        # headline case: baseline 0.474 vs strategy 0.209 cuts the gap by ~56%
        assert reduction(0.474, 0.209) == pytest.approx(0.559, abs=5e-4)
        assert reduction(0.474, 0.209) == (0.474 - 0.209) / 0.474

    def test_no_reduction(self):
        assert reduction(0.3, 0.3) == 0.0

    def test_total_reduction(self):
        assert reduction(0.3, 0.0) == 1.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(DegenerateReferenceError):
            reduction(0.0, 0.1)


class TestCustomerDistances:
    def test_resolver_called_once_per_location(self):
        ds = make_dataset(
            [
                ("A", "X", "L1", 1.0, offset_demand()),
                ("B", "X", "L1", 1.0, offset_demand()),
                ("C", "Y", "L2", 1.0, offset_demand()),
                ("D", "Z", "L1", 1.0, offset_demand()),
                ("E", "Z", "L2", 1.0, offset_demand()),
            ]
        )
        calls = []

        def resolver(location):
            calls.append(location)
            return flat_target()

        distances = metrics.member_distances(ds, resolver)
        assert len(ds.pair_groups.nace) == 4
        assert calls == ["L1", "L2"]  # once per distinct location, in pair order
        assert distances.size == 5

    def test_first_unmapped_location_in_pair_order_is_named(self):
        # pair order is (A, Lz), (B, La), (C, Lm): Lz sorts last but comes first
        ds = make_dataset(
            [
                ("1", "C", "Lm", 1.0, offset_demand()),
                ("2", "B", "La", 1.0, offset_demand()),
                ("3", "A", "Lz", 1.0, offset_demand()),
            ]
        )
        resolver = solar_resolver(SolarTable({"P": np.ones(12)}), {"Lm": "P"}.__getitem__)
        with pytest.raises(DataError, match=r"^location 'Lz' has no province mapping$"):
            metrics.member_distances(ds, resolver)

    def test_nan_exactly_outside_every_pair(self):
        ds = make_dataset(
            [
                ("A", "X", "L1", 1.0, offset_demand()),
                ("NO-NACE", "", "L1", 1.0, offset_demand()),
                ("ZERO", "X", "L1", 1.0, [0.0] * 12),
                ("NO-LOCATION", "Y", "", 1.0, offset_demand()),
                ("B", "Y", "L2", 1.0, flat_demand()),
            ]
        )
        distances = metrics.member_distances(ds, constant_resolver(flat_target()))
        assert distances.shape == (5,)
        assert np.isnan(distances).tolist() == [False, True, True, True, False]
        assert np.array_equal(np.flatnonzero(~np.isnan(distances)), ds.pairable_indices)

    def test_one_kernel_pass_per_distinct_target(self, monkeypatch):
        ds = make_dataset(
            [
                ("A", "X", "L1", 1.0, offset_demand(100, 10)),
                ("B", "X", "L2", 1.0, offset_demand(100, 20)),
                ("C", "Y", "L1", 1.0, offset_demand(100, 30)),
            ]
        )
        by_location = {"L1": flat_target(), "L2": custom_target([2.0] * 6 + [1.0] * 6)}
        kernel = metrics.kernels.normalized_rmsd
        passes = []

        def counted(raw, rows, target):
            passes.append(len(rows))
            return kernel(raw, rows, target)

        monkeypatch.setattr(metrics.kernels, "normalized_rmsd", counted)
        distances = metrics.member_distances(ds, by_location.__getitem__)
        assert sorted(passes) == [1, 2]
        # each distance lines up with its dataset row
        for row, d in enumerate(distances.tolist()):
            target = by_location[ds.locations[ds.location[row]]]
            assert d == pytest.approx(profile_distance(normalize_profile(ds.raw_demand[row]), target), rel=1e-12)
