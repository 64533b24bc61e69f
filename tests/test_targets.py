import numpy as np
import pytest
from hypothesis import given, strategies as st

from retail_profiler.metrics import profile_distance
from retail_profiler.model import DataError, PairKey
from retail_profiler.targets import (
    AggregateDemand,
    NegativeTargetWarning,
    SolarTable,
    complement_target,
    constant_resolver,
    custom_target,
    default_solar_row,
    default_solar_table,
    default_solar_target,
    flat_target,
    load_aggregate_demand,
    load_solar_table,
    solar_resolver,
    solar_target,
)

aggregates = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=12, max_size=12
).filter(lambda xs: sum(xs) > 1e-9)


class TestFlat:
    def test_all_ones(self):
        assert np.array_equal(flat_target().values, np.ones(12))
        assert flat_target().label == "flat"

    def test_self_distance_zero(self):
        assert profile_distance(flat_target(), flat_target()) == 0.0

    def test_unit_mean(self):
        assert flat_target().values.mean() == 1.0


class TestSolar:
    def test_constant_row_normalizes_to_ones(self):
        table = SolarTable({"P36": [7.0] * 12})
        assert np.array_equal(solar_target("P36", table).values, np.ones(12))

    def test_scale_invariance(self):
        row = list(np.linspace(1, 4, 12))
        t1 = solar_target("A", SolarTable({"A": row}))
        t2 = solar_target("A", SolarTable({"A": [3 * v for v in row]}))
        assert np.allclose(t1.values, t2.values, rtol=1e-12, atol=0)

    def test_unknown_province(self):
        with pytest.raises(DataError, match="unknown province"):
            solar_target("XX", SolarTable({"A": [1.0] * 12}))

    def test_default_row_peaks_in_july_with_unit_mean(self):
        row = default_solar_row(amplitude=0.4)
        # independent check: direct summation of the documented formula
        expected = [1 + 0.4 * np.cos(2 * np.pi * (j - 7) / 12) for j in range(1, 13)]
        assert np.allclose(row, expected, rtol=0, atol=1e-15)
        assert abs(sum(expected) / 12 - 1.0) < 1e-12
        assert int(np.argmax(row)) + 1 == 7
        assert abs(row.mean() - 1.0) < 1e-12

    def test_default_amplitude_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                default_solar_row(bad)

    def test_default_target_label(self):
        assert default_solar_target().label == "solar"

    def test_table_rejects_nonpositive_rows(self):
        with pytest.raises(ValueError):
            SolarTable({"A": [0.0] + [1.0] * 11})


class TestComplement:
    def test_flat_input_complements_to_flat(self):
        m = AggregateDemand([4.0] * 12)
        assert np.array_equal(complement_target(m).values, np.ones(12))

    def test_alternating_hand_computed(self):
        m = AggregateDemand([1.5, 0.5] * 6)  # mean 1
        expected = [0.5, 1.5] * 6
        assert np.allclose(complement_target(m).values, expected, rtol=0, atol=1e-15)

    def test_zero_aggregate_rejected(self):
        with pytest.raises(DataError):
            AggregateDemand([0.0] * 12)

    def test_negative_months_warn_but_are_kept(self):
        values = [1.0] * 11 + [25.0]  # mean 3, last month > 2*mean
        with pytest.warns(NegativeTargetWarning, match="month"):
            target = complement_target(AggregateDemand(values))
        assert target.values[-1] < 0

    @given(aggregates)
    def test_unit_mean_and_component_identity(self, values):
        m = AggregateDemand(values)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeTargetWarning)
            g = complement_target(m)
        assert abs(g.values.mean() - 1.0) <= 1e-12
        assert np.allclose(g.values + m.values / m.mean, 2.0, rtol=0, atol=1e-12)

    def test_involution_on_normalized_shape(self):
        # complementing the aggregate 2 - g recovers g (for g with all values < 2)
        rng = np.random.default_rng(3)
        g = rng.uniform(0.2, 1.8, 12)
        g /= g.mean()
        assert np.all(g < 2)
        recovered = complement_target(AggregateDemand(2.0 - g))
        assert np.allclose(recovered.values, g, rtol=1e-12, atol=1e-12)


class TestCustom:
    def test_renormalizes(self):
        t = custom_target([2.0] * 12)
        assert np.array_equal(t.values, np.ones(12))
        assert t.label == "custom"

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(DataError):
            custom_target([0.0] * 12)

    def test_sum_overflow_rejected(self):
        with pytest.raises(ValueError, match="sum past the float64 range"):
            custom_target([1e308] * 12)


class TestResolvers:
    def test_constant(self):
        target = flat_target()
        resolve = constant_resolver(target)
        assert resolve(PairKey("X", "L")) is target

    def test_solar_resolver_uses_province_of_location(self):
        table = default_solar_table(["P01", "P02"], amplitude=0.3)
        resolve = solar_resolver(table, lambda loc: loc.split("-")[0])
        t1 = resolve(PairKey("X", "P01-M0001"))
        t2 = resolve(PairKey("Y", "P01-M0099"))
        assert t1 is t2  # cached per province
        assert resolve(PairKey("X", "P02-M0001")).label == "solar"


class TestLoaders:
    def test_solar_table_csv(self, tmp_path):
        path = tmp_path / "solar.csv"
        header = "province," + ",".join(f"m{j:02d}" for j in range(1, 13))
        path.write_text(header + "\nP36," + ",".join(["2.0"] * 12) + "\n")
        table = load_solar_table(path)
        assert table.provinces == ("P36",)

    def test_solar_table_bad_header(self, tmp_path):
        path = tmp_path / "solar.csv"
        path.write_text("prov,m01\nA,1\n")
        from retail_profiler.model import SchemaError

        with pytest.raises(SchemaError):
            load_solar_table(path)

    def test_aggregate_single_row(self, tmp_path):
        path = tmp_path / "agg.csv"
        path.write_text(",".join(str(float(v)) for v in range(1, 13)) + "\n")
        m = load_aggregate_demand(path)
        assert np.array_equal(m.values, np.arange(1.0, 13.0))

    def test_aggregate_multi_row_month_wise_mean(self, tmp_path):
        path = tmp_path / "agg.csv"
        rows = ["month_" + ",month_".join(str(j) for j in range(12))]
        rows.append(",".join(["2.0"] * 12))
        rows.append(",".join(["4.0"] * 12))
        path.write_text("\n".join(rows) + "\n")
        m = load_aggregate_demand(path)
        assert np.array_equal(m.values, np.full(12, 3.0))

    def test_aggregate_empty_file(self, tmp_path):
        path = tmp_path / "agg.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_aggregate_demand(path)
