import numpy as np
import pytest
from hypothesis import given, strategies as st

from retail_profiler.model import (
    DuplicateIdError,
    NormalizedProfile,
    SchemaError,
    TargetProfile,
    ZeroDemandError,
    load_customers,
    normalize_profile,
    save_customers,
)
from tests.conftest import flat_demand, make_dataset, offset_demand, write_customer_csv

positive_demands = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=12, max_size=12
).filter(lambda xs: sum(xs) > 0)


class TestNormalize:
    def test_constant_profile_becomes_ones(self):
        profile = normalize_profile([5.0] * 12)
        assert np.array_equal(profile.values, np.ones(12))

    def test_scale_invariance_simple(self):
        raw = [1.0, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2]
        doubled = [2 * v for v in raw]
        assert np.array_equal(normalize_profile(raw).values, normalize_profile(doubled).values)

    def test_hand_computed_division_by_mean(self):
        raw = [1.0, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2]  # mean 2
        expected = [0.5, 1, 1.5, 1, 0.5, 1, 1.5, 1, 0.5, 1, 1.5, 1]
        assert np.allclose(normalize_profile(raw).values, expected, rtol=0, atol=0)

    def test_zero_demand_rejected(self):
        with pytest.raises(ZeroDemandError):
            normalize_profile([0.0] * 12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            normalize_profile([1.0] * 11)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_profile([1.0] * 11 + [-1.0])

    @given(positive_demands, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance_property(self, raw, k):
        a = normalize_profile(raw).values
        b = normalize_profile([k * v for v in raw]).values
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    @given(positive_demands)
    def test_unit_mean_property(self, raw):
        assert abs(normalize_profile(raw).values.mean() - 1.0) <= 1e-9


class TestProfileTypes:
    def test_normalized_profile_enforces_unit_mean(self):
        with pytest.raises(ValueError):
            NormalizedProfile(np.full(12, 1.5))

    def test_target_profile_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            TargetProfile(np.ones(12), "weird")

    def test_target_profile_allows_negative_months(self):
        values = np.ones(12)
        values[0], values[1] = -0.5, 2.5
        target = TargetProfile(values, "complement")
        assert target.values[0] == -0.5

    def test_values_are_read_only(self):
        profile = NormalizedProfile(np.ones(12))
        with pytest.raises(ValueError):
            profile.values[0] = 2.0


class TestLoad:
    def test_three_valid_rows(self, tmp_path):
        path = tmp_path / "c.csv"
        write_customer_csv(
            path,
            [
                ("A", "J61.1", "P36-M001", 10.0, flat_demand()),
                ("B", "J61.1", "P36-M001", 12.0, offset_demand()),
                ("C", "A01.2", "P02-M003", 3.0, flat_demand(5)),
            ],
        )
        ds = load_customers(path)
        assert ds.total == 3
        assert ds.excluded == 0
        assert ds.pairable_count == 3

    def test_missing_nace_flagged_excluded(self, tmp_path):
        path = tmp_path / "c.csv"
        write_customer_csv(
            path,
            [
                ("A", "J61.1", "P36-M001", 10.0, flat_demand()),
                ("B", "", "P36-M001", 12.0, flat_demand()),
            ],
        )
        ds = load_customers(path)
        assert ds.total == 2
        assert ds.excluded == 1
        assert ds.pairable_count == 1

    def test_duplicate_id_is_fatal_and_named(self, tmp_path):
        path = tmp_path / "c.csv"
        write_customer_csv(
            path,
            [
                ("DUP01", "J61.1", "P36-M001", 10.0, flat_demand()),
                ("DUP01", "A01.2", "P02-M003", 3.0, flat_demand()),
            ],
        )
        with pytest.raises(DuplicateIdError, match="DUP01"):
            load_customers(path)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,nace,loc,kw\n")
        with pytest.raises(SchemaError):
            load_customers(path)

    def test_malformed_numeric_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "c.csv"
        write_customer_csv(
            path,
            [
                ("A", "J61.1", "P36-M001", 10.0, flat_demand()),
                ("B", "J61.1", "P36-M001", "oops", flat_demand()),
            ],
        )
        ds = load_customers(path)
        assert ds.total == 1
        assert any("line 3" in d for d in ds.diagnostics)

    def test_negative_demand_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        write_customer_csv(
            path,
            [("A", "J61.1", "P36-M001", 10.0, [-1.0] + flat_demand()[:11])],
        )
        ds = load_customers(path)
        assert ds.total == 0
        assert len(ds.diagnostics) == 1

    def test_demand_sum_overflow_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        write_customer_csv(
            path,
            [
                ("A", "J61.1", "P36-M001", 10.0, flat_demand()),
                ("B", "J61.1", "P36-M001", 10.0, [1e308] * 12),
            ],
        )
        ds = load_customers(path)
        assert ds.ids == ("A",)
        assert ds.diagnostics == ("line 3: monthly demands sum past the float64 range; row rejected",)
        with pytest.raises(ValueError, match="float64 range"):
            make_dataset([("B", "J61.1", "P36-M001", 10.0, [1e308] * 12)])

    def test_zero_demand_kept_but_diagnosed(self, tmp_path):
        path = tmp_path / "c.csv"
        write_customer_csv(path, [("A", "J61.1", "P36-M001", 10.0, [0.0] * 12)])
        ds = load_customers(path)
        assert ds.total == 1
        assert ds.zero_demand_count == 1
        assert ds.pairable_count == 0
        assert any("zero annual demand" in d for d in ds.diagnostics)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_customers(tmp_path / "missing.csv")


class TestRoundTrip:
    def test_load_save_load_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [
            (f"C{i}", "J61.1", "P36-M001", float(rng.uniform(0, 50)), list(rng.uniform(0, 999, 12)))
            for i in range(20)
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_customer_csv(first, rows)
        ds1 = load_customers(first)
        save_customers(ds1, second)
        ds2 = load_customers(second)
        assert ds1.ids == ds2.ids
        assert ds1.nace == ds2.nace
        assert ds1.location == ds2.location
        assert np.array_equal(ds1.contracted_kw, ds2.contracted_kw)
        assert np.array_equal(ds1.raw_demand, ds2.raw_demand)


class TestDataset:
    def test_index_of_unknown_id(self):
        ds = make_dataset([("A", "J61.1", "P36-M001", 10.0, flat_demand())])
        from retail_profiler.model import DataError

        with pytest.raises(DataError, match="unknown customer id"):
            ds.index_of("nope")

    def test_pair_groups_partition_pairable_rows(self):
        ds = make_dataset(
            [
                ("E", "X", "L1", 1.0, flat_demand()),
                ("B", "X", "L1", 1.0, offset_demand()),
                ("C", "Y", "L1", 1.0, flat_demand()),
                ("D", "", "L1", 1.0, flat_demand()),
                ("A", "X", "L1", 1.0, flat_demand()),
                ("B2", "Y", "L1", 1.0, flat_demand()),
            ]
        )
        groups = ds.pair_groups
        assert groups.rows.size == groups.offsets[-1] == ds.pairable_count == 5
        assert list(zip(groups.nace, groups.location)) == [("X", "L1"), ("Y", "L1")]  # key order
        # members come out in id order, whatever the input row order
        x, y = np.split(groups.rows, groups.offsets[1:-1])
        assert [ds.ids[i] for i in x] == ["A", "B", "E"]
        assert [ds.ids[i] for i in y] == ["B2", "C"]
