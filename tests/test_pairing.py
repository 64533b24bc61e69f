import math
import warnings

import numpy as np
import pytest

from retail_profiler import pairing
from retail_profiler.metrics import DegenerateReferenceError, eid, global_distance, member_distances, profile_distance
from retail_profiler.model import DataError, PairKey, normalize_profile
from retail_profiler.pairing import (
    attach_kpis,
    build_pairs,
    default_division,
    default_province,
    identification_stats,
    load_mapping,
    aggregate_matrix,
    read_pair_table,
    slice_row,
    write_pair_table,
)
from retail_profiler.targets import constant_resolver, default_solar_target, flat_target
from tests.conftest import flat_demand, make_dataset, offset_demand


def spiky(distance, base=100.0):
    """Raw demand whose unit-mean shape is at the given distance from flat.

    Uses 1 + a*[11, -1, ..., -1]: zero-mean pattern with rms sqrt(11).
    """
    a = distance / math.sqrt(11.0)
    shape = np.full(12, 1.0 - a)
    shape[0] = 1.0 + 11.0 * a
    return list(base * shape)


def alternating(distance, base=100.0):
    """Raw demand at the given distance from flat via a +-1 pattern."""
    return [base * (1 + distance) if j % 2 == 0 else base * (1 - distance) for j in range(12)]


FLAT = flat_target()
RESOLVER = constant_resolver(FLAT)
RESOLVER_SOLAR = constant_resolver(default_solar_target())


def with_d_star_half(rows):
    """Dataset of the rows plus customers at distance exactly 0.5 from flat.

    They form one pair of their own, ("Z99.9", "Q99-M999"), which sorts after
    the rows' pairs and maps to its own matrix cell, and there are enough of
    them to make d* = 0.5 against the flat target.
    """
    pinned = [(f"REF{i}", "Z99.9", "Q99-M999", 1.0, alternating(0.5)) for i in range(len(rows) + 1)]
    return make_dataset(rows + pinned)


def member_ids(table, p):
    """Customer ids of pair p, in member order."""
    offsets = table.groups.offsets
    return tuple(table.dataset.ids[i] for i in table.member_rows[offsets[p]:offsets[p + 1]])


class TestBuildPairs:
    def test_three_customers_one_pair(self):
        ds = make_dataset(
            [(f"C{i}", "X", "L1", 1.0, offset_demand(100, 10 * (i + 1))) for i in range(3)]
        )
        table = build_pairs(ds)
        assert len(table) == 1
        assert table.n_k[0] == 3
        assert member_ids(table, 0) == ("C0", "C1", "C2")

    def test_distinct_locations_make_distinct_pairs(self):
        ds = make_dataset(
            [
                ("A", "X", "L1", 1.0, flat_demand()),
                ("B", "X", "L2", 1.0, flat_demand()),
            ]
        )
        table = build_pairs(ds)
        assert len(table) == 2
        assert set(zip(table.nace, table.location)) == {PairKey("X", "L1"), PairKey("X", "L2")}

    def test_pair_profile_of_identical_customers(self):
        demand = offset_demand(100, 30)
        ds = make_dataset([("A", "X", "L1", 1.0, demand), ("B", "X", "L1", 2.0, demand)])
        table = build_pairs(ds)
        member = normalize_profile(demand)
        assert np.allclose(table.profiles[0], member.values, rtol=1e-15, atol=0)

    def test_partition_property(self, mid_run):
        _, dataset, _, table, _ = mid_run
        assert table.n_k.sum() == dataset.pairable_count

    def test_avg_powers(self):
        ds = make_dataset(
            [
                ("A", "X", "L1", 10.0, flat_demand(120.0)),
                ("B", "X", "L1", 30.0, flat_demand(240.0)),
            ]
        )
        table = build_pairs(ds)
        assert table.avg_contracted[0] == 20.0
        assert table.avg_demand[0] == 180.0

    def test_avg_overflow_is_recomputed_finite(self):
        # 30 members at 8e306 kWh a month: the plain sum of their means overflows
        rows = [(f"C{i:02d}", "X", "L1", 1e307, [8e306] * 12) for i in range(30)]
        rows.append(("D", "Y", "L1", 3.0, flat_demand(7.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = build_pairs(make_dataset(rows))
        assert table.avg_demand[0] == pytest.approx(8e306, rel=1e-12)
        assert table.avg_contracted[0] == pytest.approx(1e307, rel=1e-12)
        assert (table.avg_contracted[1], table.avg_demand[1]) == (3.0, 7.0)

    def test_empty_dataset_gives_diagnostic(self):
        ds = make_dataset([("A", "", "", 1.0, flat_demand())])
        table = build_pairs(ds)
        assert len(table) == 0
        assert table.diagnostics

    def test_order_independent(self):
        rows = [
            ("B", "X", "L1", 1.0, offset_demand(100, 10)),
            ("A", "X", "L1", 2.0, offset_demand(100, 20)),
            ("C", "Y", "L2", 3.0, offset_demand(100, 30)),
        ]
        t1 = build_pairs(make_dataset(rows))
        t2 = build_pairs(make_dataset(rows[::-1]))
        assert (t1.nace, t1.location) == (t2.nace, t2.location)
        for p in range(len(t1)):
            assert member_ids(t1, p) == member_ids(t2, p)
        assert np.array_equal(t1.profiles, t2.profiles)
        assert np.array_equal(t1.avg_contracted, t2.avg_contracted)


class TestAttachKpis:
    def test_perfect_single_member_pair(self):
        ds = with_d_star_half([("A", "X", "L1", 1.0, flat_demand())])
        table = attach_kpis(build_pairs(ds), RESOLVER)
        assert table.d_star == 0.5
        assert table.d_k[0] == 0.0
        assert table.e_k[0] == 1.0
        assert table.E_k[0] == 1.0

    def test_median_then_metric(self):
        # member distances {0.2, 0.8, 0.5}; the median lands on the exact 0.5
        ds = make_dataset(
            [
                ("A", "X", "L1", 1.0, alternating(0.2)),
                ("B", "X", "L1", 1.0, alternating(0.8)),
                ("C", "X", "L1", 1.0, alternating(0.5)),
            ]
        )
        table = attach_kpis(build_pairs(ds), RESOLVER)
        assert table.d_star == 0.5
        assert table.d_k[0] == 0.5
        assert table.e_k[0] == 0.0
        assert table.E_k[0] == 0.0

    def test_exp_branch(self):
        # d_k = 1.5 with d* = 0.5 puts the metric at -2
        ds = with_d_star_half([("A", "X", "L1", 1.0, spiky(1.5))])
        table = attach_kpis(build_pairs(ds), RESOLVER)
        assert table.d_star == 0.5
        assert table.e_k[0] == pytest.approx(-2.0, abs=1e-12)
        assert table.E_k[0] == pytest.approx(math.exp(-2.0) - 1.0, abs=1e-12)
        assert table.E_k[0] == pytest.approx(-0.8647, abs=1e-4)

    def test_singleton_d_k_equals_member_distance(self):
        demand = offset_demand(100, 37)
        ds = make_dataset([("A", "X", "L1", 1.0, demand)])
        table = attach_kpis(build_pairs(ds), RESOLVER)
        assert table.d_k[0] == profile_distance(normalize_profile(demand), FLAT)

    def test_d_k_is_not_the_pair_profile_distance(self):
        # two opposite shapes average out: the pair profile sits near flat
        # while both members are far from it
        high_first = alternating(0.6)
        low_first = [100.0 * (1 - 0.6) if j % 2 == 0 else 100.0 * (1 + 0.6) for j in range(12)]
        ds = make_dataset(
            [
                ("A", "X", "L1", 1.0, high_first),
                ("B", "X", "L1", 1.0, low_first),
            ]
        )
        table = attach_kpis(build_pairs(ds), RESOLVER)
        profile_d = profile_distance(table.profiles[0], FLAT)
        assert table.d_k[0] == pytest.approx(0.6, abs=1e-12)
        assert profile_d < 1e-9  # averaged shape is flat
        assert table.d_k[0] != profile_d

    def test_degenerate_reference(self):
        # every customer fits the target, so d* = 0
        ds = make_dataset([(f"C{i}", "X", f"L{i % 2}", 1.0, flat_demand(10.0 * (i + 1))) for i in range(3)])
        table = build_pairs(ds)
        with pytest.raises(DegenerateReferenceError):
            attach_kpis(table, RESOLVER)
        with pytest.raises(DegenerateReferenceError):
            aggregate_matrix(table, default_province, default_division, RESOLVER)

    def test_d_star_is_global_distance(self, mid_run):
        _, dataset, _, table, d_star = mid_run
        assert d_star == global_distance(dataset, RESOLVER_SOLAR)  # bit for bit
        assert np.array_equal(table.e_k, 1.0 - table.d_k / d_star)

    def test_d_star_covers_pairs_the_table_does_not_list(self, tmp_path):
        # the table read back lists only A's pair; d* still comes from every
        # pairable row, so it is 0.5, not A's own 0.2
        ds = with_d_star_half([("A", "J61.1", "P36-M001", 1.0, alternating(0.2))])
        path = tmp_path / "pairs.csv"
        write_pair_table(build_pairs(ds), path)
        header, first, _ = path.read_text().splitlines()
        path.write_text(header + "\n" + first + "\n")
        subset = read_pair_table(path, ds)
        d = member_distances(ds, RESOLVER)[0]
        table = attach_kpis(subset, RESOLVER)
        assert table.d_star == 0.5
        assert table.e_k[0] == 1.0 - d / 0.5
        matrix = aggregate_matrix(subset, default_province, default_division, RESOLVER)
        assert matrix.cell("P36", "J61") == (eid(1.0 - d / 0.5), 1)

    def test_d_k_bitwise_equals_per_pair_median(self, mid_run):
        # the batched sort must reproduce a per-slice median exactly
        _, _, _, table, _ = mid_run
        distances = member_distances(table.dataset, RESOLVER_SOLAR)[table.member_rows]
        offsets = table.groups.offsets
        for d_k, lo, hi in zip(table.d_k, offsets[:-1], offsets[1:]):
            assert d_k == float(np.median(distances[lo:hi]))


class TestIdentificationStats:
    def test_small_counts(self):
        ds = make_dataset(
            [
                ("A", "X", "L1", 1.0, flat_demand()),
                ("B", "Y", "L1", 1.0, flat_demand()),
                ("C", "Z", "L1", 1.0, flat_demand()),
                ("D", "Z", "L1", 1.0, flat_demand()),
            ]
        )
        stats = identification_stats(build_pairs(ds))
        assert stats.pair_cardinality_histogram == {1: 2, 2: 1}
        assert stats.customers_in_sets_leq[1] == 2
        assert stats.customers_in_sets_leq[2] == 4
        assert stats.nonempty_pair_count == 3
        assert stats.total_pair_space == 3  # 3 nace codes x 1 location

    def test_all_singletons_ratio_one(self):
        ds = make_dataset([(f"C{i}", f"N{i}", "L1", 1.0, flat_demand()) for i in range(5)])
        stats = identification_stats(build_pairs(ds))
        for n in range(1, 11):
            assert stats.ratio_leq(n) == 1.0

    def test_planted_composition_exact(self):
        # composition {1: 50, 2: 30, 11: 5}: sets of <=10 cover 50 + 60 customers
        rows = []
        serial = 0

        def add(nace, location, count):
            nonlocal serial
            for _ in range(count):
                rows.append((f"C{serial:05d}", nace, location, 1.0, flat_demand()))
                serial += 1

        for p in range(50):
            add(f"S{p:03d}", "L1", 1)
        for p in range(30):
            add(f"D{p:03d}", "L2", 2)
        for p in range(5):
            add(f"B{p:03d}", "L3", 11)
        stats = identification_stats(build_pairs(make_dataset(rows)))
        assert stats.pair_cardinality_histogram == {1: 50, 2: 30, 11: 5}
        assert stats.customers_in_sets_leq[10] == 50 + 60
        assert stats.customers_in_sets_leq[11] == 50 + 60 + 55
        assert stats.customers_in_sets_leq[1] == 50

    def test_ratio_table_is_cumulative(self, mid_run):
        _, _, _, table, _ = mid_run
        stats = identification_stats(table)
        rows = stats.ratio_table()
        ratios = [r[3] for r in rows]
        assert all(a <= b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == 1.0
        assert rows[-1][4] == sum(s * c for s, c in stats.pair_cardinality_histogram.items())


class TestAggregateMatrix:
    def test_single_perfect_customer_cell_is_one(self):
        ds = with_d_star_half([("A", "J61.1", "P36-M001", 1.0, flat_demand())])
        table = build_pairs(ds)
        matrix = aggregate_matrix(table, default_province, default_division, RESOLVER)
        assert matrix.cell("P36", "J61") == (1.0, 1)

    def test_absent_group_is_empty_marker(self):
        ds = with_d_star_half(
            [
                ("A", "J61.1", "P36-M001", 1.0, flat_demand()),
                ("B", "A01.2", "P02-M001", 1.0, flat_demand()),
            ]
        )
        table = build_pairs(ds)
        matrix = aggregate_matrix(table, default_province, default_division, RESOLVER)
        value, count = matrix.cell("P36", "A01")
        assert count == 0
        assert math.isnan(value)

    def test_pooled_median_example(self):
        # pools {0.2} and {0.6} with d* = 0.4: median 0.4, indicator 0
        ds = make_dataset(
            [
                ("A", "J61.1", "P36-M001", 1.0, alternating(0.2)),
                ("B", "J61.2", "P36-M002", 1.0, alternating(0.6)),
            ]
        )
        table = build_pairs(ds)
        matrix = aggregate_matrix(table, default_province, default_division, RESOLVER)
        value, count = matrix.cell("P36", "J61")
        assert count == 2
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_pooling_is_not_median_of_pair_medians(self):
        # pairs {0.2} and {0.6, 0.7}: pooled median 0.6, median of medians 0.425
        ds = make_dataset(
            [
                ("A", "J61.1", "P36-M001", 1.0, alternating(0.2)),
                ("B", "J61.2", "P36-M002", 1.0, alternating(0.6)),
                ("C", "J61.2", "P36-M002", 1.0, alternating(0.7)),
            ]
        )
        table = build_pairs(ds)
        d_star = global_distance(ds, RESOLVER)  # the median of all three, 0.6
        matrix = aggregate_matrix(table, default_province, default_division, RESOLVER)
        value, count = matrix.cell("P36", "J61")
        assert count == 3
        pooled = eid(1.0 - 0.6 / d_star)
        of_medians = eid(1.0 - 0.425 / d_star)
        assert value == pytest.approx(pooled, abs=1e-12)
        assert abs(value - of_medians) > 0.05

    def test_unmappable_code_reported_and_excluded(self):
        ds = with_d_star_half(
            [
                ("A", "J61.1", "P36-M001", 1.0, flat_demand()),
                ("B", "A01.2", "XXX", 1.0, flat_demand()),
            ]
        )
        table = build_pairs(ds)
        mapping = {"P36-M001": "P36"}
        matrix = aggregate_matrix(table, mapping.__getitem__, default_division, RESOLVER)
        assert matrix.provinces == ("P36",)
        assert any("XXX" in line for line in matrix.diagnostics)

    def test_slice_row_orders_by_indicator(self):
        ds = make_dataset(
            [
                ("A", "A01.1", "P36-M001", 1.0, alternating(0.1)),
                ("B", "B02.1", "P36-M001", 1.0, alternating(0.4)),
                ("C", "C03.1", "P36-M001", 1.0, alternating(0.25)),
            ]
        )
        table = build_pairs(ds)
        matrix = aggregate_matrix(table, default_province, default_division, RESOLVER)
        row = slice_row(matrix, "P36")
        assert [division for division, _, _ in row] == ["A01", "C03", "B02"]
        # recompute-and-sort oracle
        expected = sorted(
            ((d, *matrix.cell("P36", d)) for d in matrix.divisions),
            key=lambda cell: (-cell[1], cell[0]),
        )
        assert row == [(d, v, c) for d, v, c in expected]

    def test_slice_row_unknown_province(self):
        ds = with_d_star_half([("A", "J61.1", "P36-M001", 1.0, flat_demand())])
        matrix = aggregate_matrix(build_pairs(ds), default_province, default_division, RESOLVER)
        with pytest.raises(DataError, match="unknown province"):
            slice_row(matrix, "P99")

    def test_single_division_row(self):
        ds = with_d_star_half([("A", "J61.1", "P36-M001", 1.0, flat_demand())])
        matrix = aggregate_matrix(build_pairs(ds), default_province, default_division, RESOLVER)
        assert len(slice_row(matrix, "P36")) == 1


class TestMappings:
    def test_default_province_prefix(self):
        assert default_province("P36-M0001") == "P36"
        assert default_province("P36003") == "P36"  # no separator: first 3 chars
        with pytest.raises(KeyError):
            default_province("###")

    def test_default_division(self):
        assert default_division("J61.1") == "J61"
        with pytest.raises(KeyError):
            default_division("")

    def test_load_mapping(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("location,province\nP36-M0001,P36\n")
        mapping = load_mapping(path, pairing.LOCATION_MAP_HEADER)
        assert mapping == {"P36-M0001": "P36"}

    def test_load_mapping_bad_header(self, tmp_path):
        from retail_profiler.model import SchemaError

        path = tmp_path / "map.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(SchemaError):
            load_mapping(path, pairing.NACE_MAP_HEADER)


COLUMNS = ("n_k", "profiles", "avg_contracted", "avg_demand", "d_k", "e_k", "E_k")


class TestCsvRoundTrip:
    def test_write_read_exact(self, tmp_path, mid_run):
        _, dataset, _, table, _ = mid_run
        path = tmp_path / "pairs.csv"
        write_pair_table(table, path)
        loaded = read_pair_table(path, dataset)
        assert len(loaded) == len(table)
        assert (loaded.nace, loaded.location) == (table.nace, table.location)
        assert np.array_equal(loaded.member_rows, table.member_rows)
        for p in range(len(table)):
            assert member_ids(loaded, p) == member_ids(table, p)
        for column in COLUMNS:
            assert np.array_equal(getattr(loaded, column), getattr(table, column)), column

    def test_read_without_dataset_keeps_counts(self, tmp_path):
        ds = make_dataset(
            [(f"C{i}", "X", "L1", 1.0, offset_demand(100, 10 + i)) for i in range(3)]
        )
        table = attach_kpis(build_pairs(ds), RESOLVER)
        path = tmp_path / "pairs.csv"
        write_pair_table(table, path)
        loaded = read_pair_table(path)
        assert loaded.n_k[0] == 3
        assert loaded.member_rows is None
        stats = identification_stats(loaded)
        assert stats.pair_cardinality_histogram == {3: 1}

    def test_cardinality_mismatch_rejected(self, tmp_path):
        ds = make_dataset([("A", "X", "L1", 1.0, flat_demand())])
        table = build_pairs(ds)
        path = tmp_path / "pairs.csv"
        write_pair_table(table, path)
        bigger = make_dataset(
            [
                ("A", "X", "L1", 1.0, flat_demand()),
                ("B", "X", "L1", 1.0, flat_demand()),
            ]
        )
        with pytest.raises(DataError, match="n_k"):
            read_pair_table(path, bigger)

    def test_unknown_pair_rejected(self, tmp_path):
        ds = make_dataset([("A", "X", "L1", 1.0, flat_demand())])
        table = build_pairs(ds)
        path = tmp_path / "pairs.csv"
        write_pair_table(table, path)
        other = make_dataset([("A", "Y", "L1", 1.0, flat_demand())])
        with pytest.raises(DataError, match="not present"):
            read_pair_table(path, other)


    def test_profile_without_unit_mean_rejected(self, tmp_path):
        ds = make_dataset([("A", "X", "L1", 1.0, offset_demand())])
        path = tmp_path / "pairs.csv"
        write_pair_table(attach_kpis(build_pairs(ds), RESOLVER), path)
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[-1] = str(float(cells[-1]) + 0.5)
        path.write_text(header + "\n" + ",".join(cells) + "\n")
        with pytest.raises(DataError, match="line 2: normalized profile must have unit mean"):
            read_pair_table(path)

    def test_shuffled_rows_read_back_in_key_order(self, tmp_path, mid_run):
        _, dataset, _, table, _ = mid_run
        path = tmp_path / "pairs.csv"
        write_pair_table(table, path)
        header, *rows = path.read_text().splitlines()
        np.random.default_rng(0).shuffle(rows)
        path.write_text("\n".join([header] + rows) + "\n")
        for data in (dataset, None):
            loaded = read_pair_table(path, data)
            assert (loaded.nace, loaded.location) == (table.nace, table.location)
            for column in COLUMNS:
                assert np.array_equal(getattr(loaded, column), getattr(table, column)), column
        assert np.array_equal(read_pair_table(path, dataset).member_rows, table.member_rows)

    @staticmethod
    def three_pairs(tmp_path):
        """A pairs.csv of three KPI-attached pairs (lines 2-4), and its dataset."""
        ds = make_dataset(
            [(f"C{i}", f"N{i}", "L1", 1.0, offset_demand(100, 10 + i)) for i in range(3)]
        )
        path = tmp_path / "pairs.csv"
        write_pair_table(attach_kpis(build_pairs(ds), RESOLVER), path)
        return path, ds

    @staticmethod
    def set_cell(path, line, column, value):
        lines = path.read_text().splitlines()
        cells = lines[line - 1].split(",")
        cells[pairing.PAIR_TABLE_HEADER.index(column)] = value
        lines[line - 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    def test_duplicate_pair_rejected_naming_both_lines(self, tmp_path):
        path, ds = self.three_pairs(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[2]]) + "\n")
        for data in (ds, None):
            with pytest.raises(DataError, match=r"line 5: pair .*'N1'.* duplicates line 3"):
                read_pair_table(path, data)

    @pytest.mark.parametrize(
        "column,value,message",
        [
            ("n_k", "0", "n_k must be >= 1, got 0"),
            ("n_k", "-3", "n_k must be >= 1, got -3"),
            ("avg_contracted_kw", "nan", "avg_contracted_kw must be finite and >= 0, got nan"),
            ("avg_contracted_kw", "-1.5", "avg_contracted_kw must be finite and >= 0, got -1.5"),
            ("avg_demand_kwh", "inf", "avg_demand_kwh must be finite and >= 0, got inf"),
            ("d_k", "nan", "d_k must be finite, got nan"),
            ("e_k", "inf", "e_k must be finite, got inf"),
            ("E_k", "-inf", "E_k must be finite, got -inf"),
        ],
    )
    def test_malformed_row_rejected(self, tmp_path, column, value, message):
        path, _ = self.three_pairs(tmp_path)
        self.set_cell(path, 3, column, value)
        with pytest.raises(DataError, match=f"line 3: {message}$"):
            read_pair_table(path)

    def test_empty_kpi_cells_allowed(self, tmp_path):
        path, _ = self.three_pairs(tmp_path)
        for column in ("d_k", "e_k", "E_k"):
            self.set_cell(path, 3, column, "")
        loaded = read_pair_table(path)
        assert not loaded.has_kpis
        assert np.isnan(loaded.d_k[1]) and np.isfinite(loaded.d_k[[0, 2]]).all()
        again = tmp_path / "again.csv"
        write_pair_table(loaded, again)
        assert again.read_text() == path.read_text()

    def test_first_failing_line_wins_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pairing, "_BLOCK", 2)
        path, _ = self.three_pairs(tmp_path)
        self.set_cell(path, 4, "n_k", "x")
        with pytest.raises(DataError, match="line 4: malformed numeric field"):
            read_pair_table(path)
        # an earlier line that fails a table check comes first
        self.set_cell(path, 2, "p01", "5.0")
        with pytest.raises(DataError, match="line 2: normalized profile must have unit mean"):
            read_pair_table(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + ["N9,L1,1"]) + "\n")
        with pytest.raises(DataError, match="line 2: normalized profile"):
            read_pair_table(path)


class TestGlobalConsistency:
    def test_global_distance_matches_pooled_everything(self, mid_run):
        _, dataset, _, table, d_star = mid_run
        # d* is the median over exactly the customers the pairs partition
        distances = member_distances(table.dataset, RESOLVER_SOLAR)[table.member_rows]
        assert float(np.median(distances)) == pytest.approx(d_star, rel=1e-12)
