import math

import numpy as np
import pytest

from retail_profiler.model import DataError, normalize_profile
from retail_profiler.pairing import PairRecord, PairTable, attach_kpis, build_pairs
from retail_profiler.simulate import (
    QUANTILE_BLOCK,
    AcquisitionSequence,
    BaselineCurve,
    DistanceCurve,
    accumulate_curve,
    baseline_band,
    greedy_sequence,
    power_sequence,
    random_sequence,
    reduction_curve,
    _quartiles,
    write_baseline,
    write_curve,
)
from retail_profiler.targets import constant_resolver, flat_target
from tests.conftest import flat_demand, make_dataset, offset_demand

FLAT = flat_target()
RESOLVER = constant_resolver(FLAT)


def kpi_table(rows, d_star=0.5):
    ds = make_dataset(rows)
    return ds, attach_kpis(build_pairs(ds), RESOLVER, d_star)


def mixed_table():
    """Rows out of id order, some unpairable, contracted power full of ties."""
    rng = np.random.default_rng(23)
    rows = [
        (f"C{i:03d}", f"N{i % 7}" if i % 11 else "", f"L{i % 5}", float(i % 4 + 1),
         list(rng.uniform(5, 500, 12)))
        for i in rng.permutation(60)
    ]
    return kpi_table(rows)


def every_strategy(ds, table, seed):
    return [
        greedy_sequence(table, ds, seed),
        power_sequence(table, ds, "contracted", seed),
        power_sequence(table, ds, "demanded", seed),
        power_sequence(table, ds, "contracted", seed, per_customer=True),
        power_sequence(table, ds, "demanded", seed, per_customer=True),
        random_sequence(ds, ds.pairable_count, seed),
    ]


class TestGreedy:
    def test_better_pair_goes_first(self):
        ds, table = kpi_table(
            [
                ("A1", "GOOD", "L1", 1.0, offset_demand(100, 5)),
                ("A2", "GOOD", "L1", 1.0, offset_demand(100, 6)),
                ("B1", "BAD", "L1", 1.0, offset_demand(100, 45)),
                ("B2", "BAD", "L1", 1.0, offset_demand(100, 46)),
            ]
        )
        seq = greedy_sequence(table, ds, seed=0)
        assert set(seq.ids[:2]) == {"A1", "A2"}
        assert set(seq.ids[2:]) == {"B1", "B2"}

    def test_single_pair_is_seeded_permutation(self):
        ds, table = kpi_table(
            [(f"C{i}", "X", "L1", 1.0, offset_demand(100, 10)) for i in range(8)]
        )
        seq1 = greedy_sequence(table, ds, seed=42)
        seq2 = greedy_sequence(table, ds, seed=42)
        assert sorted(seq1.ids) == [f"C{i}" for i in range(8)]
        assert seq1.ids == seq2.ids

    def test_tie_break_by_pair_distance_then_key(self):
        ds = make_dataset(
            [(f"{k}-m", k, "L1", 1.0, flat_demand()) for k in ("A", "B", "C")]
        )
        record = lambda key, d, E: PairRecord(  # noqa: E731
            key=key,
            member_ids=(f"{key[0]}-m",),
            n_k=1,
            pair_profile=normalize_profile(flat_demand()),
            avg_contracted=1.0,
            avg_demand=1.0,
            d_k=d,
            e_k=E,
            E_k=E,
            member_rows=ds.rows_of((f"{key[0]}-m",)),
        )
        from retail_profiler.model import PairKey

        table = PairTable(
            records=(
                record(PairKey("A", "L1"), 0.3, 0.5),
                record(PairKey("B", "L1"), 0.2, 0.5),
                record(PairKey("C", "L1"), 0.2, 0.5),
            ),
            dataset=ds,
        )
        seq = greedy_sequence(table, None, seed=0)
        assert seq.ids == ("B-m", "C-m", "A-m")  # d_k ascending, then key
        assert seq.rows.tolist() == [1, 2, 0]

    def test_requires_kpis(self):
        ds = make_dataset([("A", "X", "L1", 1.0, flat_demand())])
        with pytest.raises(ValueError, match="KPIs"):
            greedy_sequence(build_pairs(ds), ds, seed=0)

    def test_requires_member_lists(self, tmp_path):
        from retail_profiler.pairing import read_pair_table, write_pair_table

        ds, table = kpi_table([("A", "X", "L1", 1.0, offset_demand())])
        path = tmp_path / "pairs.csv"
        write_pair_table(table, path)
        detached = read_pair_table(path)  # no dataset: members unknown
        with pytest.raises(ValueError, match="member lists"):
            greedy_sequence(detached, ds, seed=0)


class TestPowerSequence:
    def test_high_power_pair_first(self):
        ds, table = kpi_table(
            [
                ("SMALL", "X", "L1", 5.0, offset_demand(10, 1)),
                ("BIG", "Y", "L1", 100.0, offset_demand(1000, 100)),
            ]
        )
        seq = power_sequence(table, ds, "contracted", seed=0)
        assert seq.ids == ("BIG", "SMALL")
        assert seq.strategy == "contracted"

    def test_contracted_and_demanded_agree_when_aligned(self):
        ds, table = kpi_table(
            [
                ("A", "X", "L1", 10.0, flat_demand(100)),
                ("B", "Y", "L1", 20.0, flat_demand(200)),
                ("C", "Z", "L1", 30.0, flat_demand(300)),
            ]
        )
        by_kw = power_sequence(table, ds, "contracted", seed=1)
        by_kwh = power_sequence(table, ds, "demanded", seed=1)
        assert by_kw.ids == by_kwh.ids

    def test_per_customer_variant(self):
        ds, table = kpi_table(
            [
                ("A", "X", "L1", 10.0, flat_demand(100)),
                ("B", "X", "L1", 30.0, flat_demand(300)),
                ("C", "Y", "L2", 20.0, flat_demand(200)),
            ]
        )
        seq = power_sequence(table, ds, "contracted", seed=0, per_customer=True)
        assert seq.ids == ("B", "C", "A")

    def test_unknown_key(self):
        ds, table = kpi_table([("A", "X", "L1", 1.0, flat_demand())])
        with pytest.raises(ValueError):
            power_sequence(table, ds, "wealth", seed=0)

    def test_power_curves_sit_above_greedy_on_planted_data(self, mid_run, solar_default):
        # power ordering ignores fit, so on a dataset whose well-fitting
        # customers are planted independently of power it trails greedy
        _, dataset, _, table, _ = mid_run
        greedy = accumulate_curve(
            greedy_sequence(table, dataset, 8).prefix(1000), dataset, solar_default
        )
        for key in ("contracted", "demanded"):
            power = accumulate_curve(
                power_sequence(table, dataset, key, 8).prefix(1000), dataset, solar_default
            )
            assert power.at(1000) > 2 * greedy.at(1000)


class TestRandomSequence:
    def test_full_sample_is_permutation(self):
        ds = make_dataset(
            [(f"C{i}", "X", "L1", 1.0, offset_demand(100, 10)) for i in range(20)]
        )
        seq = random_sequence(ds, 20, seed=1)
        assert sorted(seq.ids) == sorted(ds.ids)

    def test_same_seed_same_sequence(self):
        ds = make_dataset(
            [(f"C{i}", "X", "L1", 1.0, offset_demand(100, 10)) for i in range(50)]
        )
        assert random_sequence(ds, 30, seed=9).ids == random_sequence(ds, 30, seed=9).ids

    def test_different_seeds_differ(self):
        ds = make_dataset(
            [(f"C{i}", "X", "L1", 1.0, offset_demand(100, 10)) for i in range(200)]
        )
        a = random_sequence(ds, 100, seed=1)
        b = random_sequence(ds, 100, seed=2)
        assert a.ids != b.ids

    def test_sample_too_large(self):
        ds = make_dataset([("A", "X", "L1", 1.0, flat_demand())])
        with pytest.raises(ValueError, match="exceeds"):
            random_sequence(ds, 2, seed=0)

    def test_excludes_unpairable(self):
        ds = make_dataset(
            [
                ("A", "X", "L1", 1.0, flat_demand()),
                ("NOKEY", "", "L1", 1.0, flat_demand()),
            ]
        )
        seq = random_sequence(ds, 1, seed=0)
        assert seq.ids == ("A",)


class TestRows:
    def test_ids_follow_rows(self):
        ds, table = mixed_table()
        for seq in every_strategy(ds, table, seed=3):
            assert seq.rows.dtype == np.intp
            assert not seq.rows.flags.writeable
            assert seq.ids == tuple(ds.ids[i] for i in seq.rows)
            assert seq.prefix(5).ids == seq.ids[:5]

    def test_pair_order_matches_id_list_shuffle(self):
        # reference: shuffle each pair's id list in turn with one generator
        ds, table = mixed_table()
        ordered = sorted(table.records, key=lambda r: (-r.E_k, r.d_k, r.key.nace, r.key.location))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            expected = []
            for record in ordered:
                members = list(record.member_ids)
                rng.shuffle(members)
                expected.extend(members)
            assert greedy_sequence(table, ds, seed).ids == tuple(expected)

    def test_per_customer_ties_broken_by_id(self):
        ds, table = mixed_table()
        expected = sorted(
            (i for i in ds.pairable_indices), key=lambda i: (-ds.contracted_kw[i], ds.ids[i])
        )
        seq = power_sequence(table, ds, "contracted", seed=0, per_customer=True)
        assert seq.rows.tolist() == expected


class TestAccumulate:
    def test_perfect_customer_gives_zero(self):
        ds = make_dataset([("A", "X", "L1", 1.0, flat_demand())])
        seq = AcquisitionSequence(rows=ds.rows_of(("A",)), dataset=ds, strategy="random", seed=0)
        curve = accumulate_curve(seq, ds, FLAT)
        assert curve.distance.tolist() == [0.0]

    def test_identical_customers_keep_shape(self):
        demand = offset_demand(100, 30)
        ds = make_dataset([("A", "X", "L1", 1.0, demand), ("B", "X", "L1", 1.0, demand)])
        seq = AcquisitionSequence(
            rows=ds.rows_of(("A", "B")), dataset=ds, strategy="random", seed=0
        )
        curve = accumulate_curve(seq, ds, FLAT)
        assert curve.distance[0] == curve.distance[1]

    def test_matches_from_scratch_oracle_small(self):
        rng = np.random.default_rng(17)
        rows = [
            (f"C{i}", "X", "L1", 1.0, list(rng.uniform(1, 500, 12))) for i in range(10)
        ]
        ds = make_dataset(rows)
        seq = random_sequence(ds, 10, seed=3)
        curve = accumulate_curve(seq, ds, FLAT)
        raw = {r[0]: np.array(r[4]) for r in rows}
        running = np.zeros(12)
        for step, cid in enumerate(seq.ids):
            running = raw[cid] + running if step else raw[cid].copy()
            shape = running / running.mean()
            oracle = math.sqrt(float(np.mean((shape - FLAT.values) ** 2)))
            assert curve.distance[step] == pytest.approx(oracle, rel=1e-9)

    def test_running_sum_overflow_is_data_error(self):
        # each row sums to ~1e308, the second step's running total overflows
        ds = make_dataset([(c, "X", "L1", 1.0, [8e306] * 12) for c in ("A", "B", "C")])
        seq = AcquisitionSequence(rows=[0, 1, 2], dataset=ds, strategy="random", seed=0)
        with pytest.raises(DataError, match="overflows float64 at step 2"):
            accumulate_curve(seq, ds, FLAT)

    def test_unknown_id(self):
        ds = make_dataset([("A", "X", "L1", 1.0, flat_demand())])
        with pytest.raises(DataError, match="unknown customer id: 'GHOST'"):
            ds.rows_of(("A", "GHOST"))

    def test_zero_demand_id(self):
        ds = make_dataset(
            [("A", "X", "L1", 1.0, flat_demand()), ("Z", "X", "L1", 1.0, [0.0] * 12)]
        )
        seq = AcquisitionSequence(
            rows=ds.rows_of(("A", "Z")), dataset=ds, strategy="random", seed=0
        )
        with pytest.raises(DataError, match="customer 'Z' has zero demand"):
            accumulate_curve(seq, ds, FLAT)

    def test_rows_outside_dataset(self):
        ds = make_dataset([("A", "X", "L1", 1.0, flat_demand())])
        for rows in ([1], [-1]):
            with pytest.raises(ValueError, match="must lie in"):
                AcquisitionSequence(rows=rows, dataset=ds, strategy="random", seed=0)

    def test_other_dataset_rejected(self):
        rows = [("A", "X", "L1", 1.0, flat_demand())]
        seq = random_sequence(make_dataset(rows), 1, seed=0)
        with pytest.raises(ValueError, match="different dataset"):
            accumulate_curve(seq, make_dataset(rows), FLAT)

    def test_prefix(self):
        ds = make_dataset(
            [(f"C{i}", "X", "L1", 1.0, offset_demand(100, 10)) for i in range(5)]
        )
        seq = random_sequence(ds, 5, seed=0)
        assert seq.prefix(3).ids == seq.ids[:3]
        assert seq.prefix(99) is seq


class TestDeterminism:
    def test_curves_bit_for_bit(self, mid_run, solar_default):
        _, dataset, _, table, _ = mid_run
        a = accumulate_curve(greedy_sequence(table, dataset, 7).prefix(500), dataset, solar_default)
        b = accumulate_curve(greedy_sequence(table, dataset, 7).prefix(500), dataset, solar_default)
        assert np.array_equal(a.distance, b.distance)

    def test_baseline_bit_for_bit(self, mid_run, solar_default):
        _, dataset, _, _, _ = mid_run
        a = baseline_band(dataset, solar_default, n=100, reps=5, seed=3)
        b = baseline_band(dataset, solar_default, n=100, reps=5, seed=3)
        assert np.array_equal(a.median, b.median)
        assert np.array_equal(a.q1, b.q1)
        assert np.array_equal(a.q3, b.q3)

    def test_threads_do_not_change_results(self, mid_run, solar_default):
        _, dataset, _, _, _ = mid_run
        serial = baseline_band(dataset, solar_default, n=200, reps=8, seed=11, threads=1)
        threaded = baseline_band(dataset, solar_default, n=200, reps=8, seed=11, threads=4)
        assert np.array_equal(serial.median, threaded.median)
        assert np.array_equal(serial.q1, threaded.q1)
        assert np.array_equal(serial.q3, threaded.q3)


class TestBaseline:
    def test_single_rep_band_collapses_to_curve(self):
        ds = make_dataset(
            [(f"C{i}", "X", "L1", 1.0, offset_demand(100, 5 * (i + 1))) for i in range(10)]
        )
        band = baseline_band(ds, FLAT, n=10, reps=1, seed=5)
        seq = random_sequence(ds, 10, np.random.SeedSequence([5, 0]))
        curve = accumulate_curve(seq, ds, FLAT)
        assert np.array_equal(band.median, curve.distance)
        assert np.array_equal(band.q1, band.median)
        assert np.array_equal(band.q3, band.median)

    def test_identical_customers_collapse_band(self):
        demand = offset_demand(100, 30)
        ds = make_dataset([(f"C{i}", "X", "L1", 1.0, demand) for i in range(12)])
        band = baseline_band(ds, FLAT, n=12, reps=10, seed=5)
        assert np.array_equal(band.q1, band.q3)

    def test_quartile_order(self, mid_run, solar_default):
        _, dataset, _, _, _ = mid_run
        band = baseline_band(dataset, solar_default, n=300, reps=20, seed=2)
        assert np.all(band.q1 <= band.median + 1e-15)
        assert np.all(band.median <= band.q3 + 1e-15)


    def test_blockwise_quartiles_equal_full_quantile(self):
        stack = np.random.default_rng(4).random((9, 2 * QUANTILE_BLOCK + 7))
        expected = np.quantile(stack, [0.25, 0.5, 0.75], axis=0)
        assert np.array_equal(_quartiles(stack), expected)


class TestReductionCurve:
    def fake(self, values):
        n = len(values)
        return DistanceCurve(steps=np.arange(1, n + 1), distance=np.array(values))

    def fake_baseline(self, values):
        n = len(values)
        arr = np.array(values)
        return BaselineCurve(
            steps=np.arange(1, n + 1), median=arr, q1=arr, q3=arr, repetitions=1
        )

    def test_equal_curves_give_zero(self):
        rows = reduction_curve(self.fake([0.3, 0.3]), self.fake_baseline([0.3, 0.3]), [1, 2])
        assert rows == [(1, 0.0), (2, 0.0)]

    def test_perfect_strategy_gives_one(self):
        rows = reduction_curve(self.fake([0.0]), self.fake_baseline([0.4]), [1])
        assert rows == [(1, 1.0)]

    def test_reported_solar_values(self):
        # baseline 0.474 vs strategy 0.209 at one thousand customers: ~56% cut
        strategy = self.fake([0.209])
        baseline = self.fake_baseline([0.474])
        [(_, r)] = reduction_curve(strategy, baseline, [1])
        assert r == pytest.approx(0.559, abs=5e-4)

    def test_zero_baseline_rejected(self):
        with pytest.raises(DataError):
            reduction_curve(self.fake([0.1]), self.fake_baseline([0.0]), [1])

    def test_checkpoint_out_of_range(self):
        with pytest.raises(ValueError):
            reduction_curve(self.fake([0.1]), self.fake_baseline([0.2]), [5])


class TestExhaustion:
    def test_all_strategies_converge(self):
        rng = np.random.default_rng(23)
        rows = [
            (f"C{i:03d}", f"N{i % 7}", f"L{i % 5}", float(rng.uniform(1, 50)),
             list(rng.uniform(5, 500, 12)))
            for i in range(60)
        ]
        ds = make_dataset(rows)
        table = attach_kpis(build_pairs(ds), RESOLVER, d_star=0.5)
        n = ds.pairable_count
        finals = []
        for seq in (
            greedy_sequence(table, ds, seed=1),
            power_sequence(table, ds, "contracted", seed=1),
            random_sequence(ds, n, seed=1),
        ):
            finals.append(accumulate_curve(seq, ds, FLAT).distance[-1])
        assert max(finals) - min(finals) <= 1e-9


class TestCsv:
    def test_curve_schema(self, tmp_path):
        curve = DistanceCurve(steps=np.array([1, 2]), distance=np.array([0.5, 0.25]))
        path = tmp_path / "curve.csv"
        write_curve(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,distance"
        assert lines[1] == "1,0.5"

    def test_baseline_schema(self, tmp_path):
        band = BaselineCurve(
            steps=np.array([1]),
            median=np.array([0.5]),
            q1=np.array([0.4]),
            q3=np.array([0.6]),
            repetitions=3,
        )
        path = tmp_path / "baseline.csv"
        write_baseline(band, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,median,q1,q3"
        assert lines[1] == "1,0.5,0.4,0.6"
