import math

import numpy as np
import pytest

from retail_profiler.model import DataError
from retail_profiler.pairing import PairTable, attach_kpis, build_pairs, read_pair_table, write_pair_table
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
from retail_profiler.targets import constant_resolver, default_solar_target, flat_target
from tests.conftest import flat_demand, make_dataset, offset_demand

FLAT = flat_target()
RESOLVER = constant_resolver(FLAT)
# flat customers all fit FLAT, which would make d* = 0; they are scored against this
SOLAR = constant_resolver(default_solar_target())


def kpi_table(rows, resolver=RESOLVER):
    ds = make_dataset(rows)
    return ds, attach_kpis(build_pairs(ds), resolver)


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
        greedy_sequence(table, seed),
        power_sequence(table, "contracted", seed),
        power_sequence(table, "demanded", seed),
        power_sequence(table, "contracted", seed, per_customer=True),
        power_sequence(table, "demanded", seed, per_customer=True),
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
        seq = greedy_sequence(table, seed=0)
        assert set(seq.ids[:2]) == {"A1", "A2"}
        assert set(seq.ids[2:]) == {"B1", "B2"}

    def test_single_pair_is_seeded_permutation(self):
        ds, table = kpi_table(
            [(f"C{i}", "X", "L1", 1.0, offset_demand(100, 10)) for i in range(8)]
        )
        seq1 = greedy_sequence(table, seed=42)
        seq2 = greedy_sequence(table, seed=42)
        assert sorted(seq1.ids) == [f"C{i}" for i in range(8)]
        assert seq1.ids == seq2.ids

    def test_tie_break_by_pair_distance_then_key(self):
        ds = make_dataset(
            [(f"{k}-m", k, "L1", 1.0, flat_demand()) for k in ("A", "B", "C")]
        )
        table = PairTable(
            nace=("A", "B", "C"),
            location=("L1", "L1", "L1"),
            n_k=np.ones(3, dtype=np.intp),
            profiles=np.ones((3, 12)),
            avg_contracted=np.ones(3),
            avg_demand=np.ones(3),
            d_k=np.array([0.3, 0.2, 0.2]),
            e_k=np.full(3, 0.5),
            E_k=np.full(3, 0.5),
            member_rows=ds.rows_of(("A-m", "B-m", "C-m")),
            dataset=ds,
        )
        seq = greedy_sequence(table, seed=0)
        assert seq.ids == ("B-m", "C-m", "A-m")  # d_k ascending, then key
        assert seq.rows.tolist() == [1, 2, 0]

    def test_requires_kpis(self):
        ds = make_dataset([("A", "X", "L1", 1.0, flat_demand())])
        with pytest.raises(ValueError, match="KPIs"):
            greedy_sequence(build_pairs(ds), seed=0)

    def test_requires_member_lists(self, tmp_path):
        ds, table = kpi_table([("A", "X", "L1", 1.0, offset_demand())])
        path = tmp_path / "pairs.csv"
        write_pair_table(table, path)
        detached = read_pair_table(path)  # no dataset: members unknown
        with pytest.raises(ValueError, match="member lists"):
            greedy_sequence(detached, seed=0)


class TestPowerSequence:
    def test_high_power_pair_first(self):
        ds, table = kpi_table(
            [
                ("SMALL", "X", "L1", 5.0, offset_demand(10, 1)),
                ("BIG", "Y", "L1", 100.0, offset_demand(1000, 100)),
            ]
        )
        seq = power_sequence(table, "contracted", seed=0)
        assert seq.ids == ("BIG", "SMALL")
        assert seq.strategy == "contracted"

    def test_contracted_and_demanded_agree_when_aligned(self):
        ds, table = kpi_table(
            [
                ("A", "X", "L1", 10.0, flat_demand(100)),
                ("B", "Y", "L1", 20.0, flat_demand(200)),
                ("C", "Z", "L1", 30.0, flat_demand(300)),
            ],
            SOLAR,
        )
        by_kw = power_sequence(table, "contracted", seed=1)
        by_kwh = power_sequence(table, "demanded", seed=1)
        assert by_kw.ids == by_kwh.ids

    def test_per_customer_variant(self):
        ds, table = kpi_table(
            [
                ("A", "X", "L1", 10.0, flat_demand(100)),
                ("B", "X", "L1", 30.0, flat_demand(300)),
                ("C", "Y", "L2", 20.0, flat_demand(200)),
            ],
            SOLAR,
        )
        seq = power_sequence(table, "contracted", seed=0, per_customer=True)
        assert seq.ids == ("B", "C", "A")

    def test_unknown_key(self):
        ds, table = kpi_table([("A", "X", "L1", 1.0, flat_demand())], SOLAR)
        with pytest.raises(ValueError):
            power_sequence(table, "wealth", seed=0)

    def test_power_curves_sit_above_greedy_on_planted_data(self, mid_run, solar_default):
        # power ordering ignores fit, so on a dataset whose well-fitting
        # customers are planted independently of power it trails greedy
        _, dataset, _, table, _ = mid_run
        greedy = accumulate_curve(
            greedy_sequence(table, 8).prefix(1000), solar_default
        )
        for key in ("contracted", "demanded"):
            power = accumulate_curve(
                power_sequence(table, key, 8).prefix(1000), solar_default
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
        # reference: sort the pairs with a Python key, then shuffle each
        # pair's id list in turn with one generator
        ds, table = mixed_table()
        member_ids = [
            [ds.ids[i] for i in table.member_rows[lo:hi]]
            for lo, hi in zip(table.groups.offsets[:-1], table.groups.offsets[1:])
        ]
        columns = {"eid": table.E_k, "contracted": table.avg_contracted, "demanded": table.avg_demand}
        for strategy, power in columns.items():
            ordered = sorted(
                zip(power.tolist(), table.d_k.tolist(), table.nace, table.location, member_ids),
                key=lambda pair: (-pair[0], pair[1], pair[2], pair[3]),
            )
            for seed in range(5):
                rng = np.random.default_rng(seed)
                expected = []
                for *_, ids in ordered:
                    members = list(ids)
                    rng.shuffle(members)
                    expected.extend(members)
                if strategy == "eid":
                    seq = greedy_sequence(table, seed)
                else:
                    seq = power_sequence(table, strategy, seed)
                assert seq.ids == tuple(expected), (strategy, seed)

    def test_per_customer_ties_broken_by_id(self):
        ds, table = mixed_table()
        expected = sorted(
            (i for i in ds.pairable_indices), key=lambda i: (-ds.contracted_kw[i], ds.ids[i])
        )
        seq = power_sequence(table, "contracted", seed=0, per_customer=True)
        assert seq.rows.tolist() == expected

    def test_per_customer_ranks_only_the_listed_customers(self, tmp_path):
        ds, table = mixed_table()
        path = tmp_path / "pairs.csv"
        write_pair_table(table, path)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + rows[:3]) + "\n")
        subset = read_pair_table(path, ds)
        for key in ("contracted", "demanded"):
            seq = power_sequence(subset, key, seed=0, per_customer=True)
            assert sorted(seq.rows.tolist()) == sorted(subset.member_rows.tolist())


class TestAccumulate:
    def test_perfect_customer_gives_zero(self):
        ds = make_dataset([("A", "X", "L1", 1.0, flat_demand())])
        seq = AcquisitionSequence(rows=ds.rows_of(("A",)), dataset=ds, strategy="random", seed=0)
        curve = accumulate_curve(seq, FLAT)
        assert curve.distance.tolist() == [0.0]

    def test_identical_customers_keep_shape(self):
        demand = offset_demand(100, 30)
        ds = make_dataset([("A", "X", "L1", 1.0, demand), ("B", "X", "L1", 1.0, demand)])
        seq = AcquisitionSequence(
            rows=ds.rows_of(("A", "B")), dataset=ds, strategy="random", seed=0
        )
        curve = accumulate_curve(seq, FLAT)
        assert curve.distance[0] == curve.distance[1]

    def test_matches_from_scratch_oracle_small(self):
        rng = np.random.default_rng(17)
        rows = [
            (f"C{i}", "X", "L1", 1.0, list(rng.uniform(1, 500, 12))) for i in range(10)
        ]
        ds = make_dataset(rows)
        seq = random_sequence(ds, 10, seed=3)
        curve = accumulate_curve(seq, FLAT)
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
            accumulate_curve(seq, FLAT)

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
            accumulate_curve(seq, FLAT)

    def test_rows_outside_dataset(self):
        ds = make_dataset([("A", "X", "L1", 1.0, flat_demand())])
        for rows in ([1], [-1]):
            with pytest.raises(ValueError, match="must lie in"):
                AcquisitionSequence(rows=rows, dataset=ds, strategy="random", seed=0)

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
        a = accumulate_curve(greedy_sequence(table, 7).prefix(500), solar_default)
        b = accumulate_curve(greedy_sequence(table, 7).prefix(500), solar_default)
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
        curve = accumulate_curve(seq, FLAT)
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
        return DistanceCurve(distance=np.array(values))

    def fake_baseline(self, values):
        arr = np.array(values)
        return BaselineCurve(median=arr, q1=arr, q3=arr, repetitions=1)

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
        table = attach_kpis(build_pairs(ds), RESOLVER)
        n = ds.pairable_count
        finals = []
        for seq in (
            greedy_sequence(table, seed=1),
            power_sequence(table, "contracted", seed=1),
            random_sequence(ds, n, seed=1),
        ):
            finals.append(accumulate_curve(seq, FLAT).distance[-1])
        assert max(finals) - min(finals) <= 1e-9


class TestCsv:
    def test_curve_schema(self, tmp_path):
        curve = DistanceCurve(distance=np.array([0.5, 0.25]))
        path = tmp_path / "curve.csv"
        write_curve(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,distance"
        assert lines[1] == "1,0.5"

    def test_baseline_schema(self, tmp_path):
        band = BaselineCurve(
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
