import numpy as np
import pytest

from retail_profiler import kernels
from retail_profiler.metrics import global_distance
from retail_profiler.model import DataError, save_customers
from retail_profiler.pairing import build_pairs, identification_stats
from retail_profiler.synth import (
    GroundTruth,
    SynthConfig,
    generate,
    planted_distance_bound,
    read_ground_truth,
    write_ground_truth,
)
from retail_profiler.targets import constant_resolver, default_solar_target, flat_target


TARGET = default_solar_target()


def small_config(**overrides):
    base = dict(
        n_customers=800,
        n_locations=25,
        n_nace=20,
        planted_fraction=0.05,
        noise_sigma=0.05,
        seed=13,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_customers=0, n_locations=1, n_nace=1)
        with pytest.raises(ValueError):
            small_config(planted_fraction=1.5)
        with pytest.raises(ValueError):
            small_config(noise_sigma=0.4)
        with pytest.raises(ValueError):
            small_config(amplitude_range=(0.5, 1.2))
        with pytest.raises(ValueError):
            small_config(sector_noise_range=(0.2, 0.5))
        with pytest.raises(ValueError):
            small_config(pair_concentration=-1)

    def test_dict_round_trip(self):
        config = small_config()
        assert SynthConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(DataError):
            SynthConfig.from_dict({"n_customers": 1, "bogus": 2})

    def test_reference_values(self):
        ref = SynthConfig.reference()
        assert ref.n_customers == 100_000
        assert ref.n_locations == 200
        assert ref.n_nace == 150
        assert ref.planted_fraction == 0.02
        assert ref.noise_sigma == 0.05
        assert ref.seed == 42

    def test_shipped_reference_config_file_matches(self):
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
        assert SynthConfig.from_dict(json.loads(path.read_text())) == SynthConfig.reference()


class TestGenerate:
    def test_counts_and_nonnegativity(self):
        ds, truth = generate(small_config(), TARGET)
        assert ds.total == 800
        assert ds.pairable_count == 800
        assert np.all(ds.raw_demand >= 0)
        assert np.all(ds.contracted_kw >= 0)
        assert truth.planted_count == 40  # 0.05 * 800

    def test_single_customer(self):
        ds, truth = generate(SynthConfig(n_customers=1, n_locations=1, n_nace=1, seed=1), TARGET)
        assert ds.total == 1
        table = build_pairs(ds)
        assert len(table) == 1
        assert table.n_k[0] == 1

    def test_composition_matches_pair_table_exactly(self):
        ds, truth = generate(small_config(), TARGET)
        stats = identification_stats(build_pairs(ds))
        assert stats.pair_cardinality_histogram == truth.cardinality_histogram
        assert stats.nonempty_pair_count == len(truth.pair_composition)
        table = build_pairs(ds)
        realized = dict(zip(zip(table.nace, table.location), table.n_k.tolist()))
        assert realized == truth.pair_composition

    def test_planted_pairs_are_pure_and_separate(self):
        ds, truth = generate(small_config(), TARGET)
        groups = ds.pair_groups
        keys = zip(groups.nace, groups.location)
        members = dict(zip(keys, np.split(groups.rows, groups.offsets[1:-1])))
        planted_members = {
            ds.ids[i] for key in truth.planted_pairs for i in members[key]
        }
        assert planted_members == set(truth.planted_ids)

    def test_fully_planted_noiseless_dataset_matches_target(self):
        config = small_config(planted_fraction=1.0, noise_sigma=0.0)
        ds, truth = generate(config, TARGET)
        assert truth.planted_count == ds.total
        d = global_distance(ds, constant_resolver(TARGET))
        assert d <= 1e-12

    def test_planted_distances_within_documented_bound(self):
        config = small_config(noise_sigma=0.08)
        ds, truth = generate(config, TARGET)
        bound = planted_distance_bound(config.noise_sigma, TARGET)
        planted_rows = [i for i, cid in enumerate(ds.ids) if cid in truth.planted_ids]
        distances = kernels.normalized_rmsd(ds.raw_demand[planted_rows], TARGET.values)
        assert float(distances.max()) <= bound

    def test_byte_identical_regeneration(self, tmp_path):
        config = small_config()
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        ds1, _ = generate(config, TARGET)
        ds2, _ = generate(config, TARGET)
        save_customers(ds1, first)
        save_customers(ds2, second)
        assert first.read_bytes() == second.read_bytes()

    def test_different_seeds_differ(self):
        ds1, _ = generate(small_config(seed=1), TARGET)
        ds2, _ = generate(small_config(seed=2), TARGET)
        assert not np.array_equal(ds1.raw_demand, ds2.raw_demand)

    def test_planting_requires_positive_target(self):
        negative = flat_target().values.copy()
        negative[0] = -0.2
        negative[1] = 2.2
        from retail_profiler.model import TargetProfile

        bad = TargetProfile(negative, "custom")
        with pytest.raises(DataError, match="strictly positive"):
            generate(small_config(), bad)

    def test_key_space_exhaustion(self):
        config = SynthConfig(
            n_customers=500,
            n_locations=2,
            n_nace=2,
            pair_concentration=6.0,  # nearly all singletons -> needs ~500 keys
            seed=3,
        )
        with pytest.raises(DataError, match="keys exist"):
            generate(config, TARGET)

    def test_singleton_dominated_histogram(self):
        ds, truth = generate(
            small_config(n_customers=2000, n_locations=40, n_nace=30, seed=9), TARGET
        )
        hist = truth.cardinality_histogram
        total_pairs = sum(hist.values())
        assert hist.get(1, 0) / total_pairs > 0.4


class TestBound:
    def test_closed_form(self):
        bound = planted_distance_bound(0.05, flat_target())
        assert bound == pytest.approx(6 * 0.05 / 0.85, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            planted_distance_bound(0.5, flat_target())


class TestGroundTruthSidecar:
    def test_round_trip(self, tmp_path):
        ds, truth = generate(small_config(), TARGET)
        path = tmp_path / "truth.csv"
        write_ground_truth(ds, truth, path)
        pairs, planted = read_ground_truth(path)
        assert planted == truth.planted_ids
        assert len(pairs) == ds.total
        for i, cid in enumerate(ds.ids):
            assert pairs[cid] == (ds.nace[i], ds.location[i])

    def test_histogram_property(self):
        truth = GroundTruth(
            pair_composition={("A", "L1"): 1, ("B", "L1"): 1, ("C", "L2"): 3},
            planted_pairs=frozenset(),
            planted_ids=frozenset(),
        )
        assert truth.cardinality_histogram == {1: 2, 3: 1}
