"""Shared fixtures: hand-built CSV helpers and cached synthetic datasets."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from retail_profiler import pairing, synth, targets
from retail_profiler.model import CUSTOMER_CSV_HEADER, CustomerDataset, encode

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"


def reference_config() -> synth.SynthConfig:
    """The fixed-seed generator config the repo ships, as ``synth --config`` reads it."""
    return synth.SynthConfig.from_dict(json.loads(REFERENCE_CONFIG.read_text()))


def write_customer_csv(path, rows):
    """Write rows of (id, nace, location, contracted, 12 demands) to a CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CUSTOMER_CSV_HEADER)
        for row in rows:
            cid, nace, location, kw, demand = row
            writer.writerow([cid, nace, location, kw] + list(demand))


def flat_demand(level=100.0):
    return [level] * 12


def offset_demand(base=100.0, swing=50.0):
    """Alternating high/low months; unit-mean shape is 1 +- swing/base."""
    return [base + swing if j % 2 == 0 else base - swing for j in range(12)]


def dataset_from_strings(ids, nace, location, contracted_kw, raw_demand, diagnostics=()) -> CustomerDataset:
    """A dataset from key columns that hold one string per row."""
    naces, locations = tuple(sorted(set(nace))), tuple(sorted(set(location)))
    nace, location = encode(nace, naces), encode(location, locations)
    return CustomerDataset(tuple(ids), nace, location, naces, locations, contracted_kw, raw_demand, tuple(diagnostics))


def make_dataset(rows) -> CustomerDataset:
    """Dataset from (id, nace, location, kw, demand-list) tuples."""
    return dataset_from_strings(
        ids=tuple(r[0] for r in rows),
        nace=tuple(r[1] for r in rows),
        location=tuple(r[2] for r in rows),
        contracted_kw=np.array([r[3] for r in rows], dtype=float),
        raw_demand=np.array([r[4] for r in rows], dtype=float),
    )


def row_keys(columns) -> list[tuple[str, str]]:
    """Each row's (nace, location) strings, in row order, of a customer dataset or a pair table."""
    codes = zip(columns.nace.tolist(), columns.location.tolist())
    return [(columns.naces[nace], columns.locations[location]) for nace, location in codes]


def rows_of(dataset, customer_ids) -> np.ndarray:
    """Row indices of the given customer ids, in the order given."""
    return np.array([dataset.index_of(cid) for cid in customer_ids], dtype=np.intp)


@pytest.fixture(scope="session")
def solar_default():
    return targets.default_solar_target()


@pytest.fixture(scope="session")
def reference_run(solar_default):
    """The fixed-seed reference dataset with its ground truth."""
    config = reference_config()
    dataset, truth = synth.generate(config, solar_default)
    return config, dataset, truth


@pytest.fixture(scope="session")
def mid_run(solar_default):
    """A 10^4-customer dataset with KPI-attached pair table."""
    config = synth.SynthConfig(
        n_customers=10_000,
        n_locations=80,
        n_nace=60,
        planted_fraction=0.02,
        noise_sigma=0.05,
        seed=5,
    )
    dataset, truth = synth.generate(config, solar_default)
    resolver = targets.constant_resolver(solar_default)
    table = pairing.attach_kpis(pairing.build_pairs(dataset), resolver)
    return config, dataset, truth, table, table.d_star
