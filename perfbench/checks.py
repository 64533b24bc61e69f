"""Output checks for one benchmark pipeline run.

Each check names the CLI command whose output it inspects, so a failed check
counts as a failed operation of that command. The checks read the files the
commands wrote and compare them with the synthetic ground truth, with an
independent recomputation of a seeded sample of pair KPIs, and with the
invariants every acquisition curve must meet.
"""

from __future__ import annotations

import csv
import math
import statistics
from collections import Counter
from pathlib import Path

import numpy as np

from retail_profiler.metrics import eid, profile_distance
from retail_profiler.model import normalize_profile

SAMPLED_PAIRS = 200
KPI_RTOL = 1e-12
CURVE_RTOL = 1e-9


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def check_outputs(inputs: Path, root: Path, commands, target_of, d_star: float | None, seed: int) -> dict:
    """Return {command: [problem, ...]} for the outputs under ``root``.

    ``inputs`` holds what ``synth`` wrote; ``commands`` are the CLI commands
    that wrote under ``root``; ``target_of(location)``
    gives the unit-mean target profile of a pair; ``d_star`` is the reference
    distance the ``pairs`` command printed.
    """
    problems: dict[str, list[str]] = {command: [] for command in commands}
    truth = Counter((nace, location) for _, _, nace, location in _rows(inputs / "ground_truth.csv"))
    customers = sum(truth.values())

    pairs = _rows(root / "kpis/pairs.csv")
    if "pairs" in commands:
        problems["pairs"] += _check_pairs(inputs, pairs, truth, target_of, d_star, seed)
    if "stats" in commands:
        problems["stats"] += _check_stats(root, truth)
    if "matrix" in commands:
        total = sum(int(row[2]) for row in _rows(root / "matrix/matrix.csv"))
        if total != customers:
            problems["matrix"].append(f"matrix counts {total} customers, ground truth {customers}")
    if "simulate" in commands:
        problems["simulate"] += _check_curves(root / "sim", customers)
    return problems


def _check_pairs(inputs: Path, pairs, truth: Counter, target_of, d_star, seed: int) -> list[str]:
    out = []
    if len(pairs) != len(truth):
        out.append(f"{len(pairs)} pairs, ground truth has {len(truth)}")
    members = sum(int(row[2]) for row in pairs)
    if members != sum(truth.values()):
        out.append(f"sum of n_k is {members}, ground truth has {sum(truth.values())}")
    if d_star is None:
        return out + ["pairs did not report d(*)"]

    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pairs), size=min(SAMPLED_PAIRS, len(pairs)), replace=False)
    sample = {(pairs[i][0], pairs[i][1]): pairs[i] for i in picks}
    demand: dict[tuple[str, str], list[list[float]]] = {key: [] for key in sample}
    for row in _rows(inputs / "customers.csv"):
        rows = demand.get((row[1], row[2]))
        if rows is not None:
            rows.append([float(cell) for cell in row[4:]])

    for (nace, location), row in sample.items():
        target = target_of(location)
        d_k, e_k, E_k = (float(cell) for cell in row[5:8])
        d = statistics.median(
            profile_distance(normalize_profile(raw), target) for raw in demand[(nace, location)]
        )
        if not _close(d_k, d, KPI_RTOL):
            out.append(f"pair {nace},{location}: d_k {d_k!r}, recomputed {d!r}")
        if not _close(e_k, 1.0 - d_k / d_star, KPI_RTOL):
            out.append(f"pair {nace},{location}: e_k {e_k!r} is not 1 - d_k/d*")
        if not _close(E_k, eid(e_k), KPI_RTOL):
            out.append(f"pair {nace},{location}: E_k {E_k!r} is not eid(e_k)")
    return out


def _check_stats(root: Path, truth: Counter) -> list[str]:
    expected = Counter(truth.values())
    got = {int(row[0]): int(row[1]) for row in _rows(root / "stats/identification_stats.csv")}
    got = {size: count for size, count in got.items() if count}
    if got != dict(expected):
        return [f"identification histogram {sorted(got.items())[:5]}... differs from ground truth"]
    return []


def _check_curves(sim: Path, n: int) -> list[str]:
    out = []
    finals = {}
    for path in sorted(sim.glob("curve_*.csv")):
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if values.shape[0] != n or not np.array_equal(values[:, 0], np.arange(1, n + 1)):
            out.append(f"{path.name}: {values.shape[0]} rows, expected steps 1..{n}")
            continue
        finals[path.name] = values[-1, 1]
    baseline = sim / "baseline.csv"
    if baseline.exists():
        values = np.loadtxt(baseline, delimiter=",", skiprows=1, ndmin=2)
        step, median, q1, q3 = values.T
        if values.shape[0] != n or not np.array_equal(step, np.arange(1, n + 1)):
            out.append(f"baseline.csv: {values.shape[0]} rows, expected steps 1..{n}")
        elif not (np.all(q1 <= median) and np.all(median <= q3)):
            out.append("baseline.csv: q1 <= median <= q3 does not hold at every step")
        else:
            finals["baseline.csv"] = median[-1]
    if not finals:
        out.append("no curve written")
    reference = next(iter(finals.values()), math.nan)
    for name, value in finals.items():
        if not _close(value, reference, CURVE_RTOL):
            out.append(f"{name}: distance {value!r} at step {n} differs from {reference!r}")
    return out
