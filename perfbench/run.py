#!/usr/bin/env python3
"""End-to-end benchmark of the retail-profiler CLI pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload generates its inputs from ``--seed`` (the synth config seed, the
solar-table amplitudes, the sampled output checks and ``simulate --seed``)
and runs the real CLI commands as subprocesses, one at a time (a closed loop
with one client). The CLI receives only the generated files and flags. A
workload's commands come in legs: each leg runs against one target on the
workload's shared inputs and writes to a directory of its own.

``--trace 0`` sets the inputs up ``SETUP_REPEATS`` times, runs the workload's
command sequence once, then runs it again one command at a time for as long
as the next command is expected to end within ``--seconds`` seconds, and
reports the end-to-end metrics from each command's median wall time.
``--trace 1`` sets up once, runs the sequence once untraced and once more with
every command launched through ``tracer.py``, and reports the per-layer
metrics. Both modes check every output (see ``checks.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics printed
are those ``BENCHMARK.json`` lists for the mode. A fuller record, with the
environment, every sample and every output digest, is written to
``.perfbench-runs/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer

HERE = Path(__file__).resolve().parent
SRC = Path("src")
REFERENCE_CONFIG = Path("configs/reference.json")
RUNS = Path(".perfbench-runs")
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 150
# --threads 2 ran no faster than 1 on a 2-core host (the repetitions hold the
# GIL) and its wall time spread twice as wide from run to run
BASELINE_THREADS = 1
# where each CLI command writes: synth under the workload's root, the others
# under their leg's directory
OUT_DIRS = {"synth": "inputs", "pairs": "kpis", "stats": "stats", "matrix": "matrix", "simulate": "sim"}


@dataclass(frozen=True)
class Leg:
    """CLI commands run against one target on a workload's inputs.

    The leg reads ``<root>/inputs`` and writes under ``<root>/<name>/``.
    """

    name: str
    target: str  # a target spec, or "table" for the generated per-province solar table
    commands: tuple[str, ...]
    strategies: str = ""

    def args(self, command: str, root: Path, seed: int) -> list[str]:
        given, inputs, own = root / "given", root / "inputs", root / self.name
        target = f"solar:{given / 'solar_table.csv'}" if self.target == "table" else self.target
        customers, pairs = str(inputs / "customers.csv"), str(own / "kpis/pairs.csv")
        out = ["--out", str(own / OUT_DIRS[command])]
        if command == "pairs":
            return ["pairs", "--customers", customers, "--target", target] + out
        if command == "stats":
            return ["stats", "--pairs", pairs] + out
        if command == "matrix":
            return ["matrix", "--pairs", pairs, "--customers", customers, "--target", target] + out
        extra = ["--reps", "100", "--threads", str(BASELINE_THREADS)] if "random" in self.strategies else []
        return [
            "simulate", "--customers", customers, "--pairs", pairs, "--target", target,
            "--strategies", self.strategies, "--seed", str(seed),
        ] + extra + out

    def target_of(self, root: Path):
        """Unit-mean target profile of a pair, by location, computed independently of the CLI."""
        if self.target == "flat":
            flat = np.ones(12)
            return lambda location: flat
        if self.target == "solar:default":
            solar = _solar_row(0.35)
            return lambda location: solar / solar.mean()
        targets = {}
        for line in (root / "given/solar_table.csv").read_text().splitlines()[1:]:
            province, *cells = line.split(",")
            row = np.array([float(c) for c in cells])
            targets[province] = row / row.mean()
        # synth names locations <province>-M<number>
        return lambda location: targets[location.split("-")[0]]


@dataclass(frozen=True)
class Workload:
    """One set of generated inputs and the legs of CLI commands run on them."""

    config: dict  # overrides on configs/reference.json
    legs: tuple[Leg, ...]

    @property
    def steps(self) -> list[tuple[Leg, str]]:
        """The analyst's command sequence, in order."""
        return [(leg, command) for leg in self.legs for command in leg.commands]


SETUP = [(None, "synth")]  # plus the files write_given makes

# why each workload is here: see BENCHMARK.json and README.md
WORKLOADS = {
    "reference": Workload(
        config={},
        legs=(
            Leg("provinces", "table", ("pairs", "stats", "matrix")),
            Leg("solar", "solar:default", ("pairs", "simulate"), "eid,contracted,demanded,random"),
        ),
    ),
    "fragmented-pipeline": Workload(
        config={"n_locations": 2000, "n_nace": 500, "pair_concentration": 3.0, "max_pair_size": 20},
        legs=(Leg("flat", "flat", ("pairs", "stats", "matrix", "simulate"), "eid,contracted,demanded"),),
    ),
}


def _solar_row(amplitude: float) -> np.ndarray:
    months = np.arange(1, 13, dtype=np.float64)
    return 1.0 + amplitude * np.cos(2.0 * np.pi * (months - 7) / 12)


@dataclass
class Op:
    """One CLI command run: what it was, how long it took, what went wrong."""

    leg: str  # "" for set-up
    command: str
    wall_s: float
    rss_mb: float
    stdout: Path
    spans: Path | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def step(self) -> str:
        return f"{self.leg}.{self.command}" if self.leg else self.command

    @property
    def out_dir(self) -> str:
        """Where the command wrote, relative to the workload's root."""
        return f"{self.leg}/{OUT_DIRS[self.command]}" if self.leg else OUT_DIRS[self.command]


def child_env() -> dict[str, str]:
    """The environment of every CLI process: the package from ``src``, no ambient overrides."""
    env = dict(os.environ)
    env.pop("RETAIL_PROFILER_KERNELS", None)
    env.pop("RETAIL_PROFILER_THREADS", None)
    env["PYTHONPATH"] = str(SRC.resolve())
    return env


def run_cli(leg: str, command: str, args: list[str], logs: Path, traced: bool) -> Op:
    """Run one CLI command to completion and measure its wall time and peak RSS."""
    label = f"{len(list(logs.glob('*.out'))):03d}-{leg or 'setup'}-{command}"
    stdout, stderr = logs / f"{label}.out", logs / f"{label}.err"
    spans = logs / f"{label}.spans.json" if traced else None
    launcher = [sys.executable, str(HERE / "tracer.py"), str(spans)] if traced else [
        sys.executable, "-m", "retail_profiler.cli"]
    with stdout.open("wb") as out, stderr.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            launcher + args, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env()
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(leg, command, wall, usage.ru_maxrss / 1024.0, stdout, spans)
    if proc.returncode != 0:
        op.problems.append(f"exit code {proc.returncode}")
    if b"Traceback" in stderr.read_bytes():
        op.problems.append("traceback on stderr")
    return op


def write_given(workload: Workload, root: Path, seed: int) -> None:
    """The files the benchmark itself hands to the CLI: synth config and solar table."""
    given = root / "given"
    given.mkdir(parents=True, exist_ok=True)
    config = json.loads(REFERENCE_CONFIG.read_text())
    config.update(workload.config, seed=seed)
    (given / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    if any(leg.target == "table" for leg in workload.legs):
        n_provinces = min(52, -(-config["n_locations"] // 8))  # as synth assigns them
        amplitudes = np.random.default_rng(seed).uniform(0.1, 0.6, size=n_provinces)
        lines = ["province," + ",".join(f"m{j:02d}" for j in range(1, 13))]
        for p, amplitude in enumerate(amplitudes, start=1):
            lines.append(f"P{p:02d}," + ",".join(repr(float(v)) for v in _solar_row(amplitude)))
        (given / "solar_table.csv").write_text("\n".join(lines) + "\n")


def run_steps(steps, root: Path, seed: int, traced: bool) -> list[Op]:
    """Run the (leg, command) steps in order under ``root``; stop at the first failure."""
    logs = root / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    ops = []
    for leg, command in steps:
        if leg is None:
            args = [command, "--config", str(root / "given/config.json"), "--out", str(root / OUT_DIRS[command])]
        else:
            args = leg.args(command, root, seed)
        ops.append(run_cli(leg.name if leg else "", command, args, logs, traced))
        if ops[-1].problems:
            break
    return ops


def digests(root: Path, ops: list[Op]) -> dict[str, str]:
    """SHA-256 of every CSV the commands of ``ops`` wrote under ``root``."""
    out = {}
    for directory in dict.fromkeys(op.out_dir for op in ops):
        for path in sorted((root / directory).glob("*.csv")):
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def blame(ops: list[Op], step: str, problem: str) -> None:
    """Charge a problem to the last run of ``step``."""
    for op in reversed(ops):
        if op.step == step:
            op.problems.append(problem)
            return


def check(workload: Workload, root: Path, seed: int, ops: list[Op]) -> None:
    """Check the outputs of a completed sequence; charge problems to the commands."""
    if any(op.problems for op in ops):
        return
    from checks import check_outputs

    for leg in workload.legs:
        mine = [op for op in ops if op.leg == leg.name]
        commands = sorted({op.command for op in mine})
        d_star = None
        for op in mine:
            for line in op.stdout.read_text().splitlines():
                if line.startswith("d(*) = "):
                    d_star = float(line.split("=", 1)[1])
        try:
            problems = check_outputs(
                root / "inputs", root / leg.name, commands, leg.target_of(root), d_star, seed)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems = {commands[-1]: [f"output check could not read the outputs: {exc!r}"]}
        for command, found in problems.items():
            for problem in found:
                blame(ops, f"{leg.name}.{command}", problem)


def same_outputs(ops: list[Op], reference: dict, got: dict, what: str) -> None:
    for name, digest in got.items():
        if reference.get(name) != digest:
            writer = next(op for op in reversed(ops) if name.startswith(op.out_dir + "/"))
            blame(ops, writer.step, f"{name} differs from the {what}")


def environment() -> dict:
    probe = (
        "import json, os, platform, numpy, retail_profiler.kernels as k; print(json.dumps({"
        "'nproc': len(os.sched_getaffinity(0)), 'python': platform.python_version(), "
        "'numpy': numpy.__version__, 'kernels_backend': k.BACKEND}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def measure(workload: Workload, root: Path, seed: int, seconds: float) -> tuple[list[Op], dict, dict]:
    """Untraced run: repeated set-up, then the command sequence for ``seconds``."""
    ops: list[Op] = []
    setup_s, inputs = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        write_given(workload, root, seed)
        done = run_steps(SETUP, root, seed, traced=False)
        setup_s.append(time.perf_counter() - start)
        ops += done
        if any(op.problems for op in done):
            return ops, {}, {}
        got = digests(root, done)
        same_outputs(done, inputs or got, got, "first set-up")
        inputs = inputs or got

    # One whole pass, then the sequence again one command at a time, for as
    # long as the next command is expected to end within ``seconds``. A run
    # thus measures for about ``seconds`` rather than a whole number of passes.
    start = time.perf_counter()
    first = run_steps(workload.steps, root, seed, traced=False)
    ops += first
    if any(op.problems for op in first):
        return ops, {}, {}
    outputs = digests(root, first)
    runs: dict[str, list[Op]] = {op.step: [op] for op in first}
    for leg, command in itertools.cycle(workload.steps):
        previous = runs[f"{leg.name}.{command}"]
        if time.perf_counter() - start + previous[-1].wall_s > seconds:
            break
        done = run_steps([(leg, command)], root, seed, traced=False)
        ops += done
        if done[0].problems:
            return ops, {}, {}
        same_outputs(done, outputs, digests(root, done), "first pass")
        previous.append(done[0])
    check(workload, root, seed, ops)

    def median_of(f, samples):
        return statistics.median(f(sample) for sample in samples)

    metrics = {
        "pipeline_s": (sum(median_of(lambda op: op.wall_s, done) for done in runs.values()), "s"),
        "peak_rss_mb": (max(median_of(lambda op: op.rss_mb, done) for done in runs.values()), "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    for step, done in runs.items():  # per-command times, for result.json
        metrics[f"{step}_s"] = (median_of(lambda op: op.wall_s, done), "s")
    samples = {
        "setup_s": setup_s,
        "commands": {step: [[op.wall_s, op.rss_mb] for op in done] for step, done in runs.items()},
    }
    return ops, metrics, {"samples": samples, "digests": {**inputs, **outputs}}


def trace(workload: Workload, root: Path, seed: int, recorded: dict) -> tuple[list[Op], dict, dict]:
    """Traced run: the sequence once untraced, then once through the tracer.

    ``recorded`` maps output files to the digests stored for this workload and
    seed; outputs that differ from them are counted, not failed.
    """
    steps = SETUP + workload.steps
    plain_root, traced_root = root / "untraced", root / "traced"
    write_given(workload, plain_root, seed)
    plain = run_steps(steps, plain_root, seed, traced=False)
    write_given(workload, traced_root, seed)
    traced = [] if any(op.problems for op in plain) else run_steps(steps, traced_root, seed, traced=True)
    ops = plain + traced
    if len(traced) != len(steps) or any(op.problems for op in ops):
        return ops, {}, {}
    check(workload, plain_root, seed, plain)
    outputs = digests(plain_root, plain)
    same_outputs(traced, outputs, digests(traced_root, traced), "untraced run")

    metrics = layer_metrics(traced)
    for command in ("pairs", "stats", "matrix", "simulate"):
        metrics[f"cli.{command}.wall_s"] = (sum(op.wall_s for op in plain if op.command == command), "s")
    metrics["cli.tracing_overhead_s"] = (
        sum(op.wall_s for op in traced) - sum(op.wall_s for op in plain), "s")
    metrics["cli.outputs_compared"] = (sum(name in recorded for name in outputs), "count")
    metrics["cli.outputs_changed"] = (
        sum(name in recorded and recorded[name] != d for name, d in outputs.items()), "count")
    return ops, metrics, {"digests": outputs}


def layer_metrics(traced: list[Op]) -> dict:
    """Per-layer self times and work counts, summed over the traced commands.

    For each command, the self times of its spans plus ``cli`` self time (the
    part of the command's wall time no span covers: interpreter start,
    imports, argument parsing, manifest hashing) add up to its wall time.
    """
    values: dict[str, float] = defaultdict(int)
    durations: dict[str, float] = defaultdict(float)
    for module, functions in tracer.LAYERS.items():
        for function in functions:
            values[f"{module}.{function}.self_s"] = 0.0
            values[f"{module}.{function}.calls"] = 0
    values["model.load_customers.rows"] = 0
    for op in traced:
        data = json.loads(op.spans.read_text())
        spans = data["spans"]
        own = tracer.self_times(spans)
        covered = sum(own.values())
        top_level = sum(end - start for _, parent, _, start, end, _ in spans if parent is None)
        if abs(covered - top_level) > 1e-6 or covered > op.wall_s:
            raise RuntimeError(f"{op.spans}: spans do not nest inside the command")
        values["cli.self_s"] += op.wall_s - covered
        values["cli.traced_wall_s"] += op.wall_s
        children: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            children[parent] += end - start
        for sid, _, name, start, end, attrs in spans:
            values[f"{name}.self_s"] += own[sid]
            values[f"{name}.calls"] += 1
            durations[name] += end - start
            for key, count in attrs.items():
                values[f"{name}.{key}"] += count
            if name == "simulate.baseline_band":
                values[f"{name}.busy_s"] += own[sid] + children[sid]
        for key, count in data["counters"].items():
            values[key] = max(values[key], count) if key.endswith("distinct_targets") else values[key] + count
    rows = values.pop("model.load_customers.rows")
    load_time = durations["model.load_customers"]
    values["model.load_customers.rows_per_s"] = rows / load_time if load_time else 0.0
    values["kernels.bytes_computed"] = 12 * 8 * (
        values["kernels.normalized_rmsd.rows"] + values["kernels.accumulate_distance_curve.rows"])
    values.setdefault("simulate.baseline_band.busy_s", 0.0)
    return {name: (value, unit_of(name)) for name, value in values.items()}


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "retail_profiler/cli.py").is_file() or not REFERENCE_CONFIG.is_file():
        print(f"error: run from the repository root; {SRC}/retail_profiler and "
              f"{REFERENCE_CONFIG} are needed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))

    workload = WORKLOADS[args.workload]
    root = RUNS / args.workload
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    env = environment()
    if args.trace:
        recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed), {})
        ops, metrics, record = trace(workload, root, args.seed, recorded)
    else:
        ops, metrics, record = measure(workload, root, args.seed, args.seconds)

    failed = sum(1 for op in ops if op.problems)
    listed = json.loads(Path("BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    wanted = [entry["name"] for entry in listed]
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in wanted
            if name in metrics
        },
    }
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "failed_frac": failed / max(1, len(ops)),
        "problems": [f"{op.step}: {p}" for op in ops for p in op.problems],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **record,
    }
    (root / "result.json").write_text(json.dumps(full, indent=2) + "\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for problem in full["problems"]:
        print(f"FAILED {problem}")
    print(f"failed_frac = {full['failed_frac']} ({failed} of {len(ops)} commands)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
