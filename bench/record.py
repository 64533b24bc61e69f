#!/usr/bin/env python3
"""Record the end-to-end benchmark of a checkout in one committed JSON file.

Usage, from the repository root:

    python3 bench/record.py [--repo DIR] [--out BENCH_pipeline.json]

For each workload of ``perfbench/run.py`` it makes one untraced run
(``--trace 0``) at each of the seeds 1, 2 and 3 and one traced run
(``--trace 1``) at seed 1, one run at a time, in the checkout ``--repo``
(default: the checkout this script is in). The runs use that checkout's own
``perfbench/``, ``src/`` and the ``run_seconds`` of its ``BENCHMARK.json``,
so an older commit can be measured by the same script. The file written
holds, per workload:

- ``end_to_end``: each end-to-end metric's median over the seeds, and the
  value of each run;
- ``commands_s``: each command's median wall time over the seeds;
- ``commands_rss_mb``: each command's peak RSS in MB, read by ``run.py``
  from ``os.wait4``: the median over each run's samples (as ``peak_rss_mb``
  takes it), then the median over the seeds;
- ``writers_self_s``: the traced self time of each CSV writer the tracer
  wraps, and ``layers``: every per-layer metric of the traced run;
- ``problems``: the problems ``run.py`` found over all runs (a failed
  command, a failed output check), and ``outputs_changed`` out of
  ``outputs_compared``: the traced run's outputs whose digest differs from
  ``perfbench/digests.json``.

It also records the checkout's commit, whether its ``src/`` or
``perfbench/`` differed from that commit, the git tree ids of both as they
were measured (after a commit, ``git rev-parse COMMIT:src`` finds the commit
that holds them), the environment ``run.py`` reports and the host's
processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("reference", "fragmented-pipeline")
SEEDS = (1, 2, 3)
MEASURED = ("src", "perfbench")
END_TO_END = ("pipeline_s", "peak_rss_mb", "setup_s")
WRITERS = (
    "model.save_customers",
    "synth.write_ground_truth",
    "pairing.write_pair_table",
    "simulate.write_curve",
    "simulate.write_baseline",
)


def run(repo: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One ``perfbench/run.py`` run in ``repo``; its ``result.json``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced))]
    print("$", " ".join(command[1:]), file=sys.stderr, flush=True)
    subprocess.run(command, cwd=repo, check=True, stdout=subprocess.DEVNULL)
    return json.loads((repo / ".perfbench-runs" / workload / "result.json").read_text())


def git(repo: Path, *args: str, env: dict | None = None) -> str | None:
    done = subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True, env=env)
    return done.stdout.strip() if done.returncode == 0 else None


def measured_trees(repo: Path) -> dict:
    """The git tree id of each ``MEASURED`` directory as it stands in the working tree."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git(repo, "read-tree", "HEAD", env=env)
        git(repo, "add", "--all", "--", *MEASURED, env=env)
        tree = git(repo, "write-tree", env=env)
    return {name: git(repo, "rev-parse", f"{tree}:{name}") for name in MEASURED}


def record(repo: Path) -> dict:
    seconds = json.loads((repo / "BENCHMARK.json").read_text())["run_seconds"]
    trees = measured_trees(repo)
    workloads = {}
    environment = None
    for workload in WORKLOADS:
        untraced = [run(repo, workload, seed, seconds, traced=False) for seed in SEEDS]
        traced = run(repo, workload, SEEDS[0], seconds, traced=True)
        environment = environment or traced["environment"]
        values = [{name: m["value"] for name, m in result["metrics"].items()} for result in untraced]
        layers = {name: m["value"] for name, m in traced["metrics"].items() if not name.startswith("cli.outputs_")}
        workloads[workload] = {
            "end_to_end": {
                name: {"median": statistics.median(v[name] for v in values), "runs": [v[name] for v in values]}
                for name in END_TO_END
            },
            "commands_s": {
                name: statistics.median(v[name] for v in values)
                for name in sorted(values[0]) if name not in END_TO_END
            },
            "commands_rss_mb": {
                step: statistics.median(
                    statistics.median(rss for _, rss in result["samples"]["commands"][step]) for result in untraced
                )
                for step in untraced[0]["samples"]["commands"]
            },
            "writers_self_s": {name: layers[f"{name}.self_s"] for name in WRITERS},
            "layers": layers,
            "problems": [problem for result in untraced + [traced] for problem in result["problems"]],
            "outputs_changed": traced["metrics"]["cli.outputs_changed"]["value"],
            "outputs_compared": traced["metrics"]["cli.outputs_compared"]["value"],
        }
    return {
        "commit": git(repo, "rev-parse", "HEAD"),
        "tree_differs_from_commit": bool(git(repo, "status", "--porcelain", "--", *MEASURED)),
        "trees": trees,
        "seeds": list(SEEDS),
        "seconds": seconds,
        "traced_seed": SEEDS[0],
        "layers_note": (
            "writers_self_s and layers come from one traced run per workload; a single sample "
            "does not support a per-layer comparison between two records"
        ),
        "environment": {**environment, "host_cpus": os.cpu_count(), "machine": platform.machine()},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--out", type=Path, default=Path("BENCH_pipeline.json"))
    args = parser.parse_args(argv)
    result = record(args.repo.resolve())
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
