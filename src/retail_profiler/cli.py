"""Command-line pipeline: synth, pairs, stats, matrix, simulate.

Every command writes its outputs plus a ``manifest.json`` describing exactly
what produced them (tool version, parameters, input digests). Commands never
mutate their inputs, and randomized commands require an explicit seed, so a
rerun with identical inputs yields byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data error or an allocation too large to make.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from retail_profiler import __version__, model
from retail_profiler.model import DataError, TargetProfile, load_customers
from retail_profiler.pairing import (
    LOCATION_MAP_HEADER,
    NACE_MAP_HEADER,
    attach_kpis,
    build_pairs,
    default_division,
    default_province,
    identification_stats,
    load_mapping,
    aggregate_matrix,
    read_pair_table,
    write_identification_stats,
    write_matrix,
    write_pair_table,
)
from retail_profiler.simulate import (
    STRATEGY_LABELS,
    accumulate_curve,
    baseline_band,
    greedy_sequence,
    power_sequence,
    reduction_curve,
    write_baseline,
    write_curve,
    write_reduction,
)
from retail_profiler.synth import SynthConfig, generate, write_ground_truth
from retail_profiler.targets import (
    TargetResolver,
    complement_target,
    constant_resolver,
    custom_target,
    default_solar_target,
    flat_target,
    load_aggregate_demand,
    load_solar_table,
    solar_resolver,
    solar_target,
)

TARGET_SPEC_HELP = (
    "target spec: 'flat' | 'custom:v1,...,v12' | 'complement:AGGREGATE.csv' | "
    "'solar:default[:amplitude]' | 'solar:TABLE.csv@PROVINCE' | "
    "'solar:TABLE.csv[,LOCATION_MAP.csv]' (per-province resolution)"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def parse_target_spec(spec: str) -> tuple[TargetResolver, TargetProfile | None, str]:
    """Build (resolver, single global target or None, description) from a spec string.

    Only the per-province solar table form yields no single global target.
    """
    if spec == "flat":
        target = flat_target()
        return constant_resolver(target), target, "flat"
    if spec.startswith("custom:"):
        cells = spec[len("custom:"):].split(",")
        if len(cells) != model.MONTHS:
            raise DataError(f"custom target needs {model.MONTHS} comma-separated values")
        try:
            target = custom_target([float(cell) for cell in cells])
        except ValueError as exc:
            raise DataError(f"target spec {spec!r}: {exc}") from None
        return constant_resolver(target), target, "custom"
    if spec.startswith("complement:"):
        aggregate = load_aggregate_demand(spec[len("complement:"):])
        target = complement_target(aggregate)
        return constant_resolver(target), target, "complement"
    if spec.startswith("solar:"):
        rest = spec[len("solar:"):]
        if rest == "default" or rest.startswith("default:"):
            try:
                if rest.startswith("default:"):
                    target = default_solar_target(float(rest[len("default:"):]))
                else:
                    target = default_solar_target()
            except ValueError as exc:
                raise DataError(f"target spec {spec!r}: {exc}") from None
            return constant_resolver(target), target, spec
        if "@" in rest:
            table_path, province = rest.rsplit("@", 1)
            target = solar_target(province, load_solar_table(table_path))
            return constant_resolver(target), target, spec
        table_path, _, map_path = rest.partition(",")
        table = load_solar_table(table_path)
        if map_path:
            province_of = load_mapping(map_path, LOCATION_MAP_HEADER).__getitem__
        else:
            province_of = default_province
        return solar_resolver(table, province_of), None, spec
    raise DataError(f"unknown target spec {spec!r}; {TARGET_SPEC_HELP}")


def _require_global_target(target: TargetProfile | None, spec: str) -> TargetProfile:
    if target is None:
        raise DataError(
            f"target spec {spec!r} resolves per province; this command needs a single "
            "profile (use solar:TABLE@PROVINCE or solar:default)"
        )
    return target


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, params: dict, inputs: list, outputs: list) -> None:
    manifest = {
        "tool": "retail-profiler",
        "version": __version__,
        "command": command,
        "parameters": params,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": sorted(outputs),
    }
    with (out_dir / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- commands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    config_path = Path(args.config)
    try:
        with config_path.open(encoding="utf-8") as fh:
            config = SynthConfig.from_dict(json.load(fh))
    except json.JSONDecodeError as exc:
        raise DataError(f"{config_path}: invalid JSON ({exc})") from None
    except DataError as exc:
        raise DataError(f"{config_path}: {exc}") from None
    _, target, spec = parse_target_spec(args.target)
    target = _require_global_target(target, args.target)
    dataset, truth = generate(config, target)
    out = _out_dir(args.out)
    model.save_customers(dataset, out / "customers.csv")
    write_ground_truth(dataset, truth, out / "ground_truth.csv")
    _write_manifest(
        out,
        "synth",
        params={"config": asdict(config), "target": spec},
        inputs=[config_path],
        outputs=["customers.csv", "ground_truth.csv"],
    )
    print(
        f"generated {dataset.total} customers in {len(truth.pair_composition)} pairs "
        f"({truth.planted_count} planted) -> {out}"
    )
    return 0


def cmd_pairs(args) -> int:
    resolver, _, spec = parse_target_spec(args.target)
    dataset = load_customers(args.customers)
    for line in dataset.diagnostics:
        print(f"note: {line}", file=sys.stderr)
    table = build_pairs(dataset)
    if not len(table):
        raise DataError("no pairable customers; nothing to write")
    table = attach_kpis(table, resolver)
    out = _out_dir(args.out)
    write_pair_table(table, out / "pairs.csv")
    _write_manifest(
        out,
        "pairs",
        params={"target": spec},
        inputs=[Path(args.customers)],
        outputs=["pairs.csv"],
    )
    singletons = int((table.n_k == 1).sum())
    print(
        f"customers: total={dataset.total} pairable={dataset.pairable_count} "
        f"excluded={dataset.excluded} zero-demand={dataset.zero_demand_count}"
    )
    print(f"pairs: {len(table)} non-empty ({singletons} singletons)")
    print(f"d(*) = {table.d_star}")
    return 0


def cmd_stats(args) -> int:
    table = read_pair_table(args.pairs)
    stats = identification_stats(table)
    out = _out_dir(args.out)
    write_identification_stats(stats, out / "identification_stats.csv")
    _write_manifest(
        out,
        "stats",
        params={},
        inputs=[Path(args.pairs)],
        outputs=["identification_stats.csv"],
    )
    unique = stats.customers_in_sets_leq.get(1, 0)
    leq10 = stats.customers_in_sets_leq.get(10, 0)
    print(f"non-empty pairs: {stats.nonempty_pair_count} of {stats.total_pair_space} possible")
    print(f"customers uniquely identified: {unique}")
    print(f"customers in sets of <=10: {leq10}")
    return 0


def cmd_matrix(args) -> int:
    resolver, _, spec = parse_target_spec(args.target)
    table = read_pair_table(args.pairs, load_customers(args.customers))
    inputs = [Path(args.pairs), Path(args.customers)]
    if args.location_map:
        province_of = load_mapping(args.location_map, LOCATION_MAP_HEADER).__getitem__
        inputs.append(Path(args.location_map))
    else:
        province_of = default_province
    if args.nace_map:
        division_of = load_mapping(args.nace_map, NACE_MAP_HEADER).__getitem__
        inputs.append(Path(args.nace_map))
    else:
        division_of = default_division
    matrix = aggregate_matrix(table, province_of, division_of, resolver)
    for line in matrix.diagnostics:
        print(f"note: {line}", file=sys.stderr)
    out = _out_dir(args.out)
    write_matrix(matrix, out / "matrix.csv")
    _write_manifest(
        out,
        "matrix",
        params={"target": spec},
        inputs=inputs,
        outputs=["matrix.csv"],
    )
    print(
        f"matrix: {len(matrix.provinces)} provinces x {len(matrix.divisions)} divisions "
        f"({int((matrix.counts > 0).sum())} non-empty cells)"
    )
    return 0


def cmd_simulate(args) -> int:
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for s in strategies:
        if s not in STRATEGY_LABELS:
            raise DataError(f"unknown strategy {s!r}; pick from {', '.join(STRATEGY_LABELS)}")
    if not strategies:
        raise DataError("no strategies requested")

    resolver, target, spec = parse_target_spec(args.target)
    target = _require_global_target(target, args.target)
    dataset = load_customers(args.customers)
    table = read_pair_table(args.pairs, dataset)
    if not table.has_kpis:
        raise DataError(f"{args.pairs}: pair table has no KPI columns; run 'pairs' first")

    listed = int(table.n_k.sum())
    n = args.n if args.n is not None else listed
    if n > listed:
        raise DataError(f"-n {n} exceeds the {listed} customers the pair table lists")

    # everything is computed before --out is made, so a failed run writes nothing
    curves = {}
    for s in strategies:
        if s == "random":
            continue
        if s == "eid":
            seq = greedy_sequence(table, args.seed)
        else:
            seq = power_sequence(table, s, args.seed, per_customer=args.per_customer_power)
        curves[s] = accumulate_curve(seq.prefix(n), target)
    baseline = rows = None
    if "random" in strategies:
        baseline = baseline_band(
            dataset, target, n, reps=args.reps, seed=args.seed, threads=args.threads
        )
        if "eid" in curves:
            rows = reduction_curve(curves["eid"], baseline, _checkpoints(args.checkpoints, n))

    out = _out_dir(args.out)
    outputs: list[str] = []
    for s, curve in curves.items():
        write_curve(curve, out / f"curve_{s}.csv")
        outputs.append(f"curve_{s}.csv")
    if baseline is not None:
        write_baseline(baseline, out / "baseline.csv")
        outputs.append("baseline.csv")
    if rows is not None:
        write_reduction(rows, out / "reduction.csv")
        outputs.append("reduction.csv")
        for cn, r in rows:
            print(f"reduction at n={cn}: {r:.3f}")

    _write_manifest(
        out,
        "simulate",
        params={
            "target": spec,
            "strategies": strategies,
            "n": n,
            "reps": args.reps,
            "seed": args.seed,
            "per_customer_power": args.per_customer_power,
        },
        inputs=[Path(args.customers), Path(args.pairs)],
        outputs=outputs,
    )
    print(f"wrote {len(outputs)} curve file(s) -> {out}")
    return 0


def _seed(value: str) -> int:
    seed = int(value)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def _count(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return count


def _checkpoints(spec: str | None, n: int) -> list[int]:
    if spec:
        try:
            points = sorted({int(cell) for cell in spec.split(",")})
        except ValueError:
            raise DataError("checkpoints must be comma-separated integers") from None
        bad = [p for p in points if not 1 <= p <= n]
        if bad:
            raise DataError(f"checkpoints {bad} outside the simulated range 1..{n}")
        return points
    points = []
    power = 10
    while power < n:
        points.append(power)
        power *= 10
    points.append(n)
    return points


def build_parser() -> _Parser:
    parser = _Parser(
        prog="retail-profiler",
        description=(
            "Compute target-fit KPIs for activity-sector x location customer groups "
            "and simulate customer-acquisition strategies."
        ),
    )
    parser.add_argument("--version", action="version", version=f"retail-profiler {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic customer dataset", description=TARGET_SPEC_HELP)
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--target", default="solar:default", help=f"planting target ({TARGET_SPEC_HELP})")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pairs", help="build the pair table with KPIs", description=TARGET_SPEC_HELP)
    p.add_argument("--customers", required=True, help="customer CSV")
    p.add_argument("--target", required=True, help=TARGET_SPEC_HELP)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("stats", help="identification statistics from a pair table")
    p.add_argument("--pairs", required=True, help="pair-table CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("matrix", help="province x division indicator matrix", description=TARGET_SPEC_HELP)
    p.add_argument("--pairs", required=True, help="pair-table CSV")
    p.add_argument("--customers", required=True, help="customer CSV")
    p.add_argument("--location-map", help="location,province mapping CSV (default: code prefix)")
    p.add_argument("--nace-map", help="nace,division mapping CSV (default: first 3 characters)")
    p.add_argument("--target", required=True, help=TARGET_SPEC_HELP)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("simulate", help="acquisition-strategy distance curves", description=TARGET_SPEC_HELP)
    p.add_argument("--customers", required=True, help="customer CSV")
    p.add_argument("--pairs", required=True, help="pair-table CSV with KPIs")
    p.add_argument("--target", required=True, help=f"single-profile target ({TARGET_SPEC_HELP})")
    p.add_argument(
        "--strategies",
        default="eid,random",
        help="comma-separated subset of eid,contracted,demanded,random",
    )
    p.add_argument("-n", type=_count, help="customers to acquire (default: all the pair table lists)")
    p.add_argument("--reps", type=_count, default=100, help="random-baseline repetitions")
    p.add_argument("--seed", type=_seed, required=True, help="master seed (required; no hidden entropy)")
    p.add_argument("--checkpoints", help="comma-separated steps for the reduction table")
    p.add_argument(
        "--per-customer-power",
        action="store_true",
        help="order power strategies by individual customers instead of pair averages",
    )
    p.add_argument("--threads", type=_count, default=1, help="baseline worker threads (default: 1)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataError, OSError, UnicodeDecodeError, csv.Error, MemoryError) as exc:
        # a bare MemoryError has no message of its own
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
