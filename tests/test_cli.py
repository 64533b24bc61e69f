import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retail_profiler
from retail_profiler import metrics, pairing, simulate, targets
from retail_profiler.cli import main, parse_target_spec
from retail_profiler.model import DataError, load_customers, normalize_profile
from tests.conftest import flat_demand, offset_demand, row_keys, write_customer_csv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus its pair table, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config = {
        "n_customers": 1200,
        "n_locations": 30,
        "n_nace": 24,
        "planted_fraction": 0.05,
        "noise_sigma": 0.05,
        "seed": 21,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["synth", "--config", str(config_path), "--out", str(root / "data")]) == 0
    assert (
        main(
            [
                "pairs",
                "--customers", str(root / "data" / "customers.csv"),
                "--target", "solar:default",
                "--out", str(root / "kpis"),
            ]
        )
        == 0
    )
    return root


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*args):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    src = Path(retail_profiler.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "retail_profiler.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )


SOLAR_HEADER = ",".join(targets.SOLAR_TABLE_HEADER)


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1
        assert main(["simulate"]) == 1  # missing required args

    def test_missing_config_is_two(self, tmp_path, capsys):
        code = main(["synth", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_target_spec_is_two(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        write_customer_csv(path, [("A", "X", "L1", 1.0, flat_demand())])
        code = main(["pairs", "--customers", str(path), "--target", "lunar", "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "spec,name,content",
        [
            ("custom:nan" + ",1" * 11, None, None),
            ("custom:" + ",".join(["1e308"] * 12), None, None),
            ("solar:default:1.5", None, None),
            ("solar:{}@P", "T.csv", SOLAR_HEADER + "\nP,0" + ",1" * 11 + "\n"),
            ("solar:{}@P", "T.csv", SOLAR_HEADER + "\nP" + ",1e308" * 12 + "\n"),
            ("complement:{}", "A.csv", "1," * 11 + "-100\n"),
            ("complement:{}", "A.csv", ",".join(["1e308"] * 12) + "\n"),
        ],
        ids=[
            "custom-nan",
            "custom-overflow",
            "solar-amplitude",
            "solar-table-zero",
            "solar-table-overflow",
            "complement-negative",
            "complement-overflow",
        ],
    )
    def test_bad_target_input_is_two(self, tmp_path, spec, name, content):
        customers = tmp_path / "c.csv"
        write_customer_csv(customers, [("A", "X", "L1", 1.0, flat_demand())])
        if name is not None:
            (tmp_path / name).write_text(content)
            spec = spec.format(tmp_path / name)
        proc = run_cli("pairs", "--customers", str(customers), "--target", spec,
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert (name or spec) in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "cid",
        [b"B\xff", b'"' + b"x" * 131_073 + b'"'],
        ids=["not-utf8", "cell-over-csv-field-limit"],
    )
    def test_unreadable_customer_file_is_two(self, tmp_path, cid):
        path = tmp_path / "c.csv"
        write_customer_csv(path, [("A", "X", "L1", 1.0, flat_demand())])
        row = b",".join([cid, b"X", b"L1", b"1.0"] + [b"100.0"] * 12)
        path.write_bytes(path.read_bytes() + row + b"\r\n")
        proc = run_cli("pairs", "--customers", str(path), "--target", "flat", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {path}: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "nace,line",
        [(b"N\xff", ""), (b'"' + b"x" * 131_073 + b'"', "line 2: ")],
        ids=["not-utf8", "cell-over-csv-field-limit"],
    )
    def test_unreadable_pair_table_is_two(self, tmp_path, nace, line):
        path = tmp_path / "pairs.csv"
        row = b",".join([nace, b"L1", b"1", b"1.0", b"1.0", b"0.1", b"0.5", b"0.5"] + [b"1.0"] * 12)
        path.write_bytes(",".join(pairing.PAIR_TABLE_HEADER).encode() + b"\r\n" + row + b"\r\n")
        proc = run_cli("stats", "--pairs", str(path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {path}: {line}")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "location,mapped",
        [("P2-M001", True), ("-x", False)],
        ids=["location-missing-from-map", "location-without-province-prefix"],
    )
    def test_unmapped_location_is_two(self, tmp_path, location, mapped):
        customers = tmp_path / "c.csv"
        write_customer_csv(customers, [("A", "X", "P1-M001", 1.0, offset_demand()), ("B", "X", location, 1.0, flat_demand())])
        table = tmp_path / "T.csv"
        table.write_text(SOLAR_HEADER + "\nP1" + ",1" * 12 + "\n")
        spec = f"solar:{table}"
        if mapped:
            mapping = tmp_path / "M.csv"
            mapping.write_text("location,province\nP1-M001,P1\n")
            spec += f",{mapping}"
        proc = run_cli("pairs", "--customers", str(customers), "--target", spec, "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert f"location {location!r} has no province mapping" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag", ["--location-map", "--nace-map", "solar"])
    def test_repeated_mapping_key_is_two(self, workspace, tmp_path, flag):
        dataset = load_customers(workspace / "data" / "customers.csv")
        nace, location = row_keys(dataset)[0]
        header, code = ("nace", nace) if flag == "--nace-map" else ("location", location)
        mapping = tmp_path / "map.csv"
        mapping.write_text(f"{header},{'division' if header == 'nace' else 'province'}\n{code},P01\n{code},P02\n")
        customers = workspace / "data" / "customers.csv"
        if flag == "solar":
            table = tmp_path / "T.csv"
            table.write_text(SOLAR_HEADER + "\nP01" + ",1" * 12 + "\nP02" + ",1" * 12 + "\n")
            args = ["pairs", "--customers", str(customers), "--target", f"solar:{table},{mapping}"]
        else:
            args = ["matrix", "--pairs", str(workspace / "kpis" / "pairs.csv"), "--customers", str(customers),
                    flag, str(mapping), "--target", "flat"]
        proc = run_cli(*args, "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {mapping}: line 3: {header} {code!r} duplicates line 2\n"

    @pytest.mark.parametrize("cell", ["value", "code"])
    @pytest.mark.parametrize("flag", ["--location-map", "--nace-map", "solar"])
    def test_empty_mapping_cell_is_two(self, workspace, tmp_path, flag, cell):
        dataset = load_customers(workspace / "data" / "customers.csv")
        nace, location = row_keys(dataset)[0]
        header, code = ("nace", nace) if flag == "--nace-map" else ("location", location)
        mapped = "division" if header == "nace" else "province"
        mapping = tmp_path / "map.csv"
        row = f"{code}," if cell == "value" else ",P01"
        mapping.write_text(f"{header},{mapped}\nX,P01\n{row}\n")
        customers = workspace / "data" / "customers.csv"
        if flag == "solar":
            table = tmp_path / "T.csv"
            table.write_text(SOLAR_HEADER + "\nP01" + ",1" * 12 + "\n")
            args = ["pairs", "--customers", str(customers), "--target", f"solar:{table},{mapping}"]
        else:
            args = ["matrix", "--pairs", str(workspace / "kpis" / "pairs.csv"), "--customers", str(customers),
                    flag, str(mapping), "--target", "flat"]
        proc = run_cli(*args, "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        problem = f"{header} {code!r} maps to an empty {mapped}" if cell == "value" else f"empty {header}"
        assert proc.stderr == f"error: {mapping}: line 3: {problem}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config",
        [{"n_customers": 0}, {"noise_sigma": 0.5}, [1, 2, 3], {"seed": 1.5}, {"n_customers": 10.5},
         {"n_customers": 10**30}, {"pair_concentration": float("nan")}, {"scale_log_sigma": 0.8},
         {"max_pair_size": 2**62}, {"n_customers": 2**62}],
        ids=["zero-count", "noise-sigma-too-large", "json-array", "float-seed", "float-count", "count-past-int64",
             "nan-concentration", "former-setting", "max-pair-size-past-bound", "count-past-array-size"],
    )
    def test_bad_synth_config_is_two(self, tmp_path, config):
        if isinstance(config, dict):
            config = {"n_customers": 50, "n_locations": 5, "n_nace": 5, **config}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli("synth", "--config", str(path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {path}: bad generator config: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["simulate", "synth"])
    def test_allocation_past_the_address_space_is_two(self, workspace, tmp_path, command):
        """Each run asks numpy for PiB, more than any address space holds, so it is refused at once."""
        if command == "simulate":
            args = [
                "--customers", str(workspace / "data" / "customers.csv"),
                "--pairs", str(workspace / "kpis" / "pairs.csv"),
                "--target", "solar:default",
                "-n", "300",
                "--reps", str(10**12),  # a 10**12 x 300 float64 baseline block: 2.1 PiB
                "--seed", "1",
            ]
        else:
            path = tmp_path / "config.json"
            # the planted pair sizes draw 2**56 * 0.02 / 2 float64 uniforms at once: 5 PiB
            config = {"n_customers": 2**56, "n_locations": 5, "n_nace": 5, "planted_fraction": 0.02}
            path.write_text(json.dumps(config))
            args = ["--config", str(path)]
        proc = run_cli(command, *args, "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_data_error_has_file_context(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n")
        code = main(["pairs", "--customers", str(bad), "--target", "flat", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bad.csv" in capsys.readouterr().err


class TestSynth:
    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        config_path = workspace / "config.json"
        assert main(["synth", "--config", str(config_path), "--out", str(tmp_path / "again")]) == 0
        assert digest(tmp_path / "again" / "customers.csv") == digest(
            workspace / "data" / "customers.csv"
        )
        assert digest(tmp_path / "again" / "ground_truth.csv") == digest(
            workspace / "data" / "ground_truth.csv"
        )

    def test_manifest_written(self, workspace):
        manifest = json.loads((workspace / "data" / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["tool"] == "retail-profiler"
        assert "customers.csv" in manifest["outputs"]

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_text("{nope")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


class TestPairs:
    def test_kpi_columns_match_library_recomputation(self, workspace):
        dataset = load_customers(workspace / "data" / "customers.csv")
        table = pairing.read_pair_table(workspace / "kpis" / "pairs.csv", dataset)
        target = targets.default_solar_target()
        resolver = targets.constant_resolver(target)
        recomputed = pairing.attach_kpis(pairing.build_pairs(dataset), resolver)
        assert len(table) == len(recomputed)
        assert row_keys(table) == row_keys(recomputed)
        for column in ("n_k", "d_k", "e_k", "E_k", "avg_contracted", "avg_demand"):
            assert np.array_equal(getattr(table, column), getattr(recomputed, column)), column

    def test_prints_reference_distance(self, workspace, tmp_path, capsys):
        code = main(
            [
                "pairs",
                "--customers", str(workspace / "data" / "customers.csv"),
                "--target", "flat",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        dataset = load_customers(workspace / "data" / "customers.csv")
        d_star = metrics.global_distance(dataset, targets.constant_resolver(targets.flat_target()))
        assert f"d(*) = {d_star!r}\n" in out

    def test_subnormal_mean_customer_is_paired(self, tmp_path):
        path = tmp_path / "c.csv"
        tiny = [0.0] * 11 + [5e-324]
        write_customer_csv(
            path,
            [(f"C{i}", "A", f"L{i % 3}", 1.0, offset_demand(100, 5 + i)) for i in range(20)]
            + [("T", "Z", "L0", 1.0, tiny)],
        )
        result = run_cli("pairs", "--customers", str(path), "--target", "flat", "--out", str(tmp_path / "o"))
        assert result.returncode == 0, result.stderr
        assert "Warning" not in result.stderr
        with (tmp_path / "o" / "pairs.csv").open() as fh:
            row = next(r for r in csv.DictReader(fh) if r["nace"] == "Z")
        expected = metrics.profile_distance(normalize_profile(tiny), targets.flat_target())
        assert float(row["d_k"]) == expected

    def test_singleton_dataset_n_k_column(self, tmp_path):
        path = tmp_path / "c.csv"
        write_customer_csv(
            path,
            [(f"C{i}", f"N{i}", "L1", 1.0, offset_demand(100, 5 + i)) for i in range(4)],
        )
        assert main(["pairs", "--customers", str(path), "--target", "flat", "--out", str(tmp_path / "o")]) == 0
        with (tmp_path / "o" / "pairs.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["n_k"] == "1" for row in rows)


class TestPerProvinceTargets:
    def test_pairs_with_solar_table_and_map(self, tmp_path):
        customers = tmp_path / "c.csv"
        write_customer_csv(
            customers,
            [
                ("A", "J61.1", "NORTH-M1", 1.0, offset_demand(100, 20)),
                ("B", "J61.1", "SOUTH-M1", 1.0, offset_demand(100, 20)),
            ],
        )
        table_csv = tmp_path / "solar.csv"
        header = "province," + ",".join(f"m{j:02d}" for j in range(1, 13))
        north = ",".join(str(1.0 + 0.5 * (j % 2)) for j in range(12))
        south = ",".join(["1.0"] * 12)
        table_csv.write_text(f"{header}\nNORTH,{north}\nSOUTH,{south}\n")
        loc_map = tmp_path / "map.csv"
        loc_map.write_text("location,province\nNORTH-M1,NORTH\nSOUTH-M1,SOUTH\n")
        out = tmp_path / "o"
        code = main(
            [
                "pairs",
                "--customers", str(customers),
                "--target", f"solar:{table_csv},{loc_map}",
                "--out", str(out),
            ]
        )
        assert code == 0
        with (out / "pairs.csv").open() as fh:
            rows = {r["location"]: r for r in csv.DictReader(fh)}
        # same demand shape, different provincial targets -> different KPIs
        assert rows["NORTH-M1"]["d_k"] != rows["SOUTH-M1"]["d_k"]

    def test_pairs_with_complement_target(self, tmp_path):
        customers = tmp_path / "c.csv"
        write_customer_csv(
            customers,
            [("A", "J61.1", "P36-M001", 1.0, offset_demand(100, 10))],
        )
        agg = tmp_path / "agg.csv"
        agg.write_text(",".join(["150.0", "50.0"] * 6) + "\n")
        out = tmp_path / "o"
        code = main(
            [
                "pairs",
                "--customers", str(customers),
                "--target", f"complement:{agg}",
                "--out", str(out),
            ]
        )
        assert code == 0
        dataset = load_customers(customers)
        target = targets.complement_target(targets.load_aggregate_demand(agg))
        expected = metrics.profile_distance(
            normalize_profile(dataset.raw_demand[0]), target
        )
        with (out / "pairs.csv").open() as fh:
            [row] = list(csv.DictReader(fh))
        assert float(row["d_k"]) == expected


class TestStats:
    def test_matches_library(self, workspace, tmp_path):
        assert main(["stats", "--pairs", str(workspace / "kpis" / "pairs.csv"), "--out", str(tmp_path / "s")]) == 0
        table = pairing.read_pair_table(workspace / "kpis" / "pairs.csv")
        stats = pairing.identification_stats(table)
        with (tmp_path / "s" / "identification_stats.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == stats.max_size
        last = rows[-1]
        assert int(last["customers_leq"]) == stats.customers_in_sets_leq[stats.max_size]
        assert float(last["pairs_leq_ratio"]) == 1.0


    def test_duplicate_pair_is_data_error(self, workspace, tmp_path):
        lines = (workspace / "kpis" / "pairs.csv").read_text().splitlines()
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("\n".join(lines + [lines[1]]) + "\n")
        proc = run_cli("stats", "--pairs", str(pairs), "--out", str(tmp_path / "s"))
        assert proc.returncode == 2
        assert f"line {len(lines) + 1}: pair" in proc.stderr
        assert "duplicates line 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("column", [0, 1], ids=["nace", "location"])
    @pytest.mark.parametrize("command", ["stats", "matrix"])
    def test_empty_key_is_data_error(self, workspace, tmp_path, command, column):
        lines = (workspace / "kpis" / "pairs.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = " "
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        args = ["--pairs", str(pairs), "--out", str(tmp_path / "o")]
        if command == "matrix":
            args += ["--customers", str(workspace / "data" / "customers.csv"), "--target", "flat"]
        proc = run_cli(command, *args)
        assert proc.returncode == 2
        key = f"PairKey(nace={'' if column == 0 else cells[0]!r}, location={'' if column == 1 else cells[1]!r})"
        assert proc.stderr == f"error: {pairs}: line 3: pair {key} has an empty nace or location\n"

    def test_huge_pair_size_is_data_error(self, tmp_path):
        # stats writes one row per size up to n_k; the bound stops it at the read, and
        # run_cli's timeout fails the test if it hangs
        lines = [",".join(pairing.PAIR_TABLE_HEADER), "N,L,1000000000000,1.0,1.0,,,," + ",".join(["1.0"] * 12)]
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("\n".join(lines) + "\n")
        proc = run_cli("stats", "--pairs", str(pairs), "--out", str(tmp_path / "s"))
        assert proc.returncode == 2
        assert "line 2: n_k must be <= 1000000, got 1000000000000" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestMatrix:
    def test_long_form_schema_with_empty_cells(self, workspace, tmp_path):
        code = main(
            [
                "matrix",
                "--pairs", str(workspace / "kpis" / "pairs.csv"),
                "--customers", str(workspace / "data" / "customers.csv"),
                "--target", "solar:default",
                "--out", str(tmp_path / "m"),
            ]
        )
        assert code == 0
        with (tmp_path / "m" / "matrix.csv").open() as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["province", "division", "customers", "E"]
        empties = [r for r in rows if r[2] == "0"]
        filled = [r for r in rows if r[2] != "0"]
        assert all(r[3] == "" for r in empties)
        assert all(r[3] != "" for r in filled)
        # grid is complete: provinces x divisions
        provinces = {r[0] for r in rows}
        divisions = {r[1] for r in rows}
        assert len(rows) == len(provinces) * len(divisions)

    def test_explicit_mappings(self, workspace, tmp_path):
        dataset = load_customers(workspace / "data" / "customers.csv")
        loc_map = tmp_path / "loc.csv"
        with loc_map.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["location", "province"])
            for loc in dataset.locations:
                writer.writerow([loc, "EVERYWHERE"])
        code = main(
            [
                "matrix",
                "--pairs", str(workspace / "kpis" / "pairs.csv"),
                "--customers", str(workspace / "data" / "customers.csv"),
                "--location-map", str(loc_map),
                "--target", "solar:default",
                "--out", str(tmp_path / "m"),
            ]
        )
        assert code == 0
        with (tmp_path / "m" / "matrix.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["province"] for r in rows} == {"EVERYWHERE"}


class TestSimulate:
    def test_outputs_and_schema(self, workspace, tmp_path):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--customers", str(workspace / "data" / "customers.csv"),
                "--pairs", str(workspace / "kpis" / "pairs.csv"),
                "--target", "solar:default",
                "--strategies", "eid,contracted,demanded,random",
                "-n", "200",
                "--reps", "11",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        for name in ("curve_eid.csv", "curve_contracted.csv", "curve_demanded.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "step,distance"
            assert len(lines) == 201  # header + one row per step
            assert lines[1].startswith("1,")
            assert lines[-1].startswith("200,")
        baseline = (out / "baseline.csv").read_text().splitlines()
        assert baseline[0] == "step,median,q1,q3"
        assert len(baseline) == 201
        reductions = (out / "reduction.csv").read_text().splitlines()
        assert reductions[0] == "n,reduction"
        assert [line.split(",")[0] for line in reductions[1:]] == ["10", "100", "200"]

    def test_requires_seed(self, workspace, tmp_path):
        code = main(
            [
                "simulate",
                "--customers", str(workspace / "data" / "customers.csv"),
                "--pairs", str(workspace / "kpis" / "pairs.csv"),
                "--target", "solar:default",
                "--out", str(tmp_path / "sim"),
            ]
        )
        assert code == 1

    def test_rejects_per_province_target(self, workspace, tmp_path, capsys):
        table_csv = tmp_path / "solar.csv"
        header = "province," + ",".join(f"m{j:02d}" for j in range(1, 13))
        table_csv.write_text(header + "\nP01," + ",".join(["1.0"] * 12) + "\n")
        code = main(
            [
                "simulate",
                "--customers", str(workspace / "data" / "customers.csv"),
                "--pairs", str(workspace / "kpis" / "pairs.csv"),
                "--target", f"solar:{table_csv}",
                "--seed", "1",
                "--out", str(tmp_path / "sim"),
            ]
        )
        assert code == 2
        assert "single" in capsys.readouterr().err

    def test_unknown_strategy(self, workspace, tmp_path):
        code = main(
            [
                "simulate",
                "--customers", str(workspace / "data" / "customers.csv"),
                "--pairs", str(workspace / "kpis" / "pairs.csv"),
                "--target", "flat",
                "--strategies", "telepathy",
                "--seed", "1",
                "--out", str(tmp_path / "sim"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag,value",
        [("-n", "0"), ("-n", "-5"), ("--reps", "0"), ("--threads", "0"), ("--threads", "-2")],
    )
    def test_bad_count_is_usage_error(self, workspace, tmp_path, flag, value):
        proc = run_cli(
            "simulate",
            "--customers", str(workspace / "data" / "customers.csv"),
            "--pairs", str(workspace / "kpis" / "pairs.csv"),
            "--target", "solar:default",
            "--seed", "1",
            "--out", str(tmp_path / "sim"),
            flag, value,
        )
        assert proc.returncode == 1
        assert "must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_failed_baseline_writes_nothing(self, workspace, tmp_path, capsys):
        # the eid curve is built before the baseline, whose 10**12 x 300 block is refused at once
        args = [
            "simulate", "--customers", str(workspace / "data" / "customers.csv"),
            "--pairs", str(workspace / "kpis" / "pairs.csv"), "--target", "solar:default",
            "-n", "300", "--reps", str(10**12), "--seed", "1", "--out", str(tmp_path / "sim"),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "sim").exists()

    def test_thread_count_keeps_bytes(self, workspace, tmp_path):
        args = [
            "simulate",
            "--customers", str(workspace / "data" / "customers.csv"),
            "--pairs", str(workspace / "kpis" / "pairs.csv"),
            "--target", "solar:default",
            "--strategies", "eid,contracted,demanded,random",
            "-n", "300",
            "--reps", "9",
            "--seed", "4",
        ]
        assert main(args + ["--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
        assert main(args + ["--out", str(tmp_path / "t2"), "--threads", "2"]) == 0
        for name in ("baseline.csv", "curve_eid.csv", "curve_contracted.csv", "curve_demanded.csv"):
            assert digest(tmp_path / "t1" / name) == digest(tmp_path / "t2" / name)

    def test_checkpoints_pick_the_reduction_rows(self, workspace, tmp_path):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--customers", str(workspace / "data" / "customers.csv"),
                "--pairs", str(workspace / "kpis" / "pairs.csv"),
                "--target", "solar:default",
                "-n", "200",
                "--reps", "5",
                "--seed", "3",
                "--checkpoints", "150,7,50,7",
                "--out", str(out),
            ]
        )
        assert code == 0
        reductions = (out / "reduction.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in reductions[1:]] == ["7", "50", "150"]

    @pytest.mark.parametrize("spec", ["10,x", "1.5", "0", "201"])
    def test_bad_checkpoints_are_two(self, workspace, tmp_path, spec):
        proc = run_cli(
            "simulate",
            "--customers", str(workspace / "data" / "customers.csv"),
            "--pairs", str(workspace / "kpis" / "pairs.csv"),
            "--target", "solar:default",
            "-n", "200",
            "--reps", "3",
            "--seed", "1",
            "--checkpoints", spec,
            "--out", str(tmp_path / "sim"),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: checkpoints")
        assert "Traceback" not in proc.stderr

    def test_per_customer_power_orders_customers(self, workspace, tmp_path):
        args = [
            "simulate",
            "--customers", str(workspace / "data" / "customers.csv"),
            "--pairs", str(workspace / "kpis" / "pairs.csv"),
            "--target", "solar:default",
            "--strategies", "contracted",
            "--seed", "6",
        ]
        assert main(args + ["--per-customer-power", "--out", str(tmp_path / "own")]) == 0
        assert main(args + ["--out", str(tmp_path / "pair")]) == 0
        manifest = json.loads((tmp_path / "own" / "manifest.json").read_text())
        assert manifest["parameters"]["per_customer_power"] is True
        dataset = load_customers(workspace / "data" / "customers.csv")
        table = pairing.read_pair_table(workspace / "kpis" / "pairs.csv", dataset)
        sequence = simulate.power_sequence(table, "contracted", 6, per_customer=True)
        simulate.write_curve(simulate.accumulate_curve(sequence, targets.default_solar_target()), tmp_path / "expected.csv")
        got = (tmp_path / "own" / "curve_contracted.csv").read_bytes()
        assert got == (tmp_path / "expected.csv").read_bytes()
        assert got != (tmp_path / "pair" / "curve_contracted.csv").read_bytes()

    def test_default_n_is_the_customers_the_table_lists(self, workspace, tmp_path):
        # a pairs.csv cut to its first rows lists fewer customers than are pairable
        header, *rows = (workspace / "kpis" / "pairs.csv").read_text().splitlines()
        subset = tmp_path / "pairs.csv"
        subset.write_text("\n".join([header] + rows[:20]) + "\n")
        listed = sum(int(row.split(",")[2]) for row in rows[:20])
        args = [
            "simulate",
            "--customers", str(workspace / "data" / "customers.csv"),
            "--pairs", str(subset),
            "--target", "solar:default",
            "--reps", "3",
            "--seed", "1",
        ]
        proc = run_cli(*args, "-n", str(listed + 1), "--out", str(tmp_path / "over"))
        assert proc.returncode == 2
        assert f"-n {listed + 1} exceeds the {listed} customers the pair table lists" in proc.stderr
        assert "Traceback" not in proc.stderr
        proc = run_cli(*args, "--out", str(tmp_path / "sim"))
        assert proc.returncode == 0, proc.stderr
        for name in ("curve_eid.csv", "baseline.csv"):
            lines = (tmp_path / "sim" / name).read_text().splitlines()
            assert len(lines) == listed + 1
            assert lines[-1].startswith(f"{listed},")


class TestTargetSpecs:
    def test_flat(self):
        resolver, target, _ = parse_target_spec("flat")
        assert np.array_equal(target.values, np.ones(12))
        assert resolver("L1") is target

    def test_custom_vector(self):
        resolver, target, _ = parse_target_spec("custom:" + ",".join(["2"] * 12))
        assert np.array_equal(target.values, np.ones(12))

    def test_custom_wrong_arity(self):
        with pytest.raises(DataError):
            parse_target_spec("custom:1,2,3")

    def test_solar_default_amplitude(self):
        _, target, _ = parse_target_spec("solar:default:0.2")
        assert target.values.max() == pytest.approx(1.2, abs=1e-12)

    def test_solar_table_at_province(self, tmp_path):
        table_csv = tmp_path / "solar.csv"
        header = "province," + ",".join(f"m{j:02d}" for j in range(1, 13))
        table_csv.write_text(header + "\nP01," + ",".join(["2.0"] * 12) + "\n")
        _, target, _ = parse_target_spec(f"solar:{table_csv}@P01")
        assert np.array_equal(target.values, np.ones(12))

    def test_complement_from_csv(self, tmp_path):
        agg = tmp_path / "agg.csv"
        agg.write_text(",".join(["1.5", "0.5"] * 6) + "\n")
        _, target, _ = parse_target_spec(f"complement:{agg}")
        assert np.allclose(target.values, np.array([0.5, 1.5] * 6), atol=1e-15)

    def test_unknown(self):
        with pytest.raises(DataError):
            parse_target_spec("zodiac")


def test_perfbench_tracer_finds_every_traced_function(tmp_path):
    # the benchmark's tracer looks up each function it wraps by name, so it
    # fails to start once one of them is deleted or renamed
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "perfbench" / "tracer.py"), str(tmp_path / "spans.json"), "--version"],
        capture_output=True,
        text=True,
        cwd=repo,
        env=dict(os.environ, PYTHONPATH=str(repo / "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
