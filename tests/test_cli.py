"""End-to-end command-line behavior: pipelines, formats, determinism, exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import laplace_audit
from laplace_audit import cli, experiments, models, random_gaussian_model
from laplace_audit.cli import main
from laplace_audit.experiments import (
    CSV_COLUMNS,
    MEDIAN_COLUMNS,
    ExperimentReport,
    ExperimentSpec,
    ReplicateResult,
    run_experiment,
)

from oracles import InfTailGaussian


def _strict_json(text):
    """Parse JSON, refusing the NaN and Infinity literals that JSON does not have."""

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _inf_tail_gaussian(d, seed):
    model = random_gaussian_model(d, seed)
    return InfTailGaussian(model.mean, model.covariance)


def _write_spec(path, **overrides):
    payload = {
        "rows": [{"d": 3, "n": 30, "sigma0": 10.0}],
        "replicates": 2,
        "seed": 77,
        "n_directions": 32,
        "quadrature_nodes": 32,
        "mcmc_preset": "desk",
        "estimate_truth": False,
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return path


class TestGenDataAuditPipeline:
    def test_pipeline_produces_bound_report(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "report.json"
        assert main(["gen-data", "--d", "5", "--n", "100", "--seed", "7", "--out", str(data)]) == 0
        # the dataset CSV bytes are pinned, so the writer's format cannot drift
        assert hashlib.sha256(data.read_bytes()).hexdigest() == (
            "3e68ec27f33e9945778b61198fe318c64cb43fdfec83ebfda36890f0a51ef73b"
        )
        assert main(
            ["audit", "--data", str(data), "--sigma0", "10", "--directions", "64",
             "--seed", "3", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["d"] == 5
        assert payload["approx_bound"] > 0
        assert set(payload["term_breakdown"]) == {"e_term", "cond_term", "eps1_term"}
        assert payload["invalid_directions"] == 0

    def test_audit_gaussian_null_is_exactly_zero(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(
            ["audit", "--model", "gaussian", "--d", "5", "--seed", "4", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["approx_bound"] == 0.0
        assert payload["detailed_bound"] == 0.0

    def test_audit_synthetic_without_data_flag(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(
            ["audit", "--d", "3", "--n", "40", "--sigma0", "5", "--seed", "2",
             "--directions", "32", "--out", str(out)]
        )
        assert code == 0 and json.loads(out.read_text())["d"] == 3

    def test_csv_format_flattens_scalars(self, capsys):
        assert main(
            ["audit", "--model", "gaussian", "--d", "3", "--seed", "1", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",", 1)[0] for line in lines[1:]}
        assert {"approx_bound", "detailed_bound", "term_breakdown.e_term"} <= keys

    def test_csv_writes_undefined_numbers_as_na(self, capsys):
        # one antithetic pair: the standard errors are null in JSON, NA here
        assert main(
            ["audit", "--d", "3", "--n", "40", "--seed", "1", "--directions", "2", "--format", "csv"]
        ) == 0
        text = capsys.readouterr().out
        cells = dict(line.split(",", 1) for line in text.strip().splitlines()[1:])
        assert cells["se_delta3_sq"] == "NA"
        assert cells["term_standard_errors.e_term_se"] == "NA"
        assert cells["spotcheck.radius_multiplier"] == "NA"
        assert "None" not in text

    def test_csv_quotes_a_warning_with_commas(self, capsys):
        # the chain's warning text holds a comma; the list as a whole too
        warning = (
            "acceptance rate 0.012 outside [0.05, 0.7]; the samples may not represent the target"
        )
        payload = {"kl": 0.5, "config": {"warnings": [warning], "seed": 1}, "se": None}
        cli._emit(payload, None, "csv", False)
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert all(len(row) == 2 for row in rows)
        cells = dict(rows[1:])
        assert json.loads(cells["config.warnings"]) == [warning]
        assert cells["kl"] == "0.5" and cells["config.seed"] == "1" and cells["se"] == "NA"


class TestStrictJson:
    def test_audit_with_undefined_standard_errors(self, capsys):
        # one antithetic pair: no standard error is defined
        assert main(["audit", "--d", "3", "--n", "40", "--seed", "1", "--directions", "2"]) == 0
        payload = _strict_json(capsys.readouterr().out)
        assert payload["se_delta3_sq"] is None
        assert payload["term_standard_errors"]["e_term_se"] is None
        assert payload["spotcheck"]["method"] == "proven"

    def test_table_without_truth(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json")
        out = tmp_path / "table.json"
        assert main(["table", "--spec", str(spec), "--format", "json", "--out", str(out)]) == 0
        payload = _strict_json(out.read_text())
        for cell in payload["replicates"]:
            assert cell["kl"] is None and cell["kl_se"] is None and cell["efficiency"] is None
            assert cell["approx_bound"] > 0
        assert payload["aggregates"][0]["median_kl"] is None


class TestNonFiniteTruth:
    def test_truth_command_exits_one(self, monkeypatch, capsys):
        # the CLI and the grid build a synthetic target through the models module
        monkeypatch.setattr(models, "random_gaussian_model", _inf_tail_gaussian)
        assert main(["truth", "--model", "gaussian", "--d", "1", "--seed", "2"]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_table_records_a_failed_cell(self, monkeypatch):
        monkeypatch.setattr(models, "random_gaussian_model", _inf_tail_gaussian)
        spec = ExperimentSpec.from_json_dict(
            {
                "rows": [{"d": 1, "n": 0, "sigma0": 1.0, "model": "gaussian"}],
                "replicates": 1,
                "seed": 3,
                "n_directions": 16,
            }
        )
        report = run_experiment(spec)
        (cell,) = report.replicates
        assert cell.status == "failed"
        assert cell.error.startswith("NonFiniteObjectiveError")
        # the message reaches the CSV's last column as one cell
        header, row, aggregate = csv.reader(io.StringIO(report.to_csv()))
        assert header == list(CSV_COLUMNS)
        assert row[CSV_COLUMNS.index("status")] == "failed"
        assert row[CSV_COLUMNS.index("error")] == cell.error
        assert aggregate[CSV_COLUMNS.index("error")] == "NA"


class TestTruthCommand:
    def test_gaussian_truth_near_zero(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(
            ["truth", "--model", "gaussian", "--d", "2", "--seed", "5", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["kl"]) <= max(3 * payload["se"], 1e-10)
        assert 0.0 < payload["acceptance_rate"] < 1.0
        assert payload["k2"] == 10_000  # desk preset


class TestTableCommand:
    def test_table_csv_shape(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json")
        out = tmp_path / "table.csv"
        assert main(["table", "--spec", str(spec), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert CSV_COLUMNS[-1] == "error"
        # 2 replicate rows + 1 aggregate row, none with an error
        assert len(lines) == 4
        assert lines[-1].split(",")[1] == "median"
        assert all(line.split(",")[-1] == "NA" for line in lines[1:])

    def test_table_csv_quotes_an_error_with_a_comma_or_quote(self):
        nan = float("nan")
        message = 'NonFiniteObjectiveError: phi is "inf", at 1 of 9 draws'
        cell = ReplicateResult(
            row=0, replicate=0, model="gaussian", d=1, n=0, sigma0=1.0, seed=3,
            kl=nan, kl_se=nan, approx_bound=nan, detailed_bound=nan, efficiency=nan,
            status="failed", error=message,
        )
        text = ExperimentReport({}, "", (cell,), ()).to_csv()
        (header, row) = csv.reader(io.StringIO(text))
        assert len(row) == len(header) == len(CSV_COLUMNS)
        assert row[-1] == message
        # each numeric cell is its str(), a NaN one NA
        assert text.splitlines()[1].startswith("0,0,gaussian,1,0,1.0,3,NA,NA,NA,NA,NA,failed,")

    def test_medians_fill_their_own_columns_beside_a_failed_cell(self, monkeypatch):
        # an infinite tail fails the gaussian row's cells; the logistic row runs
        monkeypatch.setattr(models, "random_gaussian_model", _inf_tail_gaussian)
        spec = ExperimentSpec.from_json_dict(
            {
                "rows": [
                    {"d": 1, "n": 0, "sigma0": 1.0, "model": "gaussian"},
                    {"d": 2, "n": 20, "sigma0": 5.0},
                ],
                "replicates": 2,
                "seed": 3,
                "n_directions": 16,
            }
        )
        report = run_experiment(spec)
        rows = list(csv.DictReader(io.StringIO(report.to_csv())))
        assert [r["replicate"] for r in rows] == ["0", "1", "0", "1", "median", "median"]
        failed = [r for r in rows[:4] if r["status"] == "failed"]
        assert failed and all(r["row"] == "0" and r["error"] != "NA" for r in failed)
        for r in failed:
            assert [r[c] for c in MEDIAN_COLUMNS] == ["NA"] * len(MEDIAN_COLUMNS)
        for aggregate, r in zip(report.aggregates, rows[4:]):
            assert r["status"] == f"ok:{2 - aggregate.n_failed}/failed:{aggregate.n_failed}"
            assert r["seed"] == r["error"] == "NA" and r["sigma0"] == str(aggregate.sigma0)
            for c in MEDIAN_COLUMNS:
                value = getattr(aggregate, f"median_{c}")
                assert r[c] == ("NA" if math.isnan(value) else str(value)), c
        # the logistic row's five medians differ, so one under another's column shows
        assert len({rows[5][c] for c in MEDIAN_COLUMNS}) == len(MEDIAN_COLUMNS)

    def test_pretty_csv_equals_csv(self, tmp_path):
        # --pretty only indents JSON
        spec = _write_spec(tmp_path / "spec.json")
        plain, pretty = tmp_path / "plain.csv", tmp_path / "pretty.csv"
        assert main(["table", "--spec", str(spec), "--out", str(plain)]) == 0
        assert main(["table", "--spec", str(spec), "--pretty", "--out", str(pretty)]) == 0
        assert pretty.read_bytes() == plain.read_bytes()

    def test_a_float_cell_is_its_str_in_every_csv(self, tmp_path, capsys):
        # the table CSV and the key/value CSV of audit and truth share one cell rule
        for value in (0.1, 1.0, 1e-300, 2.0**-1074, 123456789.12345679, 1e22, -2.5e-8):
            cli._emit({"x": value}, None, "csv", False)
            (_, (_, flat)) = csv.reader(io.StringIO(capsys.readouterr().out))
            cell = ReplicateResult(0, 0, "logistic", 1, 1, value, 0, kl=value)
            (_, row) = csv.reader(io.StringIO(ExperimentReport({}, "", (cell,), ()).to_csv()))
            assert flat == row[CSV_COLUMNS.index("kl")] == row[CSV_COLUMNS.index("sigma0")]
            assert flat == str(value)
        args = ["audit", "--d", "3", "--n", "40", "--seed", "1", "--directions", "16"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(args + ["--format", "csv"]) == 0
        cells = dict(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert cells["approx_bound"] == str(payload["approx_bound"])
        assert cells["term_breakdown.e_term"] == str(payload["term_breakdown"]["e_term"])
        spec = _write_spec(tmp_path / "spec.json")
        assert main(["table", "--spec", str(spec), "--format", "json"]) == 0
        (first, *_) = json.loads(capsys.readouterr().out)["replicates"]
        assert main(["table", "--spec", str(spec)]) == 0
        (row, *_) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["approx_bound"] == str(first["approx_bound"])
        assert row["detailed_bound"] == str(first["detailed_bound"])

    def test_table_json_contains_replicates_and_hash(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json")
        out = tmp_path / "table.json"
        assert main(["table", "--spec", str(spec), "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["replicates"]) == 2
        assert len(payload["spec_sha256"]) == 64

    def test_truth_columns_filled_at_desk_preset(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", estimate_truth=True, replicates=1)
        out = tmp_path / "t.csv"
        assert main(["table", "--spec", str(spec), "--out", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        kl = float(row[CSV_COLUMNS.index("kl")])
        approx = float(row[CSV_COLUMNS.index("approx_bound")])
        eff = float(row[CSV_COLUMNS.index("efficiency")])
        assert np.isfinite(kl) and approx > 0
        # efficiency is pure arithmetic on the reported values
        assert abs(eff - kl / approx) <= 1e-12 * abs(eff)

    def test_gaussian_smoke_row(self, tmp_path):
        spec = _write_spec(
            tmp_path / "spec.json",
            rows=[{"d": 3, "n": 0, "sigma0": 1.0, "model": "gaussian"}],
            replicates=1,
            estimate_truth=True,
        )
        out = tmp_path / "g.csv"
        assert main(["table", "--spec", str(spec), "--out", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[CSV_COLUMNS.index("kl")]) == pytest.approx(0.0, abs=1e-10)
        assert float(row[CSV_COLUMNS.index("approx_bound")]) == 0.0
        assert row[CSV_COLUMNS.index("efficiency")] == "NA"


class TestDeterminism:
    def test_audit_rerun_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(
                ["audit", "--d", "3", "--n", "40", "--sigma0", "5", "--seed", "11",
                 "--directions", "32", "--out", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_table_jobs_do_not_change_bytes(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", replicates=3)
        blobs = []
        for jobs, name in ((1, "j1.csv"), (3, "j3.csv")):
            out = tmp_path / name
            main(["table", "--spec", str(spec), "--jobs", str(jobs), "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestExitCodes:
    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["audit", "--frobnicate"])
        assert exc_info.value.code == 1

    @pytest.mark.parametrize(
        "flag", [["--delta4-mode", "grid"], ["--bound", "approx"]], ids=["delta4_mode", "bound"]
    )
    def test_removed_delta4_mode_flag_exits_one(self, flag):
        with pytest.raises(SystemExit) as exc_info:
            main(["audit", "--d", "3", "--n", "30", *flag])
        assert exc_info.value.code == 1

    def test_missing_required_args_exit_one(self, capsys):
        for argv, message in (
            (["gen-data", "--d", "3"], "--n"),
            (["audit", "--model", "gaussian"], "--model gaussian requires --d"),
            (["truth", "--d", "3"], "needs either --data or both --d and --n"),
        ):
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--model", "gaussian", "--d", "3", "--data", "/nonexistent.csv"],
             "--model gaussian does not read --data"),
            (["--model", "gaussian", "--d", "3", "--n", "30"],
             "--model gaussian does not read --n"),
            (["--data", "/nonexistent.csv", "--d", "3"], "a --data target does not read --d"),
            (["--data", "/nonexistent.csv", "--n", "30"], "a --data target does not read --n"),
            (["--model", "gaussian", "--d", "3", "--sigma0", "5"],
             "--model gaussian does not read --sigma0"),
        ],
        ids=["gaussian_data", "gaussian_n", "data_d", "data_n", "gaussian_sigma0"],
    )
    def test_unread_model_flag_exits_one(self, argv, message, capsys):
        # each flag used to be dropped without a word, so a mistyped target
        # ran as another one and exited 0
        for command in ("audit", "truth"):
            with pytest.raises(SystemExit) as exc_info:
                main([command, *argv])
            assert exc_info.value.code == 1
            assert message in capsys.readouterr().err

    def test_degenerate_dataset_exits_two(self, tmp_path, capsys):
        # exact duplicate covariate column + huge prior variance: the Hessian
        # at the mode is numerically singular, an assumption violation
        data = tmp_path / "dup.csv"
        main(["gen-data", "--d", "2", "--n", "30", "--seed", "3", "--out", str(data)])
        lines = data.read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        patched = ["y,x1,x2,x3"] + [",".join(row + [row[-1]]) for row in rows]
        data.write_text("\n".join(patched) + "\n")
        code = main(["audit", "--data", str(data), "--sigma0", "1e9", "--seed", "0"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "AssumptionViolationError"

    def test_dataset_without_covariates_exits_one(self, tmp_path, capsys):
        # no target to certify is a usage error, not an assumption violation
        data = tmp_path / "labels_only.csv"
        data.write_text("y\n1\n-1\n1\n")
        assert main(["audit", "--data", str(data)]) == 1
        assert "at least one column" in capsys.readouterr().err

    def test_non_finite_covariates_exit_one_without_a_warning(self, tmp_path):
        # the model refuses the data before a product of it warns
        data = tmp_path / "non_finite.csv"
        data.write_text("y,x1,x2\n1,0.5,nan\n-1,inf,1.0\n1,0.2,0.3\n")
        src = str(Path(laplace_audit.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "laplace_audit.cli", "audit", "--data", str(data)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "covariates must be finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_missing_file_exits_one(self, capsys):
        assert main(["audit", "--data", "/nonexistent.csv"]) == 1

    def test_table_zero_jobs_exits_one(self, tmp_path, capsys):
        spec = _write_spec(tmp_path / "spec.json")
        assert main(["table", "--spec", str(spec), "--jobs", "0"]) == 1
        assert "jobs must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda p: p["rows"][0].update(nn=30), "unknown row key 'nn'"),
            (lambda p: p["rows"][0].pop("n"), "row is missing the key 'n'"),
            (lambda p: p.update(rows=[[3, 30, 10.0]]), "row must be a JSON object"),
            (lambda p: p.update(n_direction=32), "unknown spec key 'n_direction'"),
            (lambda p: p.pop("rows"), "spec is missing the key 'rows'"),
            (lambda p: p.update(delta4_mode="grid"), "unknown spec key 'delta4_mode'"),
            (lambda p: p.update(rows=5), "spec key 'rows' must be a list"),
            (lambda p: p["rows"][0].update(d="5"), "row key 'd' must be an integer"),
            (lambda p: p["rows"][0].update(d=2.0), "row key 'd' must be an integer"),
            (lambda p: p["rows"][0].update(n=True), "row key 'n' must be an integer"),
            (lambda p: p["rows"][0].update(sigma0=True), "row key 'sigma0' must be a number"),
            (lambda p: p["rows"][0].update(model=1), "row key 'model' must be a string"),
            (lambda p: p.update(replicates="2"), "spec key 'replicates' must be an integer"),
            (lambda p: p.update(n_directions=8.0), "spec key 'n_directions' must be an integer"),
            (lambda p: p.update(estimate_truth=0), "key 'estimate_truth' must be true or false"),
            (lambda p: p.update(bound_form="approx"), "unknown spec key 'bound_form'"),
            (lambda p: p.update(mcmc_preset="fast"), "unknown mcmc preset 'fast'"),
            (lambda p: p.update(n_directions=7), "n_directions must be an even integer"),
        ],
        ids=[
            "row_key", "row_missing", "row_type", "spec_key", "spec_missing", "delta4_mode",
            "rows_not_list", "d_string", "d_float", "n_bool", "sigma0_bool", "model_not_string",
            "replicates_string", "n_directions_float", "estimate_truth_int", "bound_form",
            "mcmc_preset", "n_directions_odd",
        ],
    )
    def test_malformed_table_spec_exits_one(self, tmp_path, capsys, change, message):
        path = _write_spec(tmp_path / "spec.json")
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))
        assert main(["table", "--spec", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "laplace_audit.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "audit" in proc.stdout and "truth" in proc.stdout


class TestRuntimeNeedsNoScipy:
    """numpy is the only runtime dependency; scipy serves the tests alone."""

    @staticmethod
    def _python(code):
        src = str(Path(laplace_audit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_import_loads_no_scipy_module(self):
        proc = self._python(
            """
            import sys
            import laplace_audit, laplace_audit.cli
            print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @classmethod
    def _main_without_scipy(cls, argv):
        # a finder that refuses scipy stands in for an install without it
        return cls._python(
            f"""
            import sys

            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ImportError("scipy is not installed")
                    return None

            sys.meta_path.insert(0, NoScipy())
            from laplace_audit.cli import main
            sys.exit(main({argv!r}))
            """
        )

    def test_audit_runs_where_scipy_cannot_be_imported(self):
        proc = self._main_without_scipy(["audit", "--d", "5", "--n", "100", "--seed", "1"])
        assert proc.returncode == 0, proc.stderr
        assert _strict_json(proc.stdout)["approx_bound"] > 0.0

    def test_truth_runs_where_scipy_cannot_be_imported(self):
        proc = self._main_without_scipy(["truth", "--model", "gaussian", "--d", "3", "--seed", "5"])
        assert proc.returncode == 0, proc.stderr
        payload = _strict_json(proc.stdout)
        assert abs(payload["kl"]) <= max(3 * payload["se"], 1e-10)
        assert payload["k"] == 9_000

    def test_table_runs_where_scipy_cannot_be_imported(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", n_directions=16)
        proc = self._main_without_scipy(["table", "--spec", str(spec), "--format", "json"])
        assert proc.returncode == 0, proc.stderr
        replicates = _strict_json(proc.stdout)["replicates"]
        assert [r["status"] for r in replicates] == ["ok", "ok"]
        assert all(r["approx_bound"] > 0.0 and r["kl"] is None for r in replicates)


_ROW = experiments.ExperimentRow(2, 10, 1.0)


@pytest.mark.parametrize(
    "good, bad, message",
    [
        (laplace_audit.AuditConfig(), {"n_directions": 7}, "n_directions must be an even integer"),
        (laplace_audit.ChainConfig(40_000, 100), {"thin": 0}, "thin must be a positive integer"),
        (laplace_audit.desk_preset(), {"k2": 10}, "k2 must be an integer >= 64"),
        (models.SyntheticDatasetConfig(d=2, n=10, seed=0), {"seed": 0.5}, "seed must be an integer"),
        (_ROW, {"sigma0": -1.0}, "row sigma0 must be a finite positive real"),
        (ExperimentSpec((_ROW,), 1, 0), {"replicates": 0}, "replicates must be an integer >= 1"),
    ],
    ids=["audit", "chain", "preset", "dataset", "row", "spec"],
)
def test_settings_refuse_a_bad_value_when_built(good, bad, message):
    # no settings object has a check to call later: none can exist invalid,
    # whether built directly or derived from a valid one
    fields = {f.name: getattr(good, f.name) for f in dataclasses.fields(good)}
    with pytest.raises(ValueError, match=message):
        type(good)(**{**fields, **bad})
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(good, **bad)


class TestExperimentApi:
    def test_failed_cells_recorded_and_run_continues(self, tmp_path):
        spec = ExperimentSpec.from_json_dict(
            {
                "rows": [{"d": 2, "n": 10, "sigma0": 10.0}],
                "replicates": 2,
                "seed": 5,
                "n_directions": 16,
                "estimate_truth": False,
            }
        )
        report = run_experiment(spec)
        assert all(r.status == "ok" for r in report.replicates)
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == ",".join(CSV_COLUMNS)

    @pytest.mark.parametrize(
        "row, spec, message",
        [
            ({"d": 2.0}, {}, "row d must be an integer"),
            ({"n": 1.5}, {}, "row n must be an integer"),
            ({}, {"replicates": 1.0}, "replicates must be an integer"),
            ({}, {"seed": 1.5}, "seed must be an integer >= 0"),
            ({}, {"seed": -1}, "seed must be an integer >= 0"),
            ({"d": True}, {}, "row d must be an integer"),
            ({}, {"replicates": True}, "replicates must be an integer"),
            ({}, {"estimate_truth": "no"}, "spec key 'estimate_truth' must be true or false"),
            ({}, {"mcmc_preset": ["desk"]}, "spec key 'mcmc_preset' must be a string"),
            ({}, {"rows": experiments.ExperimentRow(2, 10, 1.0)}, "spec key 'rows' must be a list"),
            ({}, {"rows": ((2, 10, 1.0),)}, "each row must be an ExperimentRow"),
            ({"sigma0": "10"}, {}, "row key 'sigma0' must be a number"),
            ({"model": "probit"}, {}, "row model must be 'logistic' or 'gaussian'"),
        ],
        ids=[
            "row_d", "row_n", "replicates", "seed_float", "seed_negative", "row_d_bool",
            "replicates_bool", "estimate_truth_string", "mcmc_preset_list", "rows_bare_row",
            "row_not_a_row", "sigma0_string", "row_model",
        ],
    )
    def test_python_built_spec_counts_must_be_integers(self, row, spec, message):
        # a spec built in Python skips the JSON key check, so building the
        # row or the spec must turn these away before any cell runs, with
        # the JSON path's type rule
        with pytest.raises(ValueError, match=message):
            rows = (experiments.ExperimentRow(**{"d": 2, "n": 10, "sigma0": 1.0, **row}),)
            ExperimentSpec(**{"rows": rows, "replicates": 1, "seed": 0, **spec})

    def test_numpy_scalar_spec_runs_and_hashes_like_a_plain_one(self):
        # numpy counts used to run every cell and then fail in the spec hash
        # with "Object of type int64 is not JSON serializable"
        def spec(d, n, sigma0, replicates, seed):
            rows = (experiments.ExperimentRow(d, n, sigma0),)
            return ExperimentSpec(rows, replicates, seed, n_directions=16, estimate_truth=False)

        i64 = np.int64
        report = run_experiment(spec(i64(2), i64(10), np.float32(1.0), i64(1), i64(0)))
        assert [r.status for r in report.replicates] == ["ok"]
        payload = _strict_json(json.dumps(report.to_json_dict(), allow_nan=False))
        assert payload["spec"]["rows"] == [{"d": 2, "n": 10, "sigma0": 1.0, "model": "logistic"}]
        plain = experiments.spec_content_hash(spec(2, 10, 1.0, 1, 0))
        same = spec(i64(2), i64(10), np.float64(1.0), i64(1), i64(0))
        assert experiments.spec_content_hash(same) == plain
        assert report.to_csv() == run_experiment(spec(2, 10, 1.0, 1, 0)).to_csv()

    @pytest.mark.parametrize("jobs", [0, -1, 2.5, True, "2"])
    def test_jobs_must_be_a_positive_integer(self, jobs):
        # a float or bool count used to reach the thread pool, and a string
        # failed there with a TypeError
        spec = ExperimentSpec((_ROW,), 1, 0, n_directions=16, estimate_truth=False)
        with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
            run_experiment(spec, jobs=jobs)

    def test_infinite_sigma0_rejected_before_any_cell(self):
        # json.load reads the Infinity literal, so the spec check must turn
        # it away before the first row's cells run
        payload = json.loads(
            '{"rows": [{"d": 2, "n": 10, "sigma0": 1.0}, {"d": 2, "n": 10, "sigma0": Infinity}],'
            ' "replicates": 1, "seed": 0}'
        )
        with pytest.raises(ValueError, match="row sigma0 must be a finite positive real"):
            ExperimentSpec.from_json_dict(payload)

    def test_spec_validation(self):
        # an integer sigma0 is a number, and the value checks accept it
        spec = ExperimentSpec.from_json_dict(
            {"rows": [{"d": 2, "n": 10, "sigma0": 10}], "replicates": 1, "seed": 0}
        )
        assert spec.rows[0].sigma0 == 10
        with pytest.raises(ValueError):
            ExperimentSpec.from_json_dict({"rows": [], "replicates": 1, "seed": 0})
        with pytest.raises(ValueError):
            ExperimentSpec.from_json_dict(
                {"rows": [{"d": 0, "n": 1, "sigma0": 1.0}], "replicates": 1, "seed": 0}
            )
