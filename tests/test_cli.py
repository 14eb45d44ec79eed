"""Command-line interface: commands, config handling, and exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from refmatch.cli import (
    EXIT_BAD_CONFIG,
    EXIT_INFEASIBLE_CALIBRATION,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    ConfigError,
    load_scenario,
    main,
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASELINE_CONFIG = {
    "name": "baseline",
    "groups": [
        {"family": "poisson", "size": 1e6, "mean": 22.47},
        {"family": "poisson", "size": 1e6, "mean": 22.47},
    ],
}


class TestSolveCommand:
    def test_solve_prints_equilibrium(self, tmp_path):
        config = write_config(tmp_path, BASELINE_CONFIG)
        code, text = run_cli("solve", "--config", config)
        assert code == EXIT_OK
        assert "scenario: baseline" in text
        assert "group 1:" in text and "group 2:" in text

    def test_solve_writes_csv(self, tmp_path):
        config = write_config(tmp_path, BASELINE_CONFIG)
        out_csv = tmp_path / "eq.csv"
        code, text = run_cli("solve", "--config", config, "--out", str(out_csv))
        assert code == EXIT_OK
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0].startswith("scenario,axis_value,group,")
        assert len(lines) == 3

    def test_mixed_families_and_solver_section(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "groups": [
                    {"family": "regular", "size": 1e6, "k": 16},
                    {"family": "scale-free", "size": 1e6, "mean": 22.47},
                ],
                "solver": {"damping": 0.4, "residual_tol": 1e-11},
            },
        )
        code, text = run_cli("solve", "--config", config)
        assert code == EXIT_OK

    def test_calibrate_directive_in_config(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "calibrate": True,
                "targets": {"referral_share": 0.4},
                "groups": BASELINE_CONFIG["groups"],
            },
        )
        code, text = run_cli("solve", "--config", config)
        assert code == EXIT_OK

    def test_non_convergence_exit_code(self, tmp_path):
        config = write_config(
            tmp_path,
            {**BASELINE_CONFIG, "solver": {"max_outer_iters": 1}},
        )
        code, _ = run_cli("solve", "--config", config)
        assert code == EXIT_NO_CONVERGENCE


class TestBadConfigs:
    def test_missing_file(self):
        code, _ = run_cli("solve", "--config", "/nonexistent/nope.json")
        assert code == EXIT_BAD_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run_cli("solve", "--config", str(path))
        assert code == EXIT_BAD_CONFIG

    def test_missing_groups(self, tmp_path):
        config = write_config(tmp_path, {"params": {"phi": 0.05}})
        code, _ = run_cli("solve", "--config", config)
        assert code == EXIT_BAD_CONFIG

    def test_unknown_keys(self, tmp_path):
        config = write_config(tmp_path, {**BASELINE_CONFIG, "bogus": 1})
        code, _ = run_cli("solve", "--config", config)
        assert code == EXIT_BAD_CONFIG

    def test_unknown_family(self, tmp_path):
        config = write_config(
            tmp_path, {"groups": [{"family": "smallworld", "size": 1e6, "mean": 3}]}
        )
        with pytest.raises(ConfigError, match="^group 1: unknown family"):
            load_scenario(config)
        code, _ = run_cli("solve", "--config", config)
        assert code == EXIT_BAD_CONFIG

    def test_bad_parameter_value(self, tmp_path):
        config = write_config(tmp_path, {**BASELINE_CONFIG, "params": {"beta": 2.0}})
        code, _ = run_cli("solve", "--config", config)
        assert code == EXIT_BAD_CONFIG

    def test_zero_outer_iterations(self, tmp_path):
        # iteration and restart counts must be positive integers
        for solver in ({"max_outer_iters": 0}, {"max_outer_iters": 50.5}, {"multistart": 1.5}):
            config = write_config(tmp_path, {**BASELINE_CONFIG, "solver": solver})
            code, _ = run_cli("solve", "--config", config)
            assert code == EXIT_BAD_CONFIG, solver

    @pytest.mark.parametrize("group, message", [
        ({"family": "poisson", "size": 1e6}, "missing mean"),
        ({"family": "zipf", "size": 1e6}, "missing mean"),
        ({"family": "poisson", "size": 1e6, "mean": None}, "mean must be a number"),
    ])
    def test_malformed_group_entry(self, tmp_path, group, message):
        config = write_config(tmp_path, {"groups": [BASELINE_CONFIG["groups"][0], group]})
        with pytest.raises(ConfigError, match=f"group 2: {message}"):
            load_scenario(config)
        code, _ = run_cli("solve", "--config", config)
        assert code == EXIT_BAD_CONFIG

    def test_non_integer_regular_degree(self, tmp_path):
        for key in ("mean", "k"):
            config = write_config(
                tmp_path, {"groups": [{"family": "regular", "size": 1e6, key: 22.47}]}
            )
            with pytest.raises(ConfigError, match="group 1: regular networks need an integer"):
                load_scenario(config)
            code, _ = run_cli("solve", "--config", config)
            assert code == EXIT_BAD_CONFIG

    def test_load_scenario_reports_group_index(self, tmp_path):
        config = write_config(
            tmp_path, {"groups": [{"family": "poisson", "size": 1e6, "mean": 5.0},
                                  {"family": "zipf", "size": 1e6, "alpha": 1.5}]}
        )
        with pytest.raises(ValueError, match="group 2"):
            load_scenario(config)


class TestCalibrateCommand:
    def test_default_targets(self):
        code, text = run_cli("calibrate")
        assert code == EXIT_OK
        values = dict(
            line.split(" = ") for line in text.strip().split("\n") if " = " in line
        )
        assert abs(float(values["gamma"]) - 0.402) < 0.002
        assert abs(float(values["beta"]) - 0.028) < 0.002
        assert abs(float(values["c"]) - 7.188) < 0.02
        assert abs(float(values["phi"]) - 0.048) < 0.002

    def test_infeasible_targets_exit_code(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "calibrate": True,
                "targets": {"referral_share": 0.999, "baseline_mean_degree": 0.5},
                "groups": BASELINE_CONFIG["groups"],
            },
        )
        code, _ = run_cli("calibrate", "--config", config)
        assert code == EXIT_INFEASIBLE_CALIBRATION


class TestModuleEntry:
    def test_python_dash_m(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-m", "refmatch", "calibrate"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("gamma = ")


class TestSweepCommands:
    def test_table2_stdout(self):
        code, text = run_cli("table2")
        assert code == EXIT_OK
        assert text.startswith("scenario,axis_value,group,")
        assert "scale_free" in text

    def test_sweep_mean_degree_to_file(self, tmp_path):
        out = tmp_path / "gap.csv"
        code, _ = run_cli("sweep", "--axis", "mean-degree", "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 11
        assert all(line.split(",")[0] == "er_vs_regular" for line in lines[1:])

    @pytest.mark.parametrize("argv, fixture", [
        (("table2",), "table2_result"),
        (("sweep", "--axis", "df"), "df_result"),
        (("sweep", "--axis", "phi"), "phi_result"),
    ])
    def test_stdout_matches_runner(self, request, argv, fixture):
        code, text = run_cli(*argv)
        assert code == EXIT_OK
        assert text == request.getfixturevalue(fixture).to_csv_text()

    def test_structure_axes_match_runner(self, structure_result):
        _, by_mean = run_cli("sweep", "--axis", "mean-degree")
        _, by_alpha = run_cli("sweep", "--axis", "alpha")
        _, alpha_rows = by_alpha.split("\n", 1)
        assert by_mean + alpha_rows == structure_result.to_csv_text()

    def test_sweep_requires_axis(self):
        code, _ = run_cli("sweep")
        assert code == EXIT_BAD_CONFIG

    def test_unknown_command_rejected(self):
        code, _ = run_cli("frobnicate")
        assert code == EXIT_BAD_CONFIG


class TestSimulateCommand:
    def test_single_family(self):
        code, text = run_cli(
            "simulate", "--family", "regular", "--workers", "20000",
            "--trials", "20000", "--seed", "3",
        )
        assert code == EXIT_OK
        assert text.startswith("regular: estimate = ")
        z = float(text.split("z = ")[1])
        assert abs(z) < 4.0


class TestReproduceAll:
    def test_writes_outputs_and_summary(self, tmp_path):
        outdir = tmp_path / "results"
        code, text = run_cli("reproduce-all", "--outdir", str(outdir))
        assert code == EXIT_OK
        for name in ("table2", "structure_sweep", "df_sweep", "phi_sweep"):
            assert (outdir / f"{name}.csv").exists()
        summary = (outdir / "summary.txt").read_text()
        assert "PASS calibration gamma" in summary
        assert "reference checks passed" in summary
        # the two known reference discrepancies stay visible
        assert "FAIL zipf mean alpha=2.028" in summary
        assert "FAIL structure u-gap argmax" in summary
