"""Command-line interface: commands, config handling, and exit codes."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from refmatch import cli, solver
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

    def test_mixed_families_and_solver_section(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "_DAMPING", 0.4)
        monkeypatch.setattr(solver, "_RESIDUAL_TOL", 1e-11)
        config = write_config(
            tmp_path,
            {
                "groups": [
                    {"family": "regular", "size": 1e6, "k": 16},
                    {"family": "scale-free", "size": 1e6, "mean": 22.47},
                ],
                "solver": {"initial_u": 0.1, "multistart": 1},
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

    def test_multistart_runs_every_restart(self, tmp_path, monkeypatch):
        calls = []
        iterate = solver._iterate

        def counting(*args):
            calls.append(args)
            return iterate(*args)

        monkeypatch.setattr(solver, "_iterate", counting)
        config = write_config(tmp_path, {**BASELINE_CONFIG, "solver": {"multistart": 3}})
        code, _ = run_cli("solve", "--config", config)
        assert code == EXIT_OK
        assert len(calls) == 4

    def test_unique_equilibrium_prints_once(self, tmp_path):
        plain = write_config(tmp_path, BASELINE_CONFIG, "plain.json")
        multi = write_config(
            tmp_path, {**BASELINE_CONFIG, "solver": {"multistart": 3}}, "multi.json")
        code, text = run_cli("solve", "--config", multi)
        assert code == EXIT_OK
        assert text == run_cli("solve", "--config", plain)[1]

    def test_every_equilibrium_printed_and_written(self, tmp_path, monkeypatch):
        # Two equilibria, as solve_all reports a multiplicity: both are
        # printed, and the CSV holds both equilibria's rows in that order.
        solve_all = cli.solve_all
        monkeypatch.setattr(cli, "solve_all", lambda *args: solve_all(*args) * 2)
        config = write_config(tmp_path, BASELINE_CONFIG)
        out_csv = tmp_path / "eq.csv"
        code, text = run_cli("solve", "--config", config, "--out", str(out_csv))
        assert code == EXIT_OK
        assert text.count("scenario: baseline") == 2
        lines = out_csv.read_text().strip().split("\n")
        assert len(lines) == 5 and lines[1:3] == lines[3:5]

    def test_metrics_computed_once_per_equilibrium(self, tmp_path, monkeypatch):
        # The printed gini and social welfare are the numbers the CSV rows
        # hold: one call of each per equilibrium, with or without --out.
        from refmatch import experiments

        calls = {"gini": 0, "social_welfare": 0}
        for name in calls:
            metric = getattr(experiments, name)

            def counting(eq, name=name, metric=metric):
                calls[name] += 1
                return metric(eq)

            for module in (cli, experiments):
                monkeypatch.setattr(module, name, counting)
        config = write_config(tmp_path, {**BASELINE_CONFIG, "solver": {"multistart": 3}})
        for extra in ((), ("--out", str(tmp_path / "eq.csv"))):
            calls.update(gini=0, social_welfare=0)
            code, text = run_cli("solve", "--config", config, *extra)
            assert code == EXIT_OK
            printed = text.count("scenario: baseline")
            assert printed >= 1
            assert calls == {"gini": printed, "social_welfare": printed}

    def test_non_convergence_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_OUTER_ITERS", 1)
        config = write_config(tmp_path, BASELINE_CONFIG)
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

    def test_solver_takes_only_start_and_restart_count(self, tmp_path, capsys):
        # The iteration cap, tolerance, damping and restart seed are solver
        # constants, and the restart count must be an integer >= 0.
        for section in ({"max_outer_iters": 0}, {"max_outer_iters": 50.5}, {"multistart": 1.5},
                        {"damping": 0.4}, {"residual_tol": 1e-11}, {"multistart_seed": 7}):
            config = write_config(tmp_path, {**BASELINE_CONFIG, "solver": section})
            code, _ = run_cli("solve", "--config", config)
            assert code == EXIT_BAD_CONFIG, section
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert next(iter(section)) in err[0]

    def test_calibrate_must_be_a_bool(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            **BASELINE_CONFIG, "calibrate": "false", "targets": {"referral_share": 0.4},
        })
        code, text = run_cli("solve", "--config", config)
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "calibrate" in err[0]
        assert text == ""

    @pytest.mark.parametrize("group, message", [
        ({"family": "poisson", "size": 1e6}, "missing mean"),
        ({"family": "zipf", "size": 1e6}, "missing mean"),
        ({"family": "poisson", "size": 1e6, "mean": None}, "mean must be a number"),
        ({"family": "poisson", "size": 1e6, "mean": "22.47"}, "mean must be a number"),
        ({"family": "poisson", "size": 1e6, "mean": True}, "mean must be a number"),
        ({"family": "poisson", "size": 1e6, "mean": 10**400}, "mean must be a number"),
        ({"family": "zipf", "size": 1e6, "alpha": "2.3"}, "alpha must be a number"),
        ({"family": "regular", "size": 1e6, "k": "16"}, "k must be a number"),
        ({"family": "poisson", "size": True, "mean": 22.47}, "size must be a number"),
        ({"family": "poisson", "size": "1e6", "mean": 22.47}, "size must be a number"),
    ])
    def test_malformed_group_entry(self, tmp_path, capsys, group, message):
        config = write_config(tmp_path, {"groups": [BASELINE_CONFIG["groups"][0], group]})
        with pytest.raises(ConfigError, match=f"group 2: {message}"):
            load_scenario(config)
        code, _ = run_cli("solve", "--config", config)
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: group 2: {message}")

    def test_non_integer_regular_degree(self, tmp_path):
        for key in ("mean", "k"):
            config = write_config(
                tmp_path, {"groups": [{"family": "regular", "size": 1e6, key: 22.47}]}
            )
            with pytest.raises(ConfigError, match="group 1: regular networks need an integer"):
                load_scenario(config)
            code, _ = run_cli("solve", "--config", config)
            assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("payload", [
        {"params": {"d_f": math.inf}},
        {"calibrate": True, "targets": {"d_f": 2.5}},
        {"calibrate": True, "targets": {"d_f": math.inf}},
    ])
    def test_job_network_degree_is_a_count(self, tmp_path, capsys, payload):
        config = write_config(tmp_path, {**BASELINE_CONFIG, **payload})
        code, _ = run_cli("solve", "--config", config)
        assert code == EXIT_BAD_CONFIG
        assert "d_f must be an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, field", [
        ({"params": {"c": math.inf}}, "c must be finite"),
        ({"params": {"r": math.inf}}, "r must be finite"),
        ({"params": {"gamma": math.inf}}, "gamma must be finite"),
        ({"params": {"eta": math.inf}}, "eta must be finite"),
        ({"params": {"c": 10**400}}, "invalid params"),  # too large for a float
        ({"calibrate": True, "params": {"y": math.inf}}, "y must be finite"),
        ({"calibrate": True, "targets": {"baseline_mean_degree": math.inf}}, "Poisson mean"),
        ({"groups": [{"family": "poisson", "mean": 22.47, "size": math.inf}]}, "group size"),
        ({"groups": [{"family": "zipf", "alpha": math.inf}]}, "Zipf scale parameter"),
        ({"groups": [{"family": "poisson", "mean": math.inf}]}, "Poisson mean"),
        ({"solver": {"residual_tol": math.inf}}, "residual_tol"),
    ])
    def test_non_finite_inputs(self, tmp_path, capsys, payload, field):
        config = write_config(tmp_path, {**BASELINE_CONFIG, **payload})
        code, _ = run_cli("solve", "--config", config)
        assert code == EXIT_BAD_CONFIG
        assert field in capsys.readouterr().err

    def test_row_gate_failure_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        # A tolerance looser than the 1e-10 row gate converges, and the
        # gate then refuses its rows before anything is printed or written.
        monkeypatch.setattr(solver, "_RESIDUAL_TOL", 1e-9)
        config = write_config(tmp_path, {
            "groups": [{"family": "poisson", "mean": 2.744973717646443},
                       {"family": "zipf", "alpha": 2.3}],
        })
        out_csv = tmp_path / "eq.csv"
        code, _ = run_cli("solve", "--config", config, "--out", str(out_csv))
        assert code == EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "refusing to emit row" in err[0]
        assert not out_csv.exists()

    def test_row_gate_failure_prints_no_state(self, tmp_path, capsys, monkeypatch):
        # Without --out the same gate runs: a non-equilibrium is not printed.
        monkeypatch.setattr(solver, "_RESIDUAL_TOL", 1e-2)
        config = write_config(tmp_path, {
            "groups": [{"family": "poisson", "mean": 2.744973717646443},
                       {"family": "zipf", "alpha": 2.3}],
        })
        code, text = run_cli("solve", "--config", config)
        assert code == EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "aggregate:" not in text

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

    @pytest.mark.parametrize("flag, value, field", [
        ("--workers", "1", "n_workers"),
        ("--workers", "-5", "n_workers"),
        ("--trials", "0", "n_trials"),
        ("--seed", "-1", "seed"),
    ])
    def test_out_of_range_settings_exit_cleanly(self, capsys, flag, value, field):
        code, text = run_cli("simulate", "--family", "regular", flag, value)
        assert code == EXIT_BAD_CONFIG
        assert text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


class TestReproduceAll:
    def test_writes_outputs_and_summary(self, tmp_path):
        outdir = tmp_path / "results"
        code, text = run_cli("reproduce-all", "--outdir", str(outdir))
        assert code == EXIT_OK
        # Every output file matches the benchmark's golden copy byte for byte.
        for name in ("table2.csv", "structure_sweep.csv", "df_sweep.csv", "phi_sweep.csv",
                     "summary.txt"):
            assert (outdir / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        summary = (outdir / "summary.txt").read_text()
        assert "PASS calibration gamma" in summary
        assert "reference checks passed" in summary
        # the two known reference discrepancies stay visible
        assert "FAIL zipf mean alpha=2.028" in summary
        assert "FAIL structure u-gap argmax" in summary
