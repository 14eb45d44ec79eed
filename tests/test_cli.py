"""Command-line interface: commands, config handling, and exit codes."""

import collections
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from refmatch import (CalibrationTargets, Degenerate, ModelParams, Poisson, SolverConfig, Zipf,
                      calibration, cli, experiments, simulate, solver)
from refmatch.calibration import CalibrationError, baseline_groups, calibrate
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

    def test_zipf_mean_near_alpha_2(self, tmp_path):
        # Mean 1e4 needs alpha = 2.00015, where adjacent doubles of alpha
        # move the mean by more than the fit's 5e-9 stop rule.
        config = write_config(tmp_path, {"groups": [{"family": "zipf", "mean": 1e4}]})
        code, text = run_cli("solve", "--config", config)
        assert code == EXIT_OK
        assert "group 1:" in text

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

    @pytest.mark.parametrize("raw", [b'{"name": "\xff"}', b"[" * 100_000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_unparsable_file(self, tmp_path, capsys, raw):
        path = tmp_path / "scenario.json"
        path.write_bytes(raw)
        code, _ = run_cli("solve", "--config", str(path))
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot parse config")

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

    @pytest.mark.parametrize("command, payload", [
        ("solve", {"params": {"eta": 2e16}}),
        ("solve", {"params": {"eta": 12}}),
        ("calibrate", {"calibrate": True, "params": {"eta": 6.75e16}}),
    ])
    def test_matching_exponent_above_one(self, tmp_path, capsys, command, payload):
        # (u/v)^(eta-1) overflowed at the huge values (exit 1, a traceback),
        # and eta = 12 ran the whole iteration cap before exiting 2.
        config = write_config(tmp_path, {**BASELINE_CONFIG, **payload})
        code, text = run_cli(command, "--config", config)
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "eta" in err[0]
        assert text == ""

    def test_no_job_destruction(self, tmp_path, capsys):
        # The vacancy closure gives v = 0 before the first step, which used
        # to exit 1 with market_arrival's traceback naming u and v.
        config = write_config(tmp_path, {"params": {"delta": 0.0},
                                         "groups": [{"family": "poisson", "mean": 10}]})
        code, text = run_cli("solve", "--config", config)
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid params: params.delta = 0")
        assert text == ""

    def test_tiny_vacancy_cost(self, tmp_path, capsys):
        # The closure overflows to v = inf, and market_arrival then raised
        # ZeroDivisionError: exit 1 with a traceback.
        config = write_config(tmp_path, {"params": {"c": 1e-320},
                                         "groups": [{"family": "poisson", "mean": 10}]})
        code, text = run_cli("solve", "--config", config)
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid params: vacancy closure v = inf * ")
        assert text == ""

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

    @pytest.mark.parametrize("payload, key", [
        ({"solver": 5}, "invalid solver"),
        ({"calibrate": True, "targets": 5}, "invalid targets"),
        ({"calibrate": True, "params": {"y": "2"}}, "params.y"),
        ({"params": {"d_f": 10**400}}, "params.d_f"),
        ({"params": {"phi": True}}, "params.phi"),
        ({"solver": {"multistart": True}}, "solver.multistart"),
        ({"params": {"phi": "0.05"}}, "params.phi"),
        ({"params": {"d_f": True}}, "params.d_f"),
        ({"calibrate": True, "targets": {"d_f": True}}, "targets.d_f"),
        ({"groups": [{"family": 5, "mean": 22.47}]}, "group 1: family"),
        ({"name": "a,b\nc"}, "name"),
        ({"name": 'say "hi"'}, "name"),
        ({"name": "a\rb"}, "name"),
        ({"name": 5}, "name"),
    ])
    def test_out_of_rule_value_names_its_key(self, tmp_path, capsys, payload, key):
        # Sections are objects of JSON numbers (bool is not one); a family
        # and the name are strings, and the CSV must hold the name unquoted.
        config = write_config(tmp_path, {**BASELINE_CONFIG, **payload})
        out_csv = tmp_path / "eq.csv"
        code, text = run_cli("solve", "--config", config, "--out", str(out_csv))
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
        assert text == "" and not out_csv.exists()

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


# Any JSON value, and numbers that reach the range checks behind the reader.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=3,
)
NUMBERS = st.floats() | st.floats(-0.5, 1.5) | st.integers(-2, 40)


def section(keys):
    """An object over ``keys`` and a stray key, or any JSON value."""
    return st.dictionaries(st.sampled_from((*keys, "bogus")), NUMBERS | JSON, max_size=4) | JSON


def field_names(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


GROUP = st.fixed_dictionaries(
    {"family": st.sampled_from(("poisson", "er", "regular", "zipf", "scale-free")) | JSON},
    optional={key: NUMBERS | JSON for key in ("size", "mean", "alpha", "k", "bogus")},
)
# Values for each top-level key of a config.
SECTIONS = {
    "name": st.text(max_size=3) | JSON,
    "params": section(field_names(ModelParams)),
    "calibrate": JSON,
    "targets": section(field_names(CalibrationTargets)),
    "groups": st.lists(GROUP, min_size=1, max_size=2) | JSON,
    "solver": section(field_names(SolverConfig)),
}


class TestConfigFuzz:
    @pytest.mark.parametrize("key", SECTIONS)
    @settings(derandomize=True, max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_load_scenario_raises_only_config_errors(self, tmp_path, key, data):
        # One key takes any value, the rest stay valid, with and without
        # calibrating.  A config outside the model is a ConfigError (exit 4)
        # or, when calibrating, a CalibrationError (exit 3); nothing else.
        payload = {**BASELINE_CONFIG, "calibrate": data.draw(st.booleans()),
                   key: data.draw(SECTIONS[key])}
        try:
            load_scenario(write_config(tmp_path, payload))
        except (ConfigError, CalibrationError):
            pass


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

    def test_config_without_directive_is_refused(self, tmp_path, capsys):
        # Such a config carries no targets: printing its params would pass
        # them off as recovered.
        config = write_config(tmp_path, {
            "groups": [{"family": "poisson", "mean": 5}], "params": {"gamma": 0.9},
        })
        code, text = run_cli("calibrate", "--config", config)
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and '"calibrate": true' in err[0]
        assert text == ""

    def test_config_with_directive_recovers_the_defaults(self, tmp_path):
        config = write_config(tmp_path, {**BASELINE_CONFIG, "calibrate": True})
        assert run_cli("calibrate", "--config", config) == run_cli("calibrate")

    def test_config_needs_no_groups(self, tmp_path):
        # Calibration solves its own two-Poisson baseline and reads no groups.
        config = write_config(tmp_path, {"calibrate": True})
        code, text = run_cli("calibrate", "--config", config)
        assert (code, text) == run_cli("calibrate")
        assert code == EXIT_OK and len(text.splitlines()) == 4

    def test_config_with_an_unknown_key_is_refused(self, tmp_path, capsys):
        config = write_config(tmp_path, {"calibrate": True, "group": []})
        code, text = run_cli("calibrate", "--config", config)
        assert code == EXIT_BAD_CONFIG and text == ""
        assert capsys.readouterr().err == "error: unknown config keys: ['group']\n"


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

    def test_focal_stubs_past_the_budget_exit_cleanly(self, capsys, monkeypatch):
        monkeypatch.setattr(simulate, "_FOCAL_STUB_BYTES", 8 * 1_000)
        code, text = run_cli("simulate", "--family", "regular", "--workers", "2000",
                             "--trials", "1000")
        assert code == EXIT_BAD_CONFIG
        assert text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid simulation settings: ")
        assert "focal stubs need more than the 8000-byte budget" in err[0]


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


class TestReproduceAllKernelCalls:
    def test_kernel_call_count(self, tmp_path, monkeypatch):
        # Every call into a law's referral kernel, checked or not, one
        # reproduce-all makes.  The analytic bracket on every sweep made
        # 35,082 kernel calls, the two-ended warm bracket with Illinois
        # steps 24,431 over 54 solves; the anchored bracket with
        # Anderson-Bjorck steps and one solve per distinct economy of a
        # sweep (52 solves) 18,489.  Wood's expansion for the Zipf kernel
        # took the Zipf calls from 7,713 to 6,973, and sharing the
        # calibration's baseline solve the Poisson calls from 8,683 to 8,574.
        # Summing over groups with math.fsum moved paths by ulps: Poisson
        # 8,574 -> 8,576, Degenerate 2,093 -> 2,090 and Zipf 6,973 -> 6,966.
        calls = collections.Counter()

        def counted(name, kernel):
            def call(*args):
                calls[name] += 1
                return kernel(*args)
            return call

        for law in (Poisson, Degenerate, Zipf):
            monkeypatch.setattr(law, "_reach", counted(law.__name__, law._reach))
        code, _ = run_cli("reproduce-all", "--outdir", str(tmp_path / "results"))
        assert code == EXIT_OK
        assert calls == {"Poisson": 8576, "Degenerate": 2090, "Zipf": 6966}


class TestReproduceAllSolves:
    def test_one_solve_per_economy(self, tmp_path, monkeypatch):
        # Every solve of reproduce-all goes through one of these names.  The
        # baseline economy is solved once, by calibrate's verification: 51
        # solves, where a second solve of it made 52.
        baseline, solved = (calibrate(), baseline_groups()), []

        def counted(solve):
            def call(params, groups, *args, **kwargs):
                solved.append((params, tuple(groups)))
                return solve(params, groups, *args, **kwargs)
            return call

        for module in (calibration, experiments, cli):
            monkeypatch.setattr(module, "solve_equilibrium", counted(module.solve_equilibrium))
        code, _ = run_cli("reproduce-all", "--outdir", str(tmp_path / "results"))
        assert code == EXIT_OK
        assert len(solved) == 51
        assert solved.count(baseline) == 1


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", [
        ("table2", "--out"),
        ("sweep", "--axis", "mean-degree", "--out"),
        ("solve", "--config", None, "--out"),
        ("reproduce-all", "--outdir"),
    ], ids=lambda command: command[0])
    def test_exits_4_with_one_error_line(self, tmp_path, capsys, monkeypatch, command):
        # The output path is checked before anything is solved.
        def refuse(*args, **kwargs):
            raise AssertionError("solved before the output path was checked")

        monkeypatch.setattr(experiments, "solve_equilibrium", refuse)
        monkeypatch.setattr(cli, "solve_all", refuse)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        # A missing directory for a CSV, a path under a file for a directory.
        under_file, in_missing_dir = blocker / "x", tmp_path / "missing" / "x.csv"
        target = str(under_file if command[0] == "reproduce-all" else in_missing_dir)
        argv = [write_config(tmp_path, BASELINE_CONFIG) if a is None else a for a in command]
        code, _ = run_cli(*argv, target)
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and target in err[0], err

    def test_failed_solve_leaves_an_existing_out_unchanged(self, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise solver.ConvergenceError("no steady state", [0.5], 0.5, 1.0, 1)

        monkeypatch.setattr(cli, "solve_all", diverge)
        out_csv = tmp_path / "eq.csv"
        out_csv.write_text("kept\n")
        config = write_config(tmp_path, BASELINE_CONFIG)
        code, _ = run_cli("solve", "--config", config, "--out", str(out_csv))
        assert code == EXIT_NO_CONVERGENCE
        assert out_csv.read_text() == "kept\n"
