"""Command-line interface.

Subcommands: ``solve`` (one scenario from a config file; every distinct
equilibrium when its ``solver.multistart`` asks for restarts), ``calibrate``,
``table2``, ``sweep --axis {mean-degree|alpha|df|phi}``, ``simulate``
(Monte Carlo validation of the referral formula), and ``reproduce-all``
(every experiment plus a pass/fail summary against the embedded
reference values).

Exit codes: 0 success, 2 solver non-convergence, 3 infeasible
calibration, 4 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

from .calibration import CalibrationError, CalibrationTargets, baseline_groups, calibrate
from .degree import Degenerate, DegreeDistribution, Poisson, Zipf, zipf_alpha_for_mean
from .experiments import (
    Scenario,
    SweepResult,
    SweepRow,
    equilibrium_rows,
    reference_checks,
    run_df_sweep,
    run_phi_sweep,
    run_structure_sweeps,
    run_table2,
    summary_report,
    sweep,
)
# Unused here since the rows carry both numbers; perfbench/spans.py traces these names.
from .metrics import gini, social_welfare  # noqa: F401
from .model import Equilibrium, GroupSpec, ModelParams
from .simulate import SimConfig, estimate_referral_rate
from .solver import ConvergenceError, SolverConfig, solve_all, solve_equilibrium

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_INFEASIBLE_CALIBRATION = 3
EXIT_BAD_CONFIG = 4


class ConfigError(ValueError):
    """Scenario configuration file is malformed."""


# ---------------------------------------------------------------------------
# Scenario configuration files (JSON).  Documented keys:
#   name     optional scenario label (default: file stem)
#   params   optional partial override of ModelParams fields
#   calibrate  optional JSON bool: recover gamma/beta/c/phi from "targets"
#   targets  optional partial override of CalibrationTargets fields
#   groups   required list of {"family", optional "size" (default 1e6), and
#            "mean"|"alpha"|"k"}, each of these a JSON number
#            family: "poisson"/"er", "regular"/"degenerate", "zipf"/"scale-free"
#   solver   optional {"initial_u", "multistart"} (SolverConfig); with
#            "multistart": n, solve prints every distinct equilibrium of
#            the default start and n random restarts


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclass_fields(cls)}


def _build_dataclass(cls, data: dict, where: str):
    allowed = _field_names(cls)
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _build_group(entry: dict, index: int) -> GroupSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"group {index}: expected an object, got {type(entry).__name__}")
    data = {"size": 1e6, **entry}
    family = str(data.pop("family", "")).lower().replace("_", "-")
    try:
        size = _number(data, "size")
        dist = _build_dist(family, data)
    except ValueError as exc:
        raise ConfigError(f"group {index}: {exc}") from exc
    if data:
        raise ConfigError(f"group {index}: unknown keys {sorted(data)}")
    try:
        return GroupSpec(size=size, dist=dist)
    except ValueError as exc:
        raise ConfigError(f"group {index}: {exc}") from exc


def _number(data: dict, *keys: str) -> float:
    """Pop the first of ``keys`` present in a group entry, a JSON number, as a float."""
    for key in keys:
        if key in data:
            value = data.pop(key)
            try:
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    return float(value)
            except OverflowError:  # an integer too large for a float
                pass
            raise ValueError(f"{key} must be a number, got {value!r}")
    raise ValueError(f"missing {' or '.join(keys)}")


def _build_dist(family: str, data: dict) -> DegreeDistribution:
    if family in ("poisson", "er", "erdos-renyi"):
        return Poisson(_number(data, "mean"))
    if family in ("regular", "degenerate"):
        k = _number(data, "k", "mean")
        if not k.is_integer():
            raise ValueError(f"regular networks need an integer degree, got {k:g}")
        return Degenerate(int(k))
    if family in ("zipf", "scale-free"):
        if "alpha" in data:
            return Zipf(_number(data, "alpha"))
        return Zipf(zipf_alpha_for_mean(_number(data, "mean")))
    raise ValueError(
        f"unknown family {family!r} "
        "(expected poisson/er, regular/degenerate, or zipf/scale-free)"
    )


def load_scenario(path: str | Path) -> tuple[Scenario, SolverConfig]:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")

    known = {"name", "params", "calibrate", "targets", "groups", "solver"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    raw_groups = data.get("groups")
    if not isinstance(raw_groups, list) or not raw_groups:
        raise ConfigError("config must define a nonempty 'groups' list")
    groups = tuple(_build_group(g, i + 1) for i, g in enumerate(raw_groups))

    param_overrides = data.get("params", {})
    if not isinstance(param_overrides, dict):
        raise ConfigError("'params' must be an object")
    calibrating = data.get("calibrate", False)
    if not isinstance(calibrating, bool):
        raise ConfigError(f"calibrate must be true or false, got {calibrating!r}")
    if calibrating:
        targets = _build_dataclass(CalibrationTargets, data.get("targets", {}), "targets")
        given = {k: param_overrides[k] for k in ("y", "b", "r", "delta", "eta") if k in param_overrides}
        leftover = set(param_overrides) - {"y", "b", "r", "delta", "eta"}
        if leftover:
            raise ConfigError(
                f"params {sorted(leftover)} cannot be overridden when calibrating"
            )
        try:
            params = calibrate(targets, **given)
        except CalibrationError:
            raise
        except ValueError as exc:  # a given parameter or the target degree law
            raise ConfigError(f"invalid calibration input: {exc}") from exc
    else:
        if "targets" in data:
            raise ConfigError("'targets' only applies when 'calibrate' is true")
        params = _build_dataclass(ModelParams, param_overrides, "params")

    solver = _build_dataclass(SolverConfig, data.get("solver", {}), "solver")
    name = str(data.get("name", path.stem))
    return Scenario(name=name, params=params, groups=groups), solver


# ---------------------------------------------------------------------------
# Subcommands.


def _print_equilibrium(name: str, eq: Equilibrium, row: SweepRow, out) -> None:
    """Print ``eq``, with the gini and social welfare held by ``row``, one of its CSV rows."""
    print(f"scenario: {name}", file=out)
    print(
        f"aggregate: u = {eq.u:.6f}  v = {eq.v:.6f}  V = {eq.V:.3e}  "
        f"residual = {eq.residual:.2e}  iterations = {eq.iterations}",
        file=out,
    )
    print(f"gini = {row.gini:.6e}  social welfare = {row.sw:.6f}", file=out)
    for i, g in enumerate(eq.groups, start=1):
        print(
            f"group {i}: u = {g.u:.6f}  w = {g.w:.6f}  p_market = {g.p_market:.6f}  "
            f"p_referral = {g.p_referral:.6f}  P = {g.P:.6f}  S = {g.S:.6f}",
            file=out,
        )


def _cmd_solve(args, out) -> int:
    scenario, solver_config = load_scenario(args.config)
    equilibria = solve_all(scenario.params, scenario.groups, solver_config)
    # The rows' gate runs before anything is printed, with or without --out.
    means = [group.dist.mean() for group in scenario.groups]
    rows = [equilibrium_rows(scenario.name, means, eq) for eq in equilibria]
    for eq, eq_rows in zip(equilibria, rows):
        _print_equilibrium(scenario.name, eq, eq_rows[0], out)
    if args.out:
        SweepResult(rows=[row for eq_rows in rows for row in eq_rows], notes=[]).write_csv(args.out)
        print(f"wrote {args.out}", file=out)
    return EXIT_OK


def _cmd_calibrate(args, out) -> int:
    if args.config:
        scenario, _ = load_scenario(args.config)
        params = scenario.params
    else:
        params = calibrate()
    for name in ("gamma", "beta", "c", "phi"):
        print(f"{name} = {getattr(params, name):.10g}", file=out)
    return EXIT_OK


# The scenarios of each ``sweep --axis``.
SWEEP_AXES = {
    "mean-degree": ("er_vs_regular",),
    "alpha": ("er_vs_scale_free",),
    "df": ("df",),
    "phi": ("phi", "phi_fine"),
}


def _cmd_table2(args, out) -> int:
    _emit(run_table2(), args.out, out)
    return EXIT_OK


def _cmd_sweep(args, out) -> int:
    _emit(sweep(*SWEEP_AXES[args.axis]), args.out, out)
    return EXIT_OK


def _cmd_simulate(args, out) -> int:
    params = calibrate()
    baseline = solve_equilibrium(params, baseline_groups())
    g = baseline.groups[0]
    families = {
        "poisson": Poisson(22.47),
        "regular": Degenerate(22),
        "zipf": Zipf(zipf_alpha_for_mean(22.47)),
    }
    chosen = [args.family] if args.family != "all" else list(families)
    for fam in chosen:
        dist = families[fam]
        try:
            config = SimConfig.at_context(
                dist, u_i=g.u, u=baseline.u, v=baseline.v, phi=params.phi,
                d_f=params.d_f, n_workers=args.workers, n_trials=args.trials, seed=args.seed,
            )
        except ValueError as exc:
            raise ConfigError(f"invalid simulation settings: {exc}") from exc
        target = dist.referral_expectation(g.P)
        est = estimate_referral_rate(config)
        print(
            f"{fam}: estimate = {est.estimate:.6f} +- {est.std_error:.6f}  "
            f"mean-field = {target:.6f}  z = {est.z_score(target):+.2f}",
            file=out,
        )
    return EXIT_OK


def _cmd_reproduce_all(args, out) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    calibrated = calibrate()
    baseline = solve_equilibrium(calibrated, baseline_groups())
    # Looked up here, not at import, so each runner is read from this
    # module's globals when the command runs.
    runs = (
        ("table2", run_table2), ("structure_sweep", run_structure_sweeps),
        ("df_sweep", run_df_sweep), ("phi_sweep", run_phi_sweep),
    )
    results = []
    for name, run in runs:
        results.append(run())
        results[-1].write_csv(outdir / f"{name}.csv")
        print(f"wrote {outdir / (name + '.csv')}", file=out)

    checks = reference_checks(calibrated, baseline, *results)
    report = summary_report(checks, [note for r in results for note in r.notes])
    (outdir / "summary.txt").write_text(report, encoding="utf-8")
    print(report, file=out, end="")
    return EXIT_OK


def _emit(result: SweepResult, path: str | None, out) -> None:
    if path:
        result.write_csv(path)
        print(f"wrote {path}", file=out)
    else:
        out.write(result.to_csv_text())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refmatch",
        description="Referral-hiring labor market equilibria over heterogeneous social networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one scenario from a JSON config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", help="write the equilibrium rows as CSV")

    p_cal = sub.add_parser("calibrate", help="recover (gamma, beta, c, phi) from targets")
    p_cal.add_argument("--config", help="optional scenario config with calibrate/targets")

    p_t2 = sub.add_parser("table2", help="two-group comparison across network structures")
    p_t2.add_argument("--out", help="CSV output path (default: stdout)")

    p_sweep = sub.add_parser("sweep", help="comparative-statics sweep")
    p_sweep.add_argument("--axis", required=True, choices=tuple(SWEEP_AXES))
    p_sweep.add_argument("--out", help="CSV output path (default: stdout)")

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of the referral formula")
    p_sim.add_argument("--family", default="all", choices=("all", "poisson", "regular", "zipf"))
    p_sim.add_argument("--workers", type=int, default=100_000)
    p_sim.add_argument("--trials", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)

    p_all = sub.add_parser("reproduce-all", help="run every experiment and summarize")
    p_all.add_argument("--outdir", default="refmatch-output")

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_CONFIG if exc.code not in (0, None) else EXIT_OK

    handlers = {
        "solve": _cmd_solve,
        "calibrate": _cmd_calibrate,
        "table2": _cmd_table2,
        "sweep": _cmd_sweep,
        "simulate": _cmd_simulate,
        "reproduce-all": _cmd_reproduce_all,
    }
    try:
        return handlers[args.command](args, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except CalibrationError as exc:
        print(f"error: infeasible calibration: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_CALIBRATION
    except ConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def entry_point() -> None:
    sys.exit(main())
