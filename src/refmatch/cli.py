"""Command-line interface.

Subcommands: ``solve`` (one scenario from a config file; every distinct
equilibrium when its ``solver.multistart`` asks for restarts), ``calibrate``,
``table2``, ``sweep --axis {mean-degree|alpha|df|phi}``, ``simulate``
(Monte Carlo validation of the referral formula), and ``reproduce-all``
(every experiment plus a pass/fail summary against the embedded
reference values).

Exit codes: 0 success, 2 solver non-convergence, 3 infeasible
calibration, 4 bad configuration or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields as dataclass_fields
from functools import partial
from pathlib import Path

from .calibration import CalibrationError, CalibrationTargets, calibrate, calibrated_baseline
from .degree import Degenerate, DegreeDistribution, Poisson, Zipf, zipf_alpha_for_mean
from .experiments import (
    Scenario,
    SweepResult,
    SweepRow,
    _common_mean_groups,
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
from .model import DEFAULT_GROUP_SIZE, Equilibrium, GroupSpec, ModelParams
from .simulate import SimConfig, estimate_referral_rate
from .solver import ConvergenceError, SolverConfig, solve_all, solve_equilibrium

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_INFEASIBLE_CALIBRATION = 3
EXIT_BAD_CONFIG = 4


class ConfigError(ValueError):
    """Scenario configuration file is malformed."""


# ---------------------------------------------------------------------------
# Scenario configuration files (JSON).  One rule: "params", "targets",
# "solver" and each "groups" entry are JSON objects whose values are JSON
# numbers (true and false are not numbers), save a group's "family", a
# string.  Documented keys:
#   name     optional scenario label (default: file stem), a string the CSV
#            holds unquoted: no ',', '"', CR or LF
#   params   optional partial override of ModelParams fields; when
#            calibrating, of the given parameters y, b, r, delta and eta
#   calibrate  optional JSON bool: recover gamma/beta/c/phi from "targets"
#   targets  optional partial override of CalibrationTargets fields
#   groups   required list of {"family", optional "size" (default
#            model.DEFAULT_GROUP_SIZE), and
#            "mean"|"alpha"|"k"}
#            family: "poisson"/"er", "regular"/"degenerate", "zipf"/"scale-free"
#   solver   optional {"initial_u", "multistart"} (SolverConfig); with
#            "multistart": n, solve prints every distinct equilibrium of
#            the default start and n random restarts

# Each family's degree-law keys, in the order a group entry is searched for one.
_LAW_KEYS = {"poisson": ("mean",), "regular": ("k", "mean"), "zipf": ("mean", "alpha")}
_FAMILY_ALIASES = {
    "er": "poisson", "erdos-renyi": "poisson", "degenerate": "regular", "scale-free": "zipf",
}


def _numbers(section, allowed, prefix: str) -> dict:
    """``section`` if it is an object of JSON numbers keyed within ``allowed``.

    A number is a float or an int a float can hold; bool is not a number.
    The ValueError raised otherwise names the key as ``prefix + key``.
    """
    if not isinstance(section, dict):
        raise ValueError(f"expected an object, got {type(section).__name__}")
    unknown = [prefix + key for key in sorted(set(section) - set(allowed))]
    if unknown:
        raise ValueError(f"unknown keys {unknown} (allowed: {', '.join(allowed)})")
    for key, value in section.items():
        if not (type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)):
            raise ValueError(f"{prefix}{key} must be a number, got {value!r}")
    return section


def _build(make, section, name: str, allowed=()):
    """``make(**section)`` for config section ``name``, whose keys default to ``make``'s fields."""
    allowed = allowed or [f.name for f in dataclass_fields(make)]
    try:
        return make(**_numbers(section, allowed, f"{name}."))
    except CalibrationError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


def _build_group(entry, index: int) -> GroupSpec:
    try:
        if not isinstance(entry, dict):
            raise ValueError(f"expected an object, got {type(entry).__name__}")
        data = dict(entry)
        family = data.pop("family", None)
        if not isinstance(family, str):
            raise ValueError(f"family must be a string, got {family!r}")
        family = family.lower().replace("_", "-")
        family = _FAMILY_ALIASES.get(family, family)
        if family not in _LAW_KEYS:
            raise ValueError(
                f"unknown family {family!r} "
                "(expected poisson/er, regular/degenerate, or zipf/scale-free)"
            )
        law = next((key for key in _LAW_KEYS[family] if key in data), None)
        if law is None:
            raise ValueError(f"missing {' or '.join(_LAW_KEYS[family])}")
        data = _numbers(data, ("size", law), "")
        size = float(data.get("size", DEFAULT_GROUP_SIZE))
        return GroupSpec(size=size, dist=_law(family, law, float(data[law])))
    except ValueError as exc:
        raise ConfigError(f"group {index}: {exc}") from exc


def _law(family: str, key: str, x: float) -> DegreeDistribution:
    """The degree law of ``family`` whose ``key`` ("mean", "alpha" or "k") is ``x``."""
    if family == "poisson":
        return Poisson(x)
    if family == "regular":
        if not x.is_integer():
            raise ValueError(f"regular networks need an integer degree, got {x:g}")
        return Degenerate(int(x))
    return Zipf(x if key == "alpha" else zipf_alpha_for_mean(x))


def _read_config(path: Path) -> dict:
    """The JSON object in the file at ``path``; ConfigError if it has an unknown top-level key."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested too deep
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - {"name", "params", "calibrate", "targets", "groups", "solver"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


def _config_params(data: dict) -> ModelParams:
    """The config's ``params``, or with ``"calibrate": true`` those recovered from its ``targets``."""
    calibrating = data.get("calibrate", False)
    if not isinstance(calibrating, bool):
        raise ConfigError(f"calibrate must be true or false, got {calibrating!r}")
    if calibrating:
        targets = _build(CalibrationTargets, data.get("targets", {}), "targets")
        given = ("y", "b", "r", "delta", "eta")  # calibrate recovers the rest
        return _build(partial(calibrate, targets), data.get("params", {}), "params", given)
    if "targets" in data:
        raise ConfigError("'targets' only applies when 'calibrate' is true")
    return _build(ModelParams, data.get("params", {}), "params")


def load_scenario(path: str | Path) -> tuple[Scenario, SolverConfig]:
    path = Path(path)
    data = _read_config(path)
    raw_groups = data.get("groups")
    if not isinstance(raw_groups, list) or not raw_groups:
        raise ConfigError("config must define a nonempty 'groups' list")
    groups = tuple(_build_group(g, i + 1) for i, g in enumerate(raw_groups))
    params = _config_params(data)
    solver = _build(SolverConfig, data.get("solver", {}), "solver")
    name = data.get("name", path.stem)
    if not isinstance(name, str) or any(c in name for c in ',"\r\n'):
        raise ConfigError(f"name must be a string without ',', '\"', CR or LF, got {name!r}")
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
    try:
        equilibria = solve_all(scenario.params, scenario.groups, solver_config)
    except ValueError as exc:  # parameters the model admits but no steady state has
        raise ConfigError(f"invalid params: {exc}") from exc
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
        # Calibration reads only calibrate, targets and params: it always
        # solves the two-Poisson baseline, whatever groups the config sets.
        data = _read_config(Path(args.config))
        if data.get("calibrate") is not True:
            raise ConfigError(f'{args.config} lacks "calibrate": true: nothing to recover')
        params = _config_params(data)
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
    params, baseline = calibrated_baseline()
    g = baseline.groups[0]
    poisson, zipf = (group.dist for group in _common_mean_groups())
    families = {"poisson": poisson, "regular": Degenerate(int(poisson.mean())), "zipf": zipf}
    chosen = [args.family] if args.family != "all" else list(families)
    for fam in chosen:
        dist = families[fam]
        try:
            config = SimConfig.at_context(
                dist, u_i=g.u, u=baseline.u, v=baseline.v, phi=params.phi,
                d_f=params.d_f, n_workers=args.workers, n_trials=args.trials, seed=args.seed,
            )
            est = estimate_referral_rate(config)
        except ValueError as exc:
            raise ConfigError(f"invalid simulation settings: {exc}") from exc
        target = dist.referral_expectation(g.P)
        print(
            f"{fam}: estimate = {est.estimate:.6f} +- {est.std_error:.6f}  "
            f"mean-field = {target:.6f}  z = {est.z_score(target):+.2f}",
            file=out,
        )
    return EXIT_OK


def _cmd_reproduce_all(args, out) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    calibrated, baseline = calibrated_baseline()  # the baseline its verification solved
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


def _check_writable(path: str) -> None:
    """Raise the OSError that writing ``path`` would raise, leaving the file system as it was."""
    try:
        open(path, "xb").close()  # a new file: created, then removed
        Path(path).unlink()
    except FileExistsError:
        open(path, "ab").close()  # an existing file: opened for writing, not truncated


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
        if getattr(args, "out", None):  # solve, table2 and sweep: fail before solving
            _check_writable(args.out)
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
    except OSError as exc:  # a config that cannot be read is a ConfigError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


def entry_point() -> None:
    sys.exit(main())
