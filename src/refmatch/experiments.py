"""The network-comparison experiments: one scenario table, one solve loop.

Every experiment solves two-group economies whose networks differ, at
each point of a grid.  :data:`SCENARIOS` holds one entry per CSV
scenario, in the published row order: its grid, the economy at each grid
value, and its note.  :func:`sweep` solves the named scenarios and emits
a :class:`SweepResult`: one CSV row per (scenario, grid point, group)
with the group outcomes and the economy-wide Gini/social-welfare values.
Rows are only emitted after the equilibrium passes the solver
invariants (flow balance and free entry), so a written CSV is always a
set of verified steady states.  The four ``run_*`` runners are the
published tables and sweeps, each a fixed list of scenarios.

Embedded reference values and tolerance checks are in
:func:`reference_checks` / :func:`summary_report`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Iterable, Sequence

from .degree import Degenerate, Poisson, Zipf, zipf_alpha_for_mean
from .metrics import gini, social_welfare
from .model import Equilibrium, GroupSpec, ModelParams
from .solver import ConvergenceError, solve_equilibrium

__all__ = [
    "Scenario",
    "SweepRow",
    "SweepResult",
    "SweepScenario",
    "CheckOutcome",
    "CSV_HEADER",
    "SCENARIOS",
    "equilibrium_rows",
    "sweep",
    "STRUCTURE_MEAN_GRID",
    "ALPHA_GRID",
    "DF_GRID",
    "PHI_GRID",
    "PHI_FINE_GRID",
    "run_table2",
    "run_structure_sweeps",
    "run_df_sweep",
    "run_phi_sweep",
    "reference_checks",
    "summary_report",
]

DEFAULT_GROUP_SIZE = 1e6

# Group mean degrees of the two-group comparison table, the mean-degree
# grid for the Erdos-Renyi vs regular comparison (integers so the regular
# network is well defined), the scale-parameter grid for the Erdos-Renyi
# vs scale-free comparison, the common mean degree of the job-network /
# referral-frequency sweeps, and their grids.
TABLE2_MEANS = (15.0, 30.0)
STRUCTURE_MEAN_GRID = (0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
ALPHA_GRID = (2.028, 2.05, 2.1, 2.3, 2.5, 3.0, 5.0)
COMMON_MEAN_DEGREE = 22.47
DF_GRID = (0, 1, 2, 3, 5, 10, 16, 20, 40)
# The published referral-frequency value set, deduplicated and sorted; it
# contains an apparent typo (0.408, with 0.1 listed twice), noted in the
# sweep metadata.  A fine grid on [0, 0.3] locates the inequality peak.
PHI_GRID = (0.0, 0.001, 0.01, 0.1, 0.3, 0.408, 1.0)
PHI_FINE_GRID = tuple(round(0.02 * k, 2) for k in range(1, 16))

_FREE_ENTRY_TOL = 1e-8


@dataclass(frozen=True)
class Scenario:
    """A named economy: parameters and groups."""

    name: str
    params: ModelParams
    groups: tuple[GroupSpec, ...]


@dataclass(frozen=True)
class SweepRow:
    scenario: str
    axis_value: float
    group: int
    u: float
    w: float
    p_market: float
    p_referral: float
    P_i: float
    S: float
    gini: float
    sw: float
    v: float


CSV_HEADER = tuple(f.name for f in fields(SweepRow))


@dataclass
class SweepResult:
    """Rows plus free-form metadata notes, serializable to the CSV contract."""

    rows: list[SweepRow]
    notes: list[str]

    def write_csv(self, path) -> None:
        """Write :meth:`to_csv_text` to the file at ``path``."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        """The contract CSV (floats at 10 significant digits)."""
        lines = [",".join(CSV_HEADER)]
        for r in self.rows:
            values = (getattr(r, name) for name in CSV_HEADER)
            lines.append(",".join(x if isinstance(x, str) else _fmt(x) for x in values))
        return "\n".join(lines) + "\n"

    def rows_for(self, scenario: str) -> list[SweepRow]:
        return [r for r in self.rows if r.scenario == scenario]

    def series(self, scenario: str, field: str, group: int = 1) -> list[tuple[float, float]]:
        """(axis_value, field) pairs for one group, in row order."""
        return [
            (r.axis_value, getattr(r, field))
            for r in self.rows
            if r.scenario == scenario and r.group == group
        ]


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _check_invariants(eq: Equilibrium) -> None:
    """Raise ConvergenceError unless ``eq`` holds flow balance and free entry to row precision."""
    rv = eq.V * eq.params.r
    if not (eq.residual < 1e-10 and abs(rv) < _FREE_ENTRY_TOL):
        raise ConvergenceError(
            f"refusing to emit row: flow residual {eq.residual:.3e}, rV = {rv:.3e}",
            [g.u for g in eq.groups], eq.v, eq.residual, eq.iterations,
        )


def equilibrium_rows(scenario: str, axis_values: Sequence[float], eq: Equilibrium) -> list[SweepRow]:
    """CSV rows for one verified equilibrium: one row per group, with its axis value."""
    _check_invariants(eq)
    g_val = gini(eq)
    sw_val = social_welfare(eq)
    return [
        SweepRow(
            scenario=scenario, axis_value=float(x), group=i + 1,
            u=gs.u, w=gs.w, p_market=gs.p_market, p_referral=gs.p_referral,
            P_i=gs.P, S=gs.S, gini=g_val, sw=sw_val, v=eq.v,
        )
        for i, (gs, x) in enumerate(zip(eq.groups, axis_values, strict=True))
    ]


# ---------------------------------------------------------------------------
# The scenario table and its solve loop.

Economy = tuple[ModelParams, tuple[GroupSpec, ...]]


@dataclass(frozen=True)
class SweepScenario:
    """One CSV scenario: its grid, the economy at each grid value, its note.

    ``economy_at(x)`` is the economy at grid value ``x``.  A grid value is
    the rows' ``axis_value``: one number for every group, or a tuple with
    one number per group.
    """

    grid: tuple
    economy_at: Callable[[Any], Economy]
    note: str = ""


def _groups(*dists) -> tuple[GroupSpec, ...]:
    return tuple(GroupSpec(size=DEFAULT_GROUP_SIZE, dist=d) for d in dists)


def _groups_at(dists_at) -> Callable[[Any], Economy]:
    """Economy whose degree laws ``dists_at(x)`` follow the grid value."""
    return lambda x: (ModelParams(), _groups(*dists_at(x)))


@functools.cache
def _common_mean_groups() -> tuple[GroupSpec, ...]:
    """Poisson vs Zipf at the common mean degree, the d_f and phi economy."""
    return _groups(Poisson(COMMON_MEAN_DEGREE), Zipf(zipf_alpha_for_mean(COMMON_MEAN_DEGREE)))


def _param_at(name: str) -> Callable[[Any], Economy]:
    """Economy whose parameter ``name`` is the grid value, on the common-mean groups."""
    return lambda x: (replace(ModelParams(), **{name: x}), _common_mean_groups())


SCENARIOS: dict[str, SweepScenario] = {
    # The two-group comparison table: both groups share a structure and
    # differ in mean degree; scale-free scale parameters fit the means.
    "er": SweepScenario((TABLE2_MEANS,), _groups_at(lambda ms: map(Poisson, ms))),
    "regular": SweepScenario(
        (TABLE2_MEANS,), _groups_at(lambda ms: (Degenerate(int(m)) for m in ms))),
    "scale_free": SweepScenario(
        (TABLE2_MEANS,), _groups_at(lambda ms: (Zipf(zipf_alpha_for_mean(m)) for m in ms))),
    # Same mean degree, different structure.  Degree 0 is an empty network
    # for both groups, as Poisson needs a positive mean.
    "er_vs_regular": SweepScenario(STRUCTURE_MEAN_GRID, _groups_at(
        lambda m: (Poisson(float(m)), Degenerate(m)) if m else (Degenerate(0),) * 2)),
    "er_vs_scale_free": SweepScenario(
        ALPHA_GRID, _groups_at(lambda a: (Poisson(Zipf(a).mean()), Zipf(a))),
        note="er_vs_scale_free: group 1 is Poisson matched to the Zipf mean of group 2.",
    ),
    # Job-network connectivity and referral frequency, Poisson vs Zipf.
    "df": SweepScenario(DF_GRID, _param_at("d_f")),
    "phi": SweepScenario(
        PHI_GRID, _param_at("phi"),
        note="phi grid: published value set lists 0.1 twice and an isolated 0.408 "
        "(apparent typo); the deduplicated sorted set is used here, plus a "
        "fine grid on (0, 0.3] to locate the Gini peak.",
    ),
    "phi_fine": SweepScenario(PHI_FINE_GRID, _param_at("phi")),
}


def sweep(*names: str) -> SweepResult:
    """Solve, verify and emit the rows of the named scenarios, in order."""
    result = SweepResult(rows=[], notes=[])
    for name in names:
        scenario = SCENARIOS[name]
        for x in scenario.grid:
            params, groups = scenario.economy_at(x)
            eq = solve_equilibrium(params, groups)
            axis = x if isinstance(x, tuple) else (x,) * len(groups)
            result.rows.extend(equilibrium_rows(name, axis, eq))
        if scenario.note:
            result.notes.append(scenario.note)
    return result


def run_table2() -> SweepResult:
    """The comparison table; axis_value is each group's mean degree."""
    return sweep("er", "regular", "scale_free")


def run_structure_sweeps() -> SweepResult:
    """ER vs regular over mean degree, ER vs scale-free over alpha."""
    return sweep("er_vs_regular", "er_vs_scale_free")


def run_df_sweep() -> SweepResult:
    return sweep("df")


def run_phi_sweep() -> SweepResult:
    """The published phi values, then the fine grid that locates the Gini peak."""
    return sweep("phi", "phi_fine")


# ---------------------------------------------------------------------------
# Embedded reference values and pass/fail reporting.


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _close(name: str, got: float, want: float, tol: float) -> CheckOutcome:
    return CheckOutcome(
        name=name,
        passed=abs(got - want) <= tol,
        detail=f"got {got:.6g}, reference {want:g} (tolerance {tol:g})",
    )


def _rel_close(name: str, got: float, want: float, rel: float) -> CheckOutcome:
    return CheckOutcome(
        name=name,
        passed=abs(got - want) <= rel * abs(want),
        detail=f"got {got:.6g}, reference {want:g} (relative tolerance {rel:g})",
    )


def _holds(name: str, ok: bool, detail: str) -> CheckOutcome:
    return CheckOutcome(name=name, passed=bool(ok), detail=detail)


# Reference calibration row and baseline moments.
REFERENCE_CALIBRATION = {"gamma": (0.402, 0.002), "beta": (0.028, 0.002),
                         "c": (7.188, 0.02), "phi": (0.048, 0.002)}
REFERENCE_BASELINE = {"u": (0.044, 0.001), "v": (0.040, 0.001),
                      "w": (0.600, 0.002), "referral_share": (0.50, 0.01)}
# Reference two-group comparison values: per scenario, group unemployment
# rates (as fractions), wages, Gini, and social welfare where published.
REFERENCE_TABLE2 = {
    "er": {"u": ((0.0510, 0.0005), (0.0394, 0.0005)),
           "w": ((0.581, 0.002), (0.615, 0.002)),
           "gini": (1.45e-2, 0.10), "sw": (0.685, 0.003)},
    "regular": {"u": ((0.0508, 0.0005), (0.0393, 0.0005))},
    "scale_free": {"u": ((0.0814, 0.001), (0.0810, 0.001)),
                   "gini": (2.31e-4, 0.50), "sw": (0.627, 0.003)},
}
# Published (alpha, mean degree) pairs; the first pair is outside the
# exact zeta ratio by 0.059 (see summary notes).
REFERENCE_ALPHA_MEANS = {2.028: (22.47, 0.05), 2.05: (12.86, 0.01), 2.1: (6.78, 0.01),
                         2.3: (2.74, 0.01), 2.5: (1.95, 0.01), 3.0: (1.37, 0.01),
                         5.0: (1.04, 0.01)}


def check_calibration(params: ModelParams) -> list[CheckOutcome]:
    return [
        _close(f"calibration {name}", getattr(params, name), want, tol)
        for name, (want, tol) in REFERENCE_CALIBRATION.items()
    ]


def check_baseline(eq: Equilibrium) -> list[CheckOutcome]:
    g = eq.groups[0]
    values = {"u": eq.u, "v": eq.v, "w": g.w, "referral_share": g.p_referral / g.p_total}
    return [
        _close(f"baseline {name}", values[name], want, tol)
        for name, (want, tol) in REFERENCE_BASELINE.items()
    ]


def check_table2(result: SweepResult) -> list[CheckOutcome]:
    out = []
    for scenario, refs in REFERENCE_TABLE2.items():
        rows = result.rows_for(scenario)
        for (want, tol), row in zip(refs.get("u", ()), rows):
            out.append(_close(f"table2 {scenario} u{row.group}", row.u, want, tol))
        for (want, tol), row in zip(refs.get("w", ()), rows):
            out.append(_close(f"table2 {scenario} w{row.group}", row.w, want, tol))
        if "gini" in refs:
            out.append(_rel_close(f"table2 {scenario} gini", rows[0].gini, *refs["gini"]))
        if "sw" in refs:
            out.append(_close(f"table2 {scenario} sw", rows[0].sw, *refs["sw"]))
    return out


def check_alpha_means() -> list[CheckOutcome]:
    return [
        _close(f"zipf mean alpha={a}", Zipf(a).mean(), want, tol)
        for a, (want, tol) in REFERENCE_ALPHA_MEANS.items()
    ]


def _argmax(pairs: Iterable[tuple[float, float]]) -> float:
    pairs = list(pairs)
    return max(pairs, key=lambda kv: kv[1])[0]


def check_structure(result: SweepResult) -> list[CheckOutcome]:
    er = result.series("er_vs_regular", "u", group=1)
    reg = result.series("er_vs_regular", "u", group=2)
    gaps = [(m, ue - ur) for (m, ue), (_, ur) in zip(er, reg)]
    gap_at_0 = dict(gaps)[0.0]
    grid = [m for m, _ in gaps]
    step = grid[1] - grid[0]
    peak = _argmax(gaps)
    gini_peak = _argmax(result.series("er_vs_regular", "gini"))
    sf_u = dict(result.series("er_vs_scale_free", "u", group=2))
    er_u = dict(result.series("er_vs_scale_free", "u", group=1))
    out = [
        _holds("structure gap zero at degree 0", abs(gap_at_0) < 1e-12,
               f"u_er - u_regular = {gap_at_0:.3e} at mean degree 0"),
        _holds("structure u-gap argmax within one grid step of 25",
               abs(peak - 25.0) <= step + 1e-9,
               f"argmax at mean degree {peak:g} (grid step {step:g})"),
        _holds("structure gini argmax within one grid step of 25",
               abs(gini_peak - 25.0) <= step + 1e-9,
               f"argmax at mean degree {gini_peak:g} (grid step {step:g})"),
    ]
    for a in (2.028, 2.05, 2.1):
        if a in sf_u:
            out.append(_holds(f"scale-free disadvantage at alpha={a}", sf_u[a] > er_u[a],
                              f"u_sf = {sf_u[a]:.5f} vs u_er = {er_u[a]:.5f}"))
    return out


def check_df(result: SweepResult) -> list[CheckOutcome]:
    ginis = result.series("df", "gini")
    sws = result.series("df", "sw")
    g0 = ginis[0][1]
    return [
        _holds("df sweep equality at d_f = 0", ginis[0][0] == 0.0 and abs(g0) < 1e-12,
               f"gini = {g0:.3e} at d_f = 0"),
        _holds("df sweep gini nondecreasing",
               all(b[1] >= a[1] - 1e-12 for a, b in zip(ginis, ginis[1:])),
               f"gini from {ginis[0][1]:.3e} to {ginis[-1][1]:.3e}"),
        _holds("df sweep welfare nondecreasing",
               all(b[1] >= a[1] - 1e-12 for a, b in zip(sws, sws[1:])),
               f"sw from {sws[0][1]:.5f} to {sws[-1][1]:.5f}"),
    ]


def check_phi(result: SweepResult) -> list[CheckOutcome]:
    ginis = result.series("phi", "gini")
    sws = result.series("phi", "sw")
    fine_peak = _argmax(result.series("phi_fine", "gini"))
    return [
        _holds("phi sweep no inequality at phi = 0", abs(ginis[0][1]) < 1e-12,
               f"gini = {ginis[0][1]:.3e} at phi = 0"),
        _holds("phi sweep welfare nondecreasing",
               all(b[1] >= a[1] - 1e-12 for a, b in zip(sws, sws[1:])),
               f"sw from {sws[0][1]:.5f} to {sws[-1][1]:.5f}"),
        _holds("phi sweep gini peak inside [0.05, 0.2]", 0.05 <= fine_peak <= 0.2,
               f"fine-grid argmax at phi = {fine_peak:g}"),
    ]


def reference_checks(
    calibrated: ModelParams,
    baseline: Equilibrium,
    table2: SweepResult,
    structure: SweepResult,
    df: SweepResult,
    phi: SweepResult,
) -> list[CheckOutcome]:
    checks: list[CheckOutcome] = []
    checks += check_calibration(calibrated)
    checks += check_baseline(baseline)
    checks += check_table2(table2)
    checks += check_alpha_means()
    checks += check_structure(structure)
    checks += check_df(df)
    checks += check_phi(phi)
    return checks


def summary_report(checks: Sequence[CheckOutcome], notes: Sequence[str] = ()) -> str:
    lines = [c.line() for c in checks]
    n_pass = sum(c.passed for c in checks)
    lines.append(f"{n_pass}/{len(checks)} reference checks passed")
    if notes:
        lines.append("")
        lines.append("notes:")
        lines.extend(f"- {n}" for n in notes)
    return "\n".join(lines) + "\n"
