"""Scenario runners for the network-comparison experiments.

Each runner solves a family of two-group economies and emits a
:class:`SweepResult`: one CSV row per (scenario, grid point, group) with
the group outcomes and the economy-wide Gini/social-welfare values.
Rows are only emitted after the equilibrium passes the solver
invariants (flow balance and free entry), so a written CSV is always a
set of verified steady states.

The canonical grids reproduce the published comparison tables and
figure sweeps; embedded reference values and tolerance checks are in
:func:`reference_checks` / :func:`summary_report`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .degree import Degenerate, Poisson, Zipf, zipf_alpha_for_mean
from .metrics import gini, social_welfare
from .model import Equilibrium, GroupSpec, ModelParams
from .solver import SolverConfig, solve_equilibrium

__all__ = [
    "Scenario",
    "SweepRow",
    "SweepResult",
    "CheckOutcome",
    "CSV_HEADER",
    "equilibrium_rows",
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

CSV_HEADER = (
    "scenario", "axis_value", "group", "u", "w", "p_market",
    "p_referral", "P_i", "S", "gini", "sw", "v",
)

DEFAULT_GROUP_SIZE = 1e6

# Mean-degree grid for the Erdos-Renyi vs regular comparison (integers so
# the regular network is well defined), the scale-parameter grid for the
# Erdos-Renyi vs scale-free comparison, and the job-network / referral
# frequency grids.
STRUCTURE_MEAN_GRID = (0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
ALPHA_GRID = (2.028, 2.05, 2.1, 2.3, 2.5, 3.0, 5.0)
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


@dataclass
class SweepResult:
    """Rows plus free-form metadata notes, serializable to the CSV contract."""

    rows: list[SweepRow]
    notes: list[str]

    def write_csv(self, target) -> None:
        """Write the contract CSV (floats at 10 significant digits)."""
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            with open(target, "w", encoding="utf-8", newline="") as fh:
                self._write(fh)
        else:
            self._write(target)

    def _write(self, fh) -> None:
        fh.write(",".join(CSV_HEADER) + "\n")
        for r in self.rows:
            fields = [r.scenario, _fmt(r.axis_value), str(r.group)] + [
                _fmt(x)
                for x in (r.u, r.w, r.p_market, r.p_referral, r.P_i, r.S, r.gini, r.sw, r.v)
            ]
            fh.write(",".join(fields) + "\n")

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue()

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
    if not eq.residual < 1e-10:
        raise RuntimeError(f"refusing to emit row: flow residual {eq.residual:.3e}")
    if not abs(eq.V * eq.params.r) < _FREE_ENTRY_TOL:
        raise RuntimeError(f"refusing to emit row: free entry violated, rV = {eq.V * eq.params.r:.3e}")


def equilibrium_rows(scenario: str, axis_value: float, eq: Equilibrium) -> list[SweepRow]:
    """CSV rows for one verified equilibrium (one row per group)."""
    _check_invariants(eq)
    g_val = gini(eq)
    sw_val = social_welfare(eq)
    return [
        SweepRow(
            scenario=scenario, axis_value=float(axis_value), group=i + 1,
            u=gs.u, w=gs.w, p_market=gs.p_market, p_referral=gs.p_referral,
            P_i=gs.P, S=gs.S, gini=g_val, sw=sw_val, v=eq.v,
        )
        for i, gs in enumerate(eq.groups)
    ]


def _pair(dist_a, dist_b, size: float) -> tuple[GroupSpec, GroupSpec]:
    return (GroupSpec(size=size, dist=dist_a), GroupSpec(size=size, dist=dist_b))


def run_table2(
    params: ModelParams | None = None,
    *,
    means: tuple[float, float] = (15.0, 30.0),
    size: float = DEFAULT_GROUP_SIZE,
    config: SolverConfig | None = None,
) -> SweepResult:
    """Two-group comparison across the three network structures.

    For each structure both groups share it but differ in expected
    degree; the scale-free scale parameters are fitted to the target
    means.  axis_value carries the group's expected degree.
    """
    params = params or ModelParams()
    m1, m2 = means
    if m1 != int(m1) or m2 != int(m2):
        raise ValueError(f"regular networks need integer degrees, got means {means}")
    scenarios = [
        ("er", _pair(Poisson(m1), Poisson(m2), size)),
        ("regular", _pair(Degenerate(int(m1)), Degenerate(int(m2)), size)),
        ("scale_free", _pair(Zipf(zipf_alpha_for_mean(m1)), Zipf(zipf_alpha_for_mean(m2)), size)),
    ]
    result = SweepResult(rows=[], notes=[])
    for name, groups in scenarios:
        eq = solve_equilibrium(params, groups, config)
        for row, mean in zip(equilibrium_rows(name, 0.0, eq), means):
            result.rows.append(replace(row, axis_value=float(mean)))
    return result


def run_structure_sweeps(
    params: ModelParams | None = None,
    *,
    mean_grid: Sequence[int] = STRUCTURE_MEAN_GRID,
    alphas: Sequence[float] = ALPHA_GRID,
    size: float = DEFAULT_GROUP_SIZE,
    config: SolverConfig | None = None,
) -> SweepResult:
    """Same expected degree, different structure.

    ``er_vs_regular``: group 1 Poisson, group 2 regular, over a common
    integer mean-degree grid (degree 0 uses an empty network for both
    groups; the Poisson law needs a positive mean).  ``er_vs_scale_free``:
    group 2 Zipf with scale parameter alpha, group 1 Poisson matched to
    the Zipf mean; axis_value is alpha.
    """
    params = params or ModelParams()
    result = SweepResult(rows=[], notes=[])
    for m in mean_grid:
        if m != int(m):
            raise ValueError(f"regular networks need integer degrees, got {m}")
        m = int(m)
        groups = (
            _pair(Degenerate(0), Degenerate(0), size)
            if m == 0
            else _pair(Poisson(float(m)), Degenerate(m), size)
        )
        eq = solve_equilibrium(params, groups, config)
        result.rows.extend(equilibrium_rows("er_vs_regular", float(m), eq))
    for a in alphas:
        mean = Zipf(a).mean()
        groups = _pair(Poisson(mean), Zipf(a), size)
        eq = solve_equilibrium(params, groups, config)
        result.rows.extend(equilibrium_rows("er_vs_scale_free", float(a), eq))
    result.notes.append(
        "er_vs_scale_free: group 1 is Poisson matched to the Zipf mean of group 2."
    )
    return result


def run_df_sweep(
    params: ModelParams | None = None,
    *,
    df_values: Sequence[int] = DF_GRID,
    mean_degree: float = 22.47,
    size: float = DEFAULT_GROUP_SIZE,
    config: SolverConfig | None = None,
) -> SweepResult:
    """Job-network connectivity sweep: Poisson vs Zipf at a common mean."""
    params = params or ModelParams()
    alpha = zipf_alpha_for_mean(mean_degree)
    groups = _pair(Poisson(mean_degree), Zipf(alpha), size)
    result = SweepResult(rows=[], notes=[])
    for d_f in df_values:
        eq = solve_equilibrium(replace(params, d_f=int(d_f)), groups, config)
        result.rows.extend(equilibrium_rows("df", float(d_f), eq))
    return result


def run_phi_sweep(
    params: ModelParams | None = None,
    *,
    phi_values: Sequence[float] = PHI_GRID,
    fine_values: Sequence[float] = PHI_FINE_GRID,
    mean_degree: float = 22.47,
    size: float = DEFAULT_GROUP_SIZE,
    config: SolverConfig | None = None,
) -> SweepResult:
    """Referral-frequency sweep: Poisson vs Zipf at a common mean.

    Emits the published value set under scenario ``phi`` and a fine grid
    under ``phi_fine`` used to locate the inequality peak.
    """
    params = params or ModelParams()
    alpha = zipf_alpha_for_mean(mean_degree)
    groups = _pair(Poisson(mean_degree), Zipf(alpha), size)
    result = SweepResult(rows=[], notes=[])
    for name, values in (("phi", phi_values), ("phi_fine", fine_values)):
        for phi in values:
            eq = solve_equilibrium(replace(params, phi=float(phi)), groups, config)
            result.rows.extend(equilibrium_rows(name, float(phi), eq))
    result.notes.append(
        "phi grid: published value set lists 0.1 twice and an isolated 0.408 "
        "(apparent typo); the deduplicated sorted set is used here, plus a "
        "fine grid on (0, 0.3] to locate the Gini peak."
    )
    return result


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
