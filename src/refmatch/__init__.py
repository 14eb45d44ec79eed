"""Search-and-matching labor market with referral hiring over social networks.

Unemployed workers receive job offers through a frictional market and
through referrals from employed contacts; groups differ only in the
degree distribution of their social network (Poisson, regular, or
scale-free Zipf).  The package solves for steady-state equilibria,
calibrates the four free parameters to baseline labor-market moments,
computes inequality and welfare statistics, cross-validates the
mean-field referral formula by Monte Carlo on explicit configuration
model networks, and reproduces the published comparison tables and
comparative-statics sweeps through a CLI.
"""

from .calibration import CalibrationError, CalibrationTargets, calibrate
from .degree import (
    Degenerate,
    DegreeDistribution,
    Poisson,
    Zipf,
    polylog,
    zeta,
    zipf_alpha_for_mean,
)
from .experiments import (
    ALPHA_GRID,
    CSV_HEADER,
    DF_GRID,
    PHI_FINE_GRID,
    PHI_GRID,
    STRUCTURE_MEAN_GRID,
    CheckOutcome,
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
)
from .metrics import WelfareReport, gini, group_incomes, social_welfare, welfare_report
from .model import (
    AssetValues,
    Equilibrium,
    GroupSpec,
    GroupState,
    ModelParams,
    info_probability,
    market_arrival,
    surplus,
    vacancy_closure,
    value_functions,
    wage,
)
from .simulate import (
    Network,
    ReferralEstimate,
    SimConfig,
    build_configuration_network,
    estimate_referral_rate,
)
from .solver import ConvergenceError, SolverConfig, flow_residual, solve_all, solve_equilibrium

__version__ = "0.1.0"

__all__ = [
    "AssetValues",
    "ALPHA_GRID",
    "CSV_HEADER",
    "CalibrationError",
    "CalibrationTargets",
    "CheckOutcome",
    "ConvergenceError",
    "DF_GRID",
    "Degenerate",
    "DegreeDistribution",
    "Equilibrium",
    "GroupSpec",
    "GroupState",
    "ModelParams",
    "Network",
    "PHI_FINE_GRID",
    "PHI_GRID",
    "Poisson",
    "ReferralEstimate",
    "STRUCTURE_MEAN_GRID",
    "Scenario",
    "SimConfig",
    "SolverConfig",
    "SweepResult",
    "SweepRow",
    "WelfareReport",
    "Zipf",
    "build_configuration_network",
    "calibrate",
    "equilibrium_rows",
    "estimate_referral_rate",
    "flow_residual",
    "gini",
    "group_incomes",
    "info_probability",
    "market_arrival",
    "polylog",
    "reference_checks",
    "run_df_sweep",
    "run_phi_sweep",
    "run_structure_sweeps",
    "run_table2",
    "social_welfare",
    "solve_all",
    "solve_equilibrium",
    "summary_report",
    "surplus",
    "vacancy_closure",
    "value_functions",
    "wage",
    "welfare_report",
    "zeta",
    "zipf_alpha_for_mean",
]
