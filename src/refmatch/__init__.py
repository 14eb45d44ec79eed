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
from .degree import Degenerate, Poisson, Zipf, zipf_alpha_for_mean
from .metrics import gini, social_welfare
from .model import Equilibrium, GroupSpec, ModelParams
from .solver import ConvergenceError, SolverConfig, solve_all, solve_equilibrium

__version__ = "0.1.0"

# The API for building, calibrating and solving an economy; everything
# else is imported from its submodule (refmatch.experiments.sweep,
# refmatch.simulate.estimate_referral_rate, refmatch.degree.zeta, ...).
__all__ = [
    "ModelParams",
    "GroupSpec",
    "Equilibrium",
    "Poisson",
    "Degenerate",
    "Zipf",
    "zipf_alpha_for_mean",
    "SolverConfig",
    "ConvergenceError",
    "solve_equilibrium",
    "solve_all",
    "CalibrationTargets",
    "CalibrationError",
    "calibrate",
    "gini",
    "social_welfare",
]
