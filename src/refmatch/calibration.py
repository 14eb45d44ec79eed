"""Recover (gamma, beta, c, phi) from the four baseline moment targets.

The baseline economy has two identical Poisson-network groups, which
makes the target system triangular: each parameter follows in closed
form from the previous ones, so no multidimensional root finder is
needed.

    p     = delta (1 - u) / u                    total arrival rate
    p_M   = p * (1 - referral_share)             market component
    gamma = p_M * (u/v)^(1-eta)
    P     = -ln(1 - p_R) / lambda                invert the Poisson
                                                 referral expectation
    phi   = P / ((1-u) [1 - (1 - v/(1-u+v))^d_f])
    beta  = (r+delta)(w-b) / ((y-w) p + (r+delta)(y-b))
    c     = (1-beta) (u p / v) S,   S = (y-b)/(r+delta+beta p)

The beta line is the unique root of the wage equation
w = y - (r+delta)(1-beta)(y-b)/(r+delta+beta p) on (0, 1), rearranged.
A verification solve with the recovered parameters must reproduce every
target to 1e-6; anything else raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .degree import Poisson, as_count, is_finite
from .model import GroupSpec, ModelParams, contact_reach
from .solver import ConvergenceError, solve_equilibrium

__all__ = ["CalibrationTargets", "CalibrationError", "baseline_groups", "calibrate"]

_VERIFY_TOL = 1e-6


class CalibrationError(ValueError):
    """Targets are infeasible or the verification solve missed them."""


@dataclass(frozen=True)
class CalibrationTargets:
    """Baseline moments the calibrated economy must reproduce."""

    u_target: float = 0.044
    market_tightness_inverse: float = 1.1  # u / v
    wage_target: float = 0.6
    referral_share: float = 0.5  # p_referral / p_total
    baseline_mean_degree: float = 22.47
    d_f: int = 16

    def __post_init__(self):
        if not 0.0 < self.u_target < 1.0:
            raise ValueError(f"unemployment target must lie in (0, 1), got {self.u_target}")
        # is_finite: an int too large for a float passes the comparison alone.
        if not (self.market_tightness_inverse > 0.0 and is_finite(self.market_tightness_inverse)):
            raise ValueError(
                f"u/v target market_tightness_inverse must be positive and finite, "
                f"got {self.market_tightness_inverse}"
            )
        if not (self.wage_target > 0.0 and is_finite(self.wage_target)):
            raise ValueError(f"wage_target must be positive and finite, got {self.wage_target}")
        if not 0.0 <= self.referral_share <= 1.0:
            raise ValueError(f"referral share must lie in [0, 1], got {self.referral_share}")
        if not (self.baseline_mean_degree > 0.0 and is_finite(self.baseline_mean_degree)):
            raise ValueError(
                f"baseline_mean_degree must be positive and finite (it is the Poisson mean "
                f"of the baseline groups), got {self.baseline_mean_degree}"
            )
        object.__setattr__(self, "d_f", as_count(self.d_f, "job-network degree d_f"))


def baseline_groups(
    mean_degree: float = CalibrationTargets.baseline_mean_degree,
) -> tuple[GroupSpec, GroupSpec]:
    """The baseline economy: two groups of 10^6 workers on Poisson(mean_degree) networks."""
    group = GroupSpec(size=1e6, dist=Poisson(mean_degree))
    return (group, group)


def calibrate(
    targets: CalibrationTargets | None = None,
    *,
    y: float = 1.0,
    b: float = 0.4,
    r: float = 0.012,
    delta: float = 0.036,
    eta: float = 0.72,
) -> ModelParams:
    """Complete the parameter vector from the baseline targets.

    The keyword arguments are the externally given parameters; the
    returned :class:`ModelParams` carries them plus the recovered
    (gamma, beta, c, phi).  Raises ValueError when they break a
    :class:`ModelParams` rule, and :class:`CalibrationError` when the
    targets are infeasible (referral share requiring P > 1 or phi > 1,
    beta outside [0, 1]) or when a fresh equilibrium solve does not
    converge or does not reproduce the targets to 1e-6.
    """
    t = targets or CalibrationTargets()
    given = ModelParams(y=y, b=b, r=r, delta=delta, eta=eta)  # checked before any use
    if not b < t.wage_target < y:
        raise CalibrationError(
            f"wage target must lie strictly between b={b} and y={y}, got {t.wage_target}"
        )

    u = t.u_target
    v = u / t.market_tightness_inverse
    p = delta * (1.0 - u) / u
    p_market = p * (1.0 - t.referral_share)
    p_referral = p * t.referral_share
    gamma = p_market * t.market_tightness_inverse ** (1.0 - eta)

    if p_referral >= 1.0:
        raise CalibrationError(
            f"referral share implies an arrival probability of {p_referral:.4f} >= 1"
        )
    p_info = -math.log(1.0 - p_referral) / t.baseline_mean_degree
    if p_info > 1.0:
        raise CalibrationError(
            f"referral share needs per-contact information probability {p_info:.4f} > 1"
        )

    reach = (1.0 - u) * contact_reach(1.0, t.d_f, u, v)
    if p_info > 0.0 and reach == 0.0:
        raise CalibrationError("referral target positive but no contact can observe a vacancy")
    phi = p_info / reach if reach > 0.0 else 0.0
    if phi > 1.0:
        raise CalibrationError(f"targets require referral frequency {phi:.4f} > 1")

    w = t.wage_target
    beta = (r + delta) * (w - b) / ((y - w) * p + (r + delta) * (y - b))
    if not 0.0 <= beta <= 1.0:
        raise CalibrationError(f"targets require bargaining power {beta:.4f} outside [0, 1]")

    s = (y - b) / (r + delta + beta * p)
    c = (1.0 - beta) * (u * p / v) * s

    params = replace(given, gamma=gamma, beta=beta, c=c, phi=phi, d_f=t.d_f)
    _verify(params, t)
    return params


def _verify(params: ModelParams, t: CalibrationTargets) -> None:
    try:
        eq = solve_equilibrium(params, baseline_groups(t.baseline_mean_degree))
    except ConvergenceError as exc:
        raise CalibrationError(f"verification solve did not converge: {exc}") from exc
    g = eq.groups[0]
    share = g.p_referral / g.p_total
    checks = {
        "unemployment": (eq.u, t.u_target),
        "tightness inverse": (eq.u / eq.v, t.market_tightness_inverse),
        "wage": (g.w, t.wage_target),
        "referral share": (share, t.referral_share),
    }
    for name, (got, want) in checks.items():
        if abs(got - want) > _VERIFY_TOL:
            raise CalibrationError(
                f"verification solve missed the {name} target: {got!r} vs {want!r}"
            )
