"""Steady-state equilibrium search.

The equilibrium is a pair (u_1..u_I, v) satisfying, simultaneously,
group-level flow balance u_i p_i = delta (1 - u_i) and the free-entry
vacancy closure.  The solver runs a damped outer fixed-point iteration:
given the unemployment vector and its closure v, it re-solves each
group's scalar flow-balance equation with aggregates frozen (a Jacobi
sweep, so group order cannot matter), damps the update, and repeats
until the flow residuals vanish, each residual check's v carrying over.
Within a sweep every group shares the frozen ``contact_reach``, so a
group's per-contact information probability is that times (1 - u_i).
``_rates`` is the one evaluation of the per-group rates at (u_i, v),
read by both the residual check and the assembled equilibrium.
A scalar solve is an Illinois iteration on a bracket that provably holds
a root (see _solve_group_u), stopped at width 4e-18 + 1e-16 hi or at two
adjacent doubles; damping halves when the residual rises twice in a row,
which tames the overshoot the u -> v -> u loop can produce at high
referral frequencies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .model import (
    Equilibrium,
    GroupSpec,
    GroupState,
    ModelParams,
    contact_reach,
    market_arrival,
    info_probability,
    surplus,
    value_functions,
    vacancy_closure,
    wage,
)

__all__ = ["SolverConfig", "ConvergenceError", "flow_residual", "solve_equilibrium", "solve_all"]

# Inner-solve bounds: keeps (u/v)**(eta-1) and the closure away from the
# u_i = 0 and u_i = 1 singularities.
_U_EPS = 1e-9
_MIN_DAMPING = 1.0 / 1024.0


@dataclass(frozen=True)
class SolverConfig:
    residual_tol: float = 1e-12
    max_outer_iters: int = 10_000
    damping: float = 0.5
    initial_u: float = 0.05
    multistart: int = 0
    multistart_seed: int = 0

    def __post_init__(self):
        for name in ("max_outer_iters", "multistart", "multistart_seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 0.0 < self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be positive and finite, got {self.residual_tol}")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if not 0.0 < self.initial_u < 1.0:
            raise ValueError(f"initial unemployment must lie in (0, 1), got {self.initial_u}")
        if self.max_outer_iters < 1:
            raise ValueError(f"max outer iterations must be >= 1, got {self.max_outer_iters}")
        if self.multistart < 0:
            raise ValueError(f"multistart count must be >= 0, got {self.multistart}")


class ConvergenceError(RuntimeError):
    """Raised when the outer iteration fails; carries the last iterate."""

    def __init__(self, message: str, u_vec: Sequence[float], v: float, residual: float, iterations: int):
        super().__init__(message)
        self.u_vec = np.asarray(u_vec)
        self.v = v
        self.residual = residual
        self.iterations = iterations


def _rates(params: ModelParams, groups: Sequence[GroupSpec], u_vec: np.ndarray, v: float):
    """Aggregate u, market rate p_m, and lists of each group's P_i and referral rate."""
    sizes = np.array([g.size for g in groups], dtype=np.float64)
    u = float(u_vec @ sizes) / float(sizes.sum())
    p_m = market_arrival(params, u, v)
    p_info = [info_probability(params, float(u_i), u, v) for u_i in u_vec]
    p_r = [g.dist.referral_expectation(P) for g, P in zip(groups, p_info)]
    return u, p_m, p_info, p_r


def flow_residual(
    params: ModelParams,
    groups: Sequence[GroupSpec],
    u_vec: Sequence[float],
    v: float,
) -> np.ndarray:
    """Per-group steady-state residual R_i = u_i p_i - delta (1 - u_i)."""
    u_vec = np.asarray(u_vec, dtype=np.float64)
    _, p_m, _, p_r = _rates(params, groups, u_vec, v)
    return u_vec * (p_m + np.array(p_r)) - params.delta * (1.0 - u_vec)


def _illinois(g: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of g on [lo, hi] given a sign change; Illinois-damped regula falsi.

    Stops at a zero of g, at hi - lo < 4e-18 + 1e-16 hi, or once no double
    lies strictly inside [lo, hi]; 200 evaluations are a safety cap.
    """
    side = 0
    for _ in range(200):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        # Guard against stagnation at an endpoint.
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = g(x)
        if fx == 0.0 or hi - lo < 1e-17:
            return x
        if (fx > 0.0) == (f_hi > 0.0):
            hi, f_hi = x, fx
            if side == 1:
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo = x, fx
            if side == -1:
                f_hi *= 0.5
            side = -1
        if hi - lo < 4e-18 + 1e-16 * hi or not lo < 0.5 * (lo + hi) < hi:
            break
    return 0.5 * (lo + hi)


def _solve_group_u(
    params: ModelParams, group: GroupSpec, p_m: float, phi_bracket: float
) -> float:
    """Solve u p(u) = delta (1 - u) for one group with aggregates frozen.

    ``phi_bracket`` is the frozen ``contact_reach``, so the per-contact
    information probability is phi_bracket * (1 - u).

    The total arrival rate lies in [p_m, p_m + p_r_max] with p_r_max the
    referral rate of a fully employed group, so any root sits inside
    [delta/(delta + p_m + p_r_max), delta/(delta + p_m)]: at the lower
    endpoint the residual is u (p_r(u) - p_r_max) <= 0, at the upper it
    is u p_r(u) >= 0.  Starting from this bracket keeps every evaluation
    away from u = 1, where heavy-tailed referral expectations are slow.
    """
    delta = params.delta
    if delta == 0.0:
        return _U_EPS  # no destruction, no unemployment

    def g(u_i: float) -> float:
        p_r = group.dist.referral_expectation(phi_bracket * (1.0 - u_i))
        return u_i * (p_m + p_r) - delta * (1.0 - u_i)

    p_r_max = group.dist.referral_expectation(min(1.0, phi_bracket))
    lo = max(_U_EPS, delta / (delta + p_m + p_r_max))
    hi = min(1.0 - _U_EPS, delta / (delta + p_m) if p_m > 0.0 else 1.0)
    if p_r_max == 0.0:
        return hi  # market-only group: the flow equation is linear
    f_lo, f_hi = g(lo), g(hi)
    if f_lo >= 0.0:
        return lo
    if f_hi <= 0.0:
        return hi
    return _illinois(g, lo, hi, f_lo, f_hi)


def _iterate(
    params: ModelParams,
    groups: Sequence[GroupSpec],
    config: SolverConfig,
) -> tuple[np.ndarray, float, float, int]:
    sizes = np.array([g.size for g in groups], dtype=np.float64)
    total = float(sizes.sum())
    u_vec = np.full(len(groups), config.initial_u, dtype=np.float64)
    damping = config.damping
    prev_residual = np.inf
    worse_streak = 0
    v = vacancy_closure(params, groups, u_vec)

    for it in range(1, config.max_outer_iters + 1):
        u = float(u_vec @ sizes) / total
        p_m = market_arrival(params, u, v)
        phi_bracket = contact_reach(params.phi, params.d_f, u, v)

        target = np.array(
            [_solve_group_u(params, g, p_m, phi_bracket) for g in groups]
        )
        u_vec = (1.0 - damping) * u_vec + damping * target
        u_vec = np.clip(u_vec, _U_EPS, 1.0 - _U_EPS)

        v = vacancy_closure(params, groups, u_vec)
        residual = float(np.max(np.abs(flow_residual(params, groups, u_vec, v))))
        if residual < config.residual_tol:
            return u_vec, v, residual, it

        # The u -> v -> u loop can overshoot at high phi; back off the
        # damping after two consecutive residual increases.
        if residual > prev_residual:
            worse_streak += 1
            if worse_streak >= 2 and damping > _MIN_DAMPING:
                damping = max(0.5 * damping, _MIN_DAMPING)
                worse_streak = 0
        else:
            worse_streak = 0
        prev_residual = residual

    raise ConvergenceError(
        f"no convergence after {config.max_outer_iters} outer iterations "
        f"(residual {residual:.3e})",
        u_vec, v, residual, config.max_outer_iters,
    )


def _assemble(
    params: ModelParams,
    groups: Sequence[GroupSpec],
    u_vec: np.ndarray,
    v: float,
    residual: float,
    iterations: int,
) -> Equilibrium:
    u, p_m, p_info, p_refs = _rates(params, groups, u_vec, v)
    total = float(np.sum([g.size for g in groups]))
    states = []
    entry_flow = 0.0
    for g, u_i, P, p_r in zip(groups, u_vec, p_info, p_refs):
        p_i = p_m + p_r
        q_i = g.size * u_i * p_i / (total * v)  # worker arrival rate faced by a vacancy
        s_i = surplus(params, p_i)
        w_i = wage(params, s_i)
        vals = value_functions(params, w_i, p_i)
        entry_flow += q_i * (1.0 - params.beta) * s_i
        states.append(
            GroupState(
                size=g.size, u=float(u_i), P=P, p_market=p_m, p_referral=p_r,
                p_total=p_i, S=s_i, w=w_i, W=vals.W, U=vals.U, J=vals.J,
            )
        )
    vacant_value = (entry_flow - params.c) / params.r
    return Equilibrium(
        params=params, groups=tuple(states), u=u, v=v, V=vacant_value,
        residual=residual, iterations=iterations,
    )


def solve_equilibrium(
    params: ModelParams,
    groups: Sequence[GroupSpec],
    config: SolverConfig | None = None,
) -> Equilibrium:
    """Find the steady state reached from the configured initial point.

    Raises :class:`ConvergenceError` when the outer iteration does not
    bring every group's flow residual below ``config.residual_tol``.
    """
    if len(groups) == 0:
        raise ValueError("need at least one worker group")
    config = config or SolverConfig()
    u_vec, v, residual, iters = _iterate(params, groups, config)
    return _assemble(params, groups, u_vec, v, residual, iters)


def solve_all(
    params: ModelParams,
    groups: Sequence[GroupSpec],
    config: SolverConfig | None = None,
) -> list[Equilibrium]:
    """Default solve plus ``config.multistart`` random restarts.

    Returns the distinct equilibria found (unemployment vectors further
    than 1e-6 apart in the max norm), default-initialized one first.
    Congestion can in principle support multiple steady states; restarts
    make any multiplicity visible instead of silently picking one.
    """
    config = config or SolverConfig()
    found = [solve_equilibrium(params, groups, config)]
    rng = np.random.default_rng(config.multistart_seed)
    for _ in range(config.multistart):
        restart = replace(config, initial_u=float(rng.uniform(0.002, 0.6)))
        try:
            candidate = solve_equilibrium(params, groups, restart)
        except ConvergenceError:
            continue
        cand_u = np.array([s.u for s in candidate.groups])
        distinct = all(
            np.max(np.abs(cand_u - np.array([s.u for s in eq.groups]))) > 1e-6
            for eq in found
        )
        if distinct:
            found.append(candidate)
    return found
