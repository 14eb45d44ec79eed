"""Structural equations of the referral labor-market model.

All functions here are pure: they map parameters and candidate states to
flow rates, value functions, and the vacancy-rate closure.  Nothing in
this module iterates; the equilibrium search lives in :mod:`refmatch.solver`.

Worker flows.  An unemployed worker in group i receives offers at rate
``p_i = p_market + p_referral``: a standard matching-function arrival
``gamma * (u/v)**(eta-1)`` plus a referral arrival that depends on the
group's social network.  A referral reaches the worker when at least one
contact is employed, has spotted a vacancy among the ``d_f`` positions
adjacent to its own job, and passes the information on (frequency
``phi``).  ``contact_reach`` is the chance an employed contact spots and
passes on a vacancy; times the contact's employment probability it is
the per-contact probability ``info_probability``.

Bargaining and entry.  Wages split the match surplus ``S_i`` with worker
share ``beta``; free entry drives the vacant-job value to zero, which
pins the vacancy rate through ``vacancy_closure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

from .degree import DegreeDistribution, as_count, is_finite

__all__ = [
    "ModelParams",
    "GroupSpec",
    "GroupState",
    "Equilibrium",
    "AssetValues",
    "market_arrival",
    "contact_reach",
    "info_probability",
    "surplus",
    "wage",
    "vacancy_closure",
    "value_functions",
]


@dataclass(frozen=True)
class ModelParams:
    """Structural parameters.

    y: output per filled job; b: home production while unemployed;
    r: discount rate; delta: job destruction probability; eta: matching
    function exponent on unemployment, in (0, 1]; gamma: market
    matching efficiency; beta: worker bargaining power; c: per-period
    vacancy posting cost; phi: referral frequency; d_f: number of jobs
    adjacent to a job.
    """

    y: float = 1.0
    b: float = 0.4
    r: float = 0.012
    delta: float = 0.036
    eta: float = 0.72
    gamma: float = 0.402
    beta: float = 0.028
    c: float = 7.188
    phi: float = 0.048
    d_f: int = 16

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not is_finite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not self.y > self.b > 0.0:
            raise ValueError(f"need y > b > 0, got y={self.y}, b={self.b}")
        if not self.r > 0.0:
            raise ValueError(f"discount rate must be positive, got {self.r}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"destruction probability must lie in [0, 1], got {self.delta}")
        # (u/v)^(eta-1): the vacancy elasticity 1 - eta must not be negative.
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"matching exponent eta must lie in (0, 1], got {self.eta}")
        if self.gamma < 0.0:
            raise ValueError(f"matching efficiency must be nonnegative, got {self.gamma}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"bargaining power must lie in [0, 1], got {self.beta}")
        if not self.c > 0.0:
            raise ValueError(f"vacancy cost must be positive, got {self.c}")
        if not 0.0 <= self.phi <= 1.0:
            raise ValueError(f"referral frequency must lie in [0, 1], got {self.phi}")
        object.__setattr__(self, "d_f", as_count(self.d_f, "job-network degree d_f"))


# Workers per group when a scenario does not give a size.
DEFAULT_GROUP_SIZE = 1e6


@dataclass(frozen=True)
class GroupSpec:
    """One worker group: its size and the degree law of its social network."""

    size: float
    dist: DegreeDistribution

    def __post_init__(self):
        if not (self.size > 0.0 and is_finite(self.size)):
            raise ValueError(f"group size must be positive and finite, got {self.size}")
        if not isinstance(self.dist, DegreeDistribution):
            raise ValueError(f"group degree law must be a DegreeDistribution, got {self.dist!r}")


@dataclass(frozen=True)
class GroupState:
    """Solved per-group quantities at an equilibrium."""

    size: float
    u: float  # unemployment rate
    P: float  # probability an arbitrary group member holds vacancy info
    p_market: float
    p_referral: float
    p_total: float
    S: float  # match surplus
    w: float  # bargained wage
    W: float  # employed worker value
    U: float  # unemployed worker value
    J: float  # filled job value


@dataclass(frozen=True)
class Equilibrium:
    """Solved steady state: group states plus economy-wide aggregates."""

    params: ModelParams
    groups: tuple[GroupState, ...]
    u: float  # aggregate unemployment rate
    v: float  # vacancy rate
    V: float  # vacant-job value implied by entry; ~0 at equilibrium
    residual: float
    iterations: int

    @property
    def total_size(self) -> float:
        return math.fsum([g.size for g in self.groups])


class AssetValues(NamedTuple):
    W: float
    U: float
    J: float


def market_arrival(params: ModelParams, u: float, v: float) -> float:
    """Offer arrival rate through the open market, gamma * (u/v)**(eta-1).

    Raises ``ValueError`` unless u > 0 and v is positive and finite, or
    where u/v underflows to 0.
    """
    if not (u > 0.0 and 0.0 < v < math.inf and (ratio := u / v) > 0.0):
        raise ValueError(f"market arrival needs u > 0, finite v > 0 and u/v > 0, got u={u}, v={v}")
    return params.gamma * ratio ** (params.eta - 1.0)


def contact_reach(phi: float, d_f: int, u: float, v: float) -> float:
    """Chance an employed contact spots a vacancy and passes it on.

    At least one of the d_f jobs adjacent to the contact's own must be
    vacant, each with probability v/(1-u+v), and the phi-frequency search
    must fire: phi (1 - (1 - v/(1-u+v))^d_f).
    """
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"referral frequency must lie in [0, 1], got {phi}")
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"aggregate unemployment rate must lie in [0, 1], got {u}")
    if not 0.0 <= v < math.inf:
        raise ValueError(f"vacancy rate must be nonnegative and finite, got {v}")
    denom = 1.0 - u + v
    if not denom > 0.0:
        raise ValueError(f"degenerate job pool: 1 - u + v = {denom}")
    return phi * (1.0 - (1.0 - v / denom) ** d_f)


def info_probability(params: ModelParams, u_i: float, u: float, v: float) -> float:
    """Probability an arbitrary group-i worker holds vacancy information.

    The worker must be employed (prob 1-u_i) and reach a vacancy as a
    contact does: contact_reach(phi, d_f, u, v) (1 - u_i).
    """
    if not 0.0 <= u_i <= 1.0:
        raise ValueError(f"group unemployment rate must lie in [0, 1], got {u_i}")
    return contact_reach(params.phi, params.d_f, u, v) * (1.0 - u_i)


def surplus(params: ModelParams, p_i: float) -> float:
    """Match surplus S_i = (y - b) / (r + delta + beta * p_i)."""
    if p_i < 0.0:
        raise ValueError(f"arrival rate must be nonnegative, got {p_i}")
    return (params.y - params.b) / (params.r + params.delta + params.beta * p_i)


def wage(params: ModelParams, s_i: float) -> float:
    """Bargained wage w_i = y - (r + delta) (1 - beta) S_i."""
    if s_i < 0.0:
        raise ValueError(f"surplus must be nonnegative, got {s_i}")
    return params.y - (params.r + params.delta) * (1.0 - params.beta) * s_i


def vacancy_closure(
    params: ModelParams, groups: Sequence[GroupSpec], u_vec: Sequence[float]
) -> float:
    """Vacancy rate implied by free entry at unemployment rates ``u_vec``.

    v = (y-b)(1-beta) delta / (c L) * sum_i u_i (1-u_i) L_i
        / (u_i (r+delta) + beta delta (1-u_i))
    """
    if len(groups) == 0:
        raise ValueError("vacancy closure needs at least one group")
    if len(groups) != len(u_vec):
        raise ValueError(f"{len(groups)} groups but {len(u_vec)} unemployment rates")
    if bad := [u_i for u_i in u_vec if not 0.0 < u_i < 1.0]:
        raise ValueError(f"unemployment rates must lie in (0, 1), got {bad[0]}")
    # A numpy scalar would divide by 0 to nan with a warning, not raise.
    return closure_for(params, groups)([float(u_i) for u_i in u_vec])


def group_sizes(groups: Sequence[GroupSpec]) -> tuple[list[float], float]:
    """The group sizes and their ``math.fsum``, which no order of the groups moves.

    Raises ``ValueError`` where the sizes sum past the largest double
    (``math.fsum`` itself raises ``OverflowError`` there).
    """
    sizes = [g.size for g in groups]
    try:
        return sizes, math.fsum(sizes)
    except OverflowError:
        raise ValueError(f"group sizes {sizes} sum past the largest double") from None


def closure_for(params: ModelParams, groups: Sequence[GroupSpec]):
    """The vacancy closure as a function of plain floats u_i in (0, 1), unchecked.

    Each group's share L_i / L, r + delta, beta delta and the prefactor
    (y-b)(1-beta) delta / c are formed once, here; the solver makes one
    such function per solve and calls it every step.  L and the sum over
    groups are ``math.fsum``s, so group order moves no bit of v.  It
    raises ``ValueError`` where the sizes sum past the largest double,
    where r + delta is so small that a denominator underflows to 0 or the
    terms' sum overflows, or where v is not finite (a vacancy cost so
    small that the prefactor overflows).
    """
    sizes, total = group_sizes(groups)
    shares = [size / total for size in sizes]
    r_delta, beta_delta = params.r + params.delta, params.beta * params.delta
    scale = (params.y - params.b) * (1.0 - params.beta) * params.delta / params.c

    def term(share: float, u_i: float) -> float:
        return u_i * (1.0 - u_i) * share / (u_i * r_delta + beta_delta * (1.0 - u_i))

    def closure(u_vec: list[float]) -> float:
        try:
            acc = math.fsum(map(term, shares, u_vec))
        except (ZeroDivisionError, OverflowError):
            # r + delta is positive, but so small that a denominator underflowed
            # to 0 or that the terms sum past the largest double.
            raise ValueError(f"singular vacancy closure: r + delta = {r_delta}") from None
        if math.isfinite(v := float(scale * acc)):
            return v
        raise ValueError(f"vacancy closure v = {scale!r} * {acc!r} is not finite")

    return closure


def value_functions(params: ModelParams, w_i: float, p_i: float) -> AssetValues:
    """Worker and job asset values with free entry (V = 0) imposed.

    The Bellman system is linear once V = 0:
        W - U = (w - b) / (r + delta + p)
        U     = (b + p (W - U)) / r
        J     = (y - w) / (r + delta)
    """
    r, delta = params.r, params.delta
    denom = r + delta + p_i
    if denom == 0.0:
        raise ValueError("singular value-function system: r + delta + p = 0")
    gain = (w_i - params.b) / denom
    u_val = (params.b + p_i * gain) / r
    w_val = u_val + gain
    j_val = (params.y - w_i) / (r + delta)
    return AssetValues(W=w_val, U=u_val, J=j_val)
