"""Steady-state equilibrium search.

The equilibrium is a pair (u_1..u_I, v) satisfying, simultaneously,
group-level flow balance u_i p_i = delta (1 - u_i) and the free-entry
vacancy closure.  The solver runs a damped outer fixed-point iteration
whose every step
  1. solves the scalar flow-balance equation once per distinct degree law
     with the market rate p_m and the contact reach frozen (a Jacobi
     sweep, so group order cannot matter); the equation does not involve
     a group's size, so every group on the law takes that root, and each
     group's update is damped;
  2. closes v at the new unemployment vector;
  3. evaluates the economy once at (u_i, v) (``_evaluate``): aggregate u,
     p_m, the contact reach, each group's P_i and referral rate, and the
     flow residuals.
Until the residuals vanish, each evaluation's p_m and reach are what the
next sweep freezes; the last one holds the equilibrium's rates, so
assembling it evaluates nothing again.  A group's per-contact
information probability has one formula, contact reach times (1 - u_i)
(``info_probability``), which the solver forms from the reach it holds.
A step's state is plain Python floats: the damped update, the vacancy
closure (``closure_for``, formed once per solve), each P_i, referral
rate and flow residual are scalar arithmetic, and the step makes no
numpy call.  Every sum over groups -- the size total L (``group_sizes``),
the aggregate u = fsum(u_i L_i) / L, the closure's sum and, in the
equilibrium, the entry flow -- is one ``math.fsum``.  A correctly rounded
sum depends on its terms and not on their order, so the order in which
the groups are listed moves no bit of a solve.  max() keeps a NaN only
in first place, so a step checks its residuals for NaN and raises at
the first one.
The iteration stops once every flow residual is below ``_RESIDUAL_TOL``
and free entry holds to 1e4 times that.  Every step damps by the same
``_DAMPING``, so a step depends only on the iterate it starts from, and
an iterate seen before the stop begins a cycle that repeats forever.
The solver keeps each iterate with the step that made it (the start is
step 0's) and raises at the first one seen again, naming the period:
1 where the iterate repeats, p where it equals the one p steps before.
That ends the no-market corner, where every u_i sits at the clip, and
the ulp-level cycles near it, of any period, in tens of steps.
A scalar solve is one function, ``_solve_group_u``: it chooses a bracket
that provably holds a root, then closes it in one inline loop of regula
falsi steps with Anderson & Bjorck's update, stopped at a zero of the
float residual or at two adjacent doubles.  It has a third exit, with no
step: an end of the analytic bracket whose float residual already has
the other end's sign (lo where f(lo) >= 0, hi where f(hi) <= 0) is
returned as it is, and there the residual need not change sign at the
next double (24 of 3,000 random cold solves end so; ROADMAP item 20(b)
removes the path).  From the third sweep on, the bracket is first a warm
one around the law's root in the last sweep, twice as wide as that
root's last move: below u = 1/2 the flow residual rises strictly, so a
sign change across it holds the one root there, the root the analytic
bracket would give.  The law's current iterate stands in for the end on
its side of the root: the step's evaluation gave its residual at the p_m
and reach the sweep freezes, bit for bit, so only the other end costs a
kernel call.  Without a strict sign change the solve falls back to the
analytic bracket, which holds every root.  Each residual is written out
inline as the float expression ``_evaluate`` forms R_i by, which is what
makes the anchor's residual exact, and no helper is called per
evaluation: a Poisson or regular kernel call takes under 1 us, about
what a Python call around it costs.

Inputs are checked where they enter.  The public entries check every
value: ``flow_residual`` here, ``info_probability`` and
``vacancy_closure`` in the model, and each degree law's
``referral_expectation``.  Each outer step takes v, p_m and the contact
reach from the checked model functions, and each scalar solve its
largest referral rate from the checked kernel.  Past that, every value is
in range by construction: u_i is clipped to [1e-9, 1 - 1e-9] and the
reach lies in [0, 1], so each P = reach (1 - u) lies in [0, 1).  The
inner loops therefore call the law's unchecked kernel ``_reach`` on
plain floats, which gives the floats the checked path gives.

The steady state does not depend on how the solver reaches it, so the
stop tolerance, iteration cap, damping and restart seed are
module constants; :class:`SolverConfig` holds only the starting point
and the restart count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .degree import as_count
from .model import (
    Equilibrium,
    GroupSpec,
    GroupState,
    ModelParams,
    closure_for,
    contact_reach,
    group_sizes,
    market_arrival,
    info_probability,  # noqa: F401  (unused here; perfbench/spans.py traces this name)
    surplus,
    value_functions,
    vacancy_closure,
    wage,
)

__all__ = ["SolverConfig", "ConvergenceError", "flow_residual", "solve_equilibrium", "solve_all"]

# Inner-solve bounds: keeps (u/v)**(eta-1) and the closure away from the
# u_i = 0 and u_i = 1 singularities.
_U_EPS = 1e-9
# Outer-iteration constants, read at call time: the stop rule on max |R_i|,
# the iteration cap, the damping of every outer step and the seed of
# solve_all's restart points.
_RESIDUAL_TOL = 1e-12
_MAX_OUTER_ITERS = 10_000
_DAMPING = 0.5
_RESTART_SEED = 0


@dataclass(frozen=True)
class SolverConfig:
    """Where the outer iteration starts, and how many restarts solve_all adds.

    ``initial_u`` is every group's starting unemployment rate;
    ``multistart`` is the number of random restarts :func:`solve_all`
    runs after the default start.
    """

    initial_u: float = 0.05
    multistart: int = 0

    def __post_init__(self):
        if not 0.0 < self.initial_u < 1.0:
            raise ValueError(f"initial unemployment must lie in (0, 1), got {self.initial_u}")
        object.__setattr__(self, "multistart", as_count(self.multistart, "multistart"))


class ConvergenceError(RuntimeError):
    """Raised when the outer iteration fails; carries the last iterate."""

    def __init__(self, message: str, u_vec: Sequence[float], v: float, residual: float, iterations: int):
        super().__init__(message)
        self.u_vec = np.asarray(u_vec)
        self.v = v
        self.residual = residual
        self.iterations = iterations


class _Point(NamedTuple):
    """The economy evaluated at (u_vec, v), once per outer step.

    u, p_m and reach are what the next Jacobi sweep freezes; P, p_r and
    the flow residuals R are what an equilibrium reports.
    """

    u_vec: list[float]
    v: float
    u: float
    p_m: float
    reach: float
    P: list[float]
    p_r: list[float]
    R: list[float]


def _aggregates(params: ModelParams, sizes: list[float], total: float, u_vec: list[float], v: float):
    """Aggregate u, market rate p_m and contact reach at (u_vec, v).

    ``sizes`` and ``total`` are as ``group_sizes`` returns them; u is
    fsum(u_i s_i) / total, so group order moves no bit of it.
    """
    u = math.fsum(map(operator.mul, u_vec, sizes)) / total
    return u, market_arrival(params, u, v), contact_reach(params.phi, params.d_f, u, v)


def _evaluate(params: ModelParams, groups: Sequence[GroupSpec], sizes: list[float], total: float,
              u_vec: list[float], v: float) -> _Point:
    """The one evaluation of the economy at plain floats (u_vec, v) an outer step makes.

    ``sizes`` and ``total`` are as for :func:`_aggregates`; every u_i lies
    in [0, 1].  Each P_i is info_probability's reach (1 - u_i), formed
    from the reach at hand.  The reach passed contact_reach's checks, so
    every P_i lies in [0, 1], and p_r_i is the law's unchecked kernel, or
    +0.0 at P_i = 0, exactly what referral_expectation returns.
    """
    u, p_m, reach = _aggregates(params, sizes, total, u_vec, v)
    P = [reach * (1.0 - u_i) for u_i in u_vec]
    p_r = [g.dist._reach(P_i) if P_i else 0.0 for g, P_i in zip(groups, P)]
    R = [u_i * (p_m + p_r_i) - params.delta * (1.0 - u_i) for u_i, p_r_i in zip(u_vec, p_r)]
    return _Point(u_vec, v, u, p_m, reach, P, p_r, R)


def flow_residual(
    params: ModelParams, groups: Sequence[GroupSpec], u_vec: Sequence[float], v: float
) -> np.ndarray:
    """Per-group steady-state residual R_i = u_i p_i - delta (1 - u_i).

    Raises ``ValueError`` for a u_i outside [0, 1], a v that is not
    positive and finite, or sizes that sum past the largest double.
    """
    u_vec = np.asarray(u_vec, dtype=np.float64).tolist()
    if bad := [u_i for u_i in u_vec if not 0.0 <= u_i <= 1.0]:
        raise ValueError(f"group unemployment rate must lie in [0, 1], got {bad[0]}")
    return np.array(_evaluate(params, groups, *group_sizes(groups), u_vec, v).R)


def _solve_group_u(params: ModelParams, group: GroupSpec, p_m: float, phi_bracket: float,
                   last: tuple[float, float, float, float] | None = None) -> float:
    """Solve u p(u) = delta (1 - u) for one group with aggregates frozen.

    ``phi_bracket`` is the frozen ``contact_reach``, so the per-contact
    information probability is phi_bracket * (1 - u).  ``last`` is None
    or (r, r_prev, a, f_a): the law's roots in the last two sweeps, and
    an anchor a with its residual f_a = f(a), the law's current iterate
    and flow residual from the outer step's evaluation, which froze these
    p_m and reach and formed f by the same float expression.

    The residual f(u) = u (p_m + p_r(phi_bracket (1 - u))) - delta (1 - u)
    rises strictly on (0, 1/2]: p_r is concave in P with p_r(0) = 0, so
    p_r(P) >= P p_r'(P), and with P = phi_bracket (1 - u) that gives
    f'(u) >= p_m + delta + p_r(P) (1 - u / (1 - u)) >= p_m + delta > 0.
    A sign change inside (0, 1/2] therefore brackets the only root there.
    The solve takes the first of two brackets that holds one:
      - warm, from ``last`` with r <= 1/2: [r - w, r + w] with
        w = 2 |r - r_prev| + 1e-15 r, clipped to [_U_EPS, 1/2], used only
        where f changes sign strictly across it.  An anchor a <= 1/2 with
        f_a != 0 stands in for the end on its side of the root (lo if
        f_a < 0, hi if f_a > 0), so only the other end costs a kernel
        call; where that end gives no strict sign change, neither does
        the two-ended warm bracket, which shares it;
      - analytic, otherwise: the total arrival rate lies in
        [p_m, p_m + p_r_max], with p_r_max the referral rate of a fully
        employed group, so any root sits inside
        [delta/(delta + p_m + p_r_max), delta/(delta + p_m)]: at the lower
        endpoint the residual is u (p_r(u) - p_r_max) <= 0, at the upper it
        is u p_r(u) >= 0.  This bracket holds every root, including those
        above 1/2 (the corner economies), and keeps every evaluation away
        from u = 1, where heavy-tailed referral expectations are slow.
    Late in a solve the root moves by less than 1e-12 a sweep, so the warm
    bracket saves the kernel calls that narrow the analytic one.

    Either bracket [lo, hi], with f(lo) < 0 < f(hi), is closed by regula
    falsi with Anderson & Bjorck's (1973) update: when an end is kept a
    second time in a row, its residual is scaled by 1 - f_x / f_old,
    f_old being that of the end x replaces, or by 1/2 (the Illinois
    factor of Dowell & Jarratt 1971) where that is not positive.  A
    secant point that rounds onto an end steps one double inside instead,
    so a bracket whose one end has all but reached the root closes in a
    step, not a bisection.  The loop stops at a zero of the float
    residual or once no double lies strictly inside [lo, hi]; 200
    evaluations are a safety cap.  Before any step, an analytic end whose
    float residual already has the other end's sign (f(lo) >= 0 or
    f(hi) <= 0) is returned as it is, as is hi for a market-only group,
    whose flow equation is linear; the float residual then need not
    change sign at the double next to that end.
    """
    delta = params.delta
    # Every P = phi_bracket (1 - x) with phi_bracket in [0, 1] and x in
    # [_U_EPS, 1 - _U_EPS] lies in [0, 1), so the solve calls the unchecked
    # kernel, which returns +0.0 at P = 0 or should P underflow.  Each
    # residual is _evaluate's float expression for R_i, written out (see
    # the module docstring).
    referral = group.dist._reach
    f_lo = f_hi = 0.0  # 0.0: no warm end known yet
    if last is not None and last[0] <= 0.5:  # so that lo <= r <= hi
        r, r_prev, a, f_a = last
        w = 2.0 * abs(r - r_prev) + 1e-15 * r
        lo, hi = (r - w if r - w > _U_EPS else _U_EPS), (r + w if r + w < 0.5 else 0.5)
        if f_a < 0.0 and a < hi:  # a < hi <= 1/2
            lo, f_lo = a, f_a
        elif 0.0 < f_a and lo < a <= 0.5:
            hi, f_hi = a, f_a
        if not f_lo:
            f_lo = lo * (p_m + referral(phi_bracket * (1.0 - lo))) - delta * (1.0 - lo)
        if not f_hi:
            f_hi = hi * (p_m + referral(phi_bracket * (1.0 - hi))) - delta * (1.0 - hi)

    if not f_lo < 0.0 < f_hi:  # no warm bracket: the analytic one
        # The checked kernel call also returns 0 at reach 0, the market-only case.
        p_r_max = group.dist.referral_expectation(min(1.0, phi_bracket))
        lo = max(_U_EPS, delta / (delta + p_m + p_r_max))
        hi = min(1.0 - _U_EPS, delta / (delta + p_m) if p_m > 0.0 else 1.0)
        if p_r_max == 0.0:
            return hi  # market-only group: the flow equation is linear
        f_lo = lo * (p_m + referral(phi_bracket * (1.0 - lo))) - delta * (1.0 - lo)
        f_hi = hi * (p_m + referral(phi_bracket * (1.0 - hi))) - delta * (1.0 - hi)
        if f_lo >= 0.0:
            return lo
        if f_hi <= 0.0:
            return hi

    side = 0  # which end the last step replaced: -1 lo, 1 hi
    for _ in range(200):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:  # rounded onto an end: one double inside
            x = math.nextafter(lo, hi) if x <= lo else math.nextafter(hi, lo)
        fx = x * (p_m + referral(phi_bracket * (1.0 - x))) - delta * (1.0 - x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (f_hi > 0.0):
            if side == 1:
                m = 1.0 - fx / f_hi
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi, side = x, fx, 1
        else:
            if side == -1:
                m = 1.0 - fx / f_lo
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo, side = x, fx, -1
        if not lo < 0.5 * (lo + hi) < hi:
            break
    return 0.5 * (lo + hi)


def _law_slots(groups: Sequence[GroupSpec]) -> tuple[list[int], list[int]]:
    """The index of the first group on each distinct degree law, and each group's index into them.

    Groups on equal laws solve the same scalar equation in a sweep, since
    it does not involve the group's size.  A law whose type cannot be
    hashed is keyed by identity.
    """
    slots: dict = {}
    where = [slots.setdefault(g.dist if type(g.dist).__hash__ else id(g.dist), len(slots))
             for g in groups]
    return [where.index(j) for j in range(len(slots))], where


def _iterate(
    params: ModelParams, groups: Sequence[GroupSpec], config: SolverConfig
) -> tuple[np.ndarray, float, float, int, Equilibrium]:
    """Damped Jacobi iteration: (u_vec, v, max |R_i|, iterations, equilibrium).

    The state of a step is plain floats; u_vec is returned as an array.
    """
    u_vec = [float(config.initial_u)] * len(groups)
    sizes, total = group_sizes(groups)
    heads, where = _law_slots(groups)
    damping, keep = _DAMPING, 1.0 - _DAMPING
    seen = {tuple(u_vec): 0}  # each iterate so far, with the step that made it
    v = vacancy_closure(params, groups, u_vec)
    closure = closure_for(params, groups)
    _, p_m, reach = _aggregates(params, sizes, total, u_vec, v)

    roots = before = None  # each law's roots in the last two sweeps
    for it in range(1, _MAX_OUTER_ITERS + 1):
        # From the third sweep on, each law's solve also takes its iterate
        # and flow residual from the last evaluation as an anchor.
        lasts = (zip(roots, before, [u_vec[i] for i in heads], [point.R[i] for i in heads])
                 if before else [None] * len(heads))
        before, roots = roots, [_solve_group_u(params, groups[i], p_m, reach, last)
                                for i, last in zip(heads, lasts)]
        u_vec = [min(max(keep * u_i + damping * roots[j], _U_EPS), 1.0 - _U_EPS)
                 for u_i, j in zip(u_vec, where)]

        v = closure(u_vec)
        point = _evaluate(params, groups, sizes, total, u_vec, v)
        residual = max(map(abs, point.R))
        if any(map(math.isnan, point.R)):  # max() keeps a NaN only in first place
            raise ConvergenceError(f"flow residual is NaN at step {it}", u_vec, v, math.nan, it)
        if residual < _RESIDUAL_TOL:
            eq = _assemble(params, groups, total, point, residual, it)
            # Free entry weighs each flow residual by about 1/v, so where v is
            # tiny flow balance alone leaves r V far from 0: go on until it is
            # within 1e4 times the flow tolerance (1e-8, the row gate's bound).
            if abs(eq.V * params.r) < 1e4 * _RESIDUAL_TOL:
                return np.array(u_vec), v, residual, it, eq
        # At a fixed damping a step depends only on the iterate it starts
        # from, so an iterate seen before ends a cycle that repeats forever.
        if period := it - seen.setdefault(tuple(u_vec), it):
            gap = (f"residual {residual:.3e}" if residual >= _RESIDUAL_TOL
                   else f"r V = {eq.V * params.r:.3e}")
            how = "repeats" if period == 1 else f"cycles with period {period}"
            corner = all(1.0 - u_i < 2.0 * _U_EPS for u_i in u_vec)
            raise ConvergenceError(
                f"outer iterate {how} at step {it} ({gap})"
                + ("; every group sits at the u = 1 - 1e-9 clip: the no-market corner,"
                   " whose employment lies below what a double near 1 resolves" if corner else ""),
                u_vec, v, residual, it,
            )
        p_m, reach = point.p_m, point.reach

    raise ConvergenceError(
        f"no convergence after {_MAX_OUTER_ITERS} outer iterations (residual {residual:.3e})",
        u_vec, v, residual, _MAX_OUTER_ITERS,
    )


def _assemble(
    params: ModelParams,
    groups: Sequence[GroupSpec],
    total: float,
    point: _Point,
    residual: float,
    iterations: int,
) -> Equilibrium:
    """The equilibrium at ``point``; ``total`` is the sum of the group sizes."""
    states, entry_flows = [], []
    for g, u_i, P, p_r in zip(groups, point.u_vec, point.P, point.p_r):
        p_i = point.p_m + p_r
        q_i = g.size * u_i * p_i / (total * point.v)  # worker arrival rate faced by a vacancy
        s_i = surplus(params, p_i)
        w_i = wage(params, s_i)
        vals = value_functions(params, w_i, p_i)
        entry_flows.append(q_i * (1.0 - params.beta) * s_i)
        states.append(
            GroupState(
                size=g.size, u=u_i, P=P, p_market=point.p_m, p_referral=p_r,
                p_total=p_i, S=s_i, w=w_i, W=vals.W, U=vals.U, J=vals.J,
            )
        )
    vacant_value = (math.fsum(entry_flows) - params.c) / params.r
    return Equilibrium(
        params=params, groups=tuple(states), u=point.u, v=point.v, V=vacant_value,
        residual=residual, iterations=iterations,
    )


def solve_equilibrium(
    params: ModelParams,
    groups: Sequence[GroupSpec],
    config: SolverConfig | None = None,
) -> Equilibrium:
    """Find the steady state reached from the configured initial point.

    Raises :class:`ConvergenceError` when the outer iteration does not
    bring every group's flow residual below ``_RESIDUAL_TOL`` and r V
    within 1e4 times it, and ``ValueError`` for no groups, for delta = 0
    or for sizes that sum past the largest double.
    """
    if len(groups) == 0:
        raise ValueError("need at least one worker group")
    if params.delta == 0.0:
        raise ValueError("params.delta = 0: with no job destruction the vacancy closure gives"
                         " v = 0 and every worker ends employed: no steady state to solve for")
    return _iterate(params, groups, config or SolverConfig())[4]


def solve_all(
    params: ModelParams,
    groups: Sequence[GroupSpec],
    config: SolverConfig | None = None,
) -> list[Equilibrium]:
    """Default solve plus ``config.multistart`` random restarts.

    Returns the distinct equilibria found (unemployment vectors further
    than 1e-6 apart in the max norm), default-initialized one first.
    Congestion can in principle support multiple steady states, though
    restarts found no second one in 700 random economies (ROADMAP item
    11); restarts make any multiplicity visible instead of silently
    picking one.
    """
    config = config or SolverConfig()
    found = [solve_equilibrium(params, groups, config)]
    rng = np.random.default_rng(_RESTART_SEED)
    for _ in range(config.multistart):
        restart = replace(config, initial_u=float(rng.uniform(0.002, 0.6)))
        try:
            candidate = solve_equilibrium(params, groups, restart)
        except ConvergenceError:
            continue
        if all(max(abs(a.u - b.u) for a, b in zip(candidate.groups, eq.groups)) > 1e-6
               for eq in found):
            found.append(candidate)
    return found
