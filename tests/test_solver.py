"""Equilibrium solver: reductions, invariants, and error paths."""

import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refmatch import solver
from refmatch import (
    ConvergenceError,
    Degenerate,
    GroupSpec,
    ModelParams,
    Poisson,
    SolverConfig,
    Zipf,
    gini,
    social_welfare,
    solve_all,
    solve_equilibrium,
)
from refmatch.degree import DegreeDistribution
from refmatch.model import info_probability, vacancy_closure
from refmatch.solver import _solve_group_u, flow_residual
from test_model import draw_params

PUBLISHED = ModelParams()


def one_group_oracle(params: ModelParams) -> tuple[float, float]:
    """Reference solve of the no-referral one-group economy.

    With phi = 0 the model collapses to the textbook system
        u gamma (u/v)^(eta-1) = delta (1 - u),
        v = closure(u),
    solved here by plain bisection on u, independently of the package's
    damped iteration.
    """
    assert params.phi == 0.0
    group = [GroupSpec(size=1.0, dist=Degenerate(1))]

    def excess(u: float) -> float:
        v = vacancy_closure(params, group, [u])
        return u * params.gamma * (u / v) ** (params.eta - 1.0) - params.delta * (1.0 - u)

    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    return u, vacancy_closure(params, group, [u])


def group_u(eq) -> np.ndarray:
    return np.array([g.u for g in eq.groups])


class TestReductionToMarketOnly:
    def test_matches_independent_bisection(self):
        params = ModelParams(phi=0.0)
        u_ref, v_ref = one_group_oracle(params)
        eq = solve_equilibrium(params, [GroupSpec(1e6, Poisson(22.47))])
        assert eq.u == pytest.approx(u_ref, abs=1e-10)
        assert eq.v == pytest.approx(v_ref, abs=1e-10)

    def test_network_is_irrelevant_without_referrals(self):
        params = ModelParams(phi=0.0)
        eqs = [
            solve_equilibrium(params, [GroupSpec(1e6, dist)])
            for dist in (Poisson(22.47), Degenerate(16), Zipf(2.3))
        ]
        us = {round(eq.u, 14) for eq in eqs}
        assert len(us) == 1

    def test_symmetric_groups_match_single_group(self):
        params = ModelParams(phi=0.0)
        one = solve_equilibrium(params, [GroupSpec(2e6, Poisson(22.47))])
        two = solve_equilibrium(
            params, [GroupSpec(1e6, Poisson(22.47)), GroupSpec(1e6, Poisson(22.47))]
        )
        assert two.u == pytest.approx(one.u, abs=1e-12)
        assert two.v == pytest.approx(one.v, abs=1e-12)


class TestFlowResidual:
    def test_baseline_near_zero(self, calibrated_params):
        groups = [GroupSpec(1e6, Poisson(22.47)), GroupSpec(1e6, Poisson(22.47))]
        res = flow_residual(calibrated_params, groups, [0.044, 0.044], 0.04)
        assert np.max(np.abs(res)) < 1e-3

    def test_full_unemployment_boundary_sign(self):
        groups = [GroupSpec(1e6, Poisson(22.47))]
        res = flow_residual(PUBLISHED, groups, [1.0], 0.04)
        assert res[0] >= 0.0  # inflow is exhausted, outflow remains

    def test_vanishes_without_destruction_as_unemployment_empties(self):
        # with delta = 0 the residual is u p(u) ~ u^eta -> 0 as u -> 0
        params = ModelParams(delta=0.0)
        groups = [GroupSpec(1e6, Poisson(22.47))]
        path = [float(flow_residual(params, groups, [u], 0.04)[0]) for u in (1e-5, 1e-7, 1e-9)]
        assert all(r > 0 for r in path)
        assert path[0] > path[1] > path[2]
        assert path[2] < 1e-7

    def test_solution_residual_below_tolerance(self, baseline_eq, calibrated_params):
        groups = [GroupSpec(1e6, Poisson(22.47)), GroupSpec(1e6, Poisson(22.47))]
        res = flow_residual(calibrated_params, groups, group_u(baseline_eq), baseline_eq.v)
        assert np.max(np.abs(res)) < 1e-12

    MIXED = (GroupSpec(1e6, Poisson(22.47)), GroupSpec(5e5, Degenerate(16)),
             GroupSpec(2e5, Degenerate(0)), GroupSpec(3e5, Zipf(2.3)))

    def test_arrays_unchanged(self, baseline_eq, calibrated_params):
        # Values computed when the outer step sent every P_i and referral
        # rate through info_probability and referral_expectation.  The Zipf
        # group's was 0.06758354930896071 before Wood's expansion.
        groups = [GroupSpec(1e6, Poisson(22.47)), GroupSpec(1e6, Poisson(22.47))]
        assert flow_residual(calibrated_params, groups, [0.044, 0.044], 0.04).tolist() == [
            2.0816681711721685e-17, 2.0816681711721685e-17]
        assert flow_residual(calibrated_params, groups, group_u(baseline_eq),
                             baseline_eq.v).tolist() == [8.329170686494081e-13] * 2
        assert flow_residual(PUBLISHED, groups[:1], [1.0], 0.04).tolist() == [0.16323107870738393]
        assert [flow_residual(ModelParams(delta=0.0), groups[:1], [u], 0.04)[0]
                for u in (1e-5, 1e-7, 1e-9)] == [
            4.495288022975313e-05, 1.528196090332138e-06, 5.444599975530444e-08]
        assert flow_residual(PUBLISHED, self.MIXED, [0.05, 0.0, 0.9, 0.3], 0.04).tolist() == [
            0.00023442790305450156, -0.036, 0.24180972283528385, 0.06758354930896113]

    @pytest.mark.parametrize("u_vec", [[1.5, 0.2, 0.1, 0.1], [0.05, -0.1, 0.3, 0.1],
                                       [0.05, 0.05, 1.0 + 1e-12, 0.05]])
    def test_rejects_group_rate_outside_unit_interval(self, u_vec):
        # The aggregate u of each of these lies inside [0, 1].
        with pytest.raises(ValueError, match="group unemployment rate"):
            flow_residual(PUBLISHED, self.MIXED, u_vec, 0.04)

    @pytest.mark.parametrize("v", [-0.01, -0.0, float("nan"), math.inf])
    def test_rejects_vacancy_rate_not_positive(self, v):
        with pytest.raises(ValueError, match="v > 0"):
            flow_residual(PUBLISHED, self.MIXED, [0.05] * 4, v)


def _poisson_regular_laws(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [Poisson(float(rng.uniform(0.5, 50.0))) if rng.random() < 0.5
            else Degenerate(int(rng.integers(0, 51))) for _ in range(n)]


class TestUncheckedKernels:
    # The outer step forms each P_i from the reach it holds and calls the
    # law's unchecked kernel; it must give the floats the checked model
    # functions give, and never a -0.0 referral rate.
    @pytest.mark.parametrize("params, laws", [
        (ModelParams(phi=0.0), (Poisson(22.47), Degenerate(16))),
        (ModelParams(d_f=0), (Poisson(22.47), Degenerate(16))),
        (PUBLISHED, (Degenerate(0), Poisson(22.47), Degenerate(0))),
        (PUBLISHED, (Zipf(2.028), Poisson(22.47))),
        (PUBLISHED, _poisson_regular_laws(64, 5)),
    ], ids=["phi=0", "d_f=0", "Degenerate(0)", "Zipf(2.028)", "64 groups"])
    def test_evaluate_equals_checked_path(self, params, laws):
        rng = np.random.default_rng(11)
        n = len(laws)
        groups = [GroupSpec(float(10.0 ** rng.uniform(4.0, 7.0)), d) for d in laws]
        sizes = [g.size for g in groups]
        for u_vec in (np.full(n, solver._U_EPS), np.full(n, 1.0 - solver._U_EPS),
                      rng.uniform(solver._U_EPS, 1.0 - solver._U_EPS, n)):
            v = vacancy_closure(params, groups, u_vec.tolist())
            u, p_m, reach = solver._aggregates(params, sizes, math.fsum(sizes), u_vec.tolist(), v)
            P, p_r, R = solver._evaluate(params.delta, laws, u_vec.tolist(), p_m, reach)
            assert P == [info_probability(params, u_i, u, v) for u_i in u_vec.tolist()]
            assert p_r == [g.dist.referral_expectation(P_i) for g, P_i in zip(groups, P)]
            assert all(math.copysign(1.0, p_r_i) == 1.0 for p_r_i in p_r)
            assert all(type(x) is float for x in P + p_r)
            # The step's plain-float residuals are the public array's, bit for bit.
            assert [x.hex() for x in R] == [
                float(x).hex() for x in flow_residual(params, groups, u_vec, v)]


class TestEquilibriumInvariants:
    def test_state_consistency(self, baseline_eq):
        for g in baseline_eq.groups:
            assert g.p_total == pytest.approx(g.p_market + g.p_referral, rel=1e-14)
            assert 0.0 < g.u < 1.0
            assert PUBLISHED.b < g.w < PUBLISHED.y
        assert baseline_eq.u == pytest.approx(
            sum(g.u * g.size for g in baseline_eq.groups) / baseline_eq.total_size, rel=1e-14
        )

    def test_free_entry(self, baseline_eq):
        assert abs(baseline_eq.V * baseline_eq.params.r) < 1e-8

    def test_permutation_equivariance(self):
        groups = [
            GroupSpec(1e6, Poisson(15.0)),
            GroupSpec(2e6, Degenerate(30)),
            GroupSpec(5e5, Zipf(2.3)),
        ]
        eq = solve_equilibrium(PUBLISHED, groups)
        perm = [2, 0, 1]
        eq_p = solve_equilibrium(PUBLISHED, [groups[i] for i in perm])
        u, u_p = group_u(eq), group_u(eq_p)
        assert np.max(np.abs(u_p - u[perm])) < 1e-10
        assert abs(eq_p.v - eq.v) < 1e-10

    def test_group_size_scale_invariance(self):
        groups = [GroupSpec(1e6, Poisson(15.0)), GroupSpec(1e6, Degenerate(30))]
        scaled = [GroupSpec(g.size * 137.0, g.dist) for g in groups]
        eq, eq_s = solve_equilibrium(PUBLISHED, groups), solve_equilibrium(PUBLISHED, scaled)
        assert np.max(np.abs(group_u(eq_s) - group_u(eq))) < 1e-10
        assert abs(eq_s.v - eq.v) < 1e-10
        assert np.max(np.abs(np.array([g.w for g in eq_s.groups]) - [g.w for g in eq.groups])) < 1e-10

    def test_more_contacts_weakly_lower_unemployment(self):
        fixed = GroupSpec(1e6, Poisson(22.47))
        us = []
        for mean in (5.0, 10.0, 20.0, 30.0, 40.0):
            eq = solve_equilibrium(PUBLISHED, [GroupSpec(1e6, Poisson(mean)), fixed])
            us.append(eq.groups[0].u)
        assert all(b <= a + 1e-12 for a, b in zip(us, us[1:]))

    def test_zipf_groups_converge_to_tolerance(self):
        eq = solve_equilibrium(PUBLISHED, [GroupSpec(1e6, Zipf(2.028)), GroupSpec(1e6, Zipf(2.3))])
        assert eq.residual < 1e-12
        assert abs(eq.V * PUBLISHED.r) < 1e-8

    def test_randomized_parameter_boxes(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            params = draw_params(rng)
            groups = [GroupSpec(1e6, Poisson(float(rng.uniform(5, 40)))),
                      GroupSpec(1e6, Degenerate(int(rng.integers(1, 41))))]
            eq = solve_equilibrium(params, groups)
            assert eq.residual < 1e-12
            assert abs(eq.V * params.r) < 1e-8


class TestSolverControls:
    def test_non_convergence_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_OUTER_ITERS", 1)
        with pytest.raises(ConvergenceError) as err:
            solve_equilibrium(PUBLISHED, [GroupSpec(1e6, Poisson(22.47))])
        assert err.value.iterations == 1
        assert err.value.residual > 0.0
        assert err.value.u_vec.shape == (1,)

    @pytest.mark.filterwarnings("error")
    def test_singular_vacancy_closure(self):
        # The solver's numpy rates turned the closure's 0 denominator into
        # two RuntimeWarnings and v = nan, reported as a market-arrival error.
        params = ModelParams(r=5e-324, delta=5e-324)
        with pytest.raises(ValueError, match="singular vacancy closure: r \\+ delta = 1e-323"):
            solve_equilibrium(params, (GroupSpec(1.0, Poisson(1.0)),) * 2)

    def test_nan_residual_raises_at_its_step(self):
        # A referral rate of NaN in the second group: max() would drop the
        # NaN, and the error message read r V from an equilibrium never built
        # (UnboundLocalError).
        class NaNBelowHalf(Poisson):
            def _reach(self, p_info):
                return math.nan if p_info < 0.5 else super()._reach(p_info)

        groups = [GroupSpec(1e6, Poisson(22.47)), GroupSpec(1e6, NaNBelowHalf(10.0))]
        with pytest.raises(ConvergenceError, match="flow residual is NaN at step 1") as err:
            solve_equilibrium(PUBLISHED, groups)
        assert math.isnan(err.value.residual)
        assert err.value.iterations == 1

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            solve_equilibrium(PUBLISHED, [])

    def test_sizes_summing_past_the_largest_double_rejected(self):
        # math.fsum raises OverflowError there; the plain sum it replaced gave
        # inf, which market_arrival rejected.
        groups = (GroupSpec(1e308, Poisson(22.47)), GroupSpec(1e308, Degenerate(16)))
        match = r"^group sizes \[1e\+308, 1e\+308\] sum past the largest double$"
        with pytest.raises(ValueError, match=match):
            solve_equilibrium(PUBLISHED, groups)
        with pytest.raises(ValueError, match=match):
            flow_residual(PUBLISHED, groups, [0.05, 0.05], 0.04)
        with pytest.raises(ValueError, match=match):
            vacancy_closure(PUBLISHED, groups, [0.05, 0.05])

    def test_no_job_destruction_rejected(self):
        # The closure gives v = 0 at every u, which market_arrival used to
        # reject at the first step with a message naming u and v.
        with pytest.raises(ValueError, match=r"^params\.delta = 0: "):
            solve_equilibrium(replace(PUBLISHED, delta=0.0), [GroupSpec(1e6, Poisson(10.0))])

    def test_config_validation(self):
        assert [f.name for f in fields(SolverConfig)] == ["initial_u", "multistart"]
        for name in ("residual_tol", "max_outer_iters", "damping", "multistart_seed"):
            with pytest.raises(TypeError, match=name):
                SolverConfig(**{name: 1})
        with pytest.raises(ValueError):
            SolverConfig(initial_u=1.0)
        with pytest.raises(ValueError):
            SolverConfig(multistart=-1)
        with pytest.raises(ValueError, match="multistart must be an integer"):
            SolverConfig(multistart=1.5)
        assert SolverConfig(multistart=3.0).multistart == 3
        assert type(SolverConfig(multistart=3.0).multistart) is int

    def test_initial_point_respected(self):
        eq_low = solve_equilibrium(PUBLISHED, [GroupSpec(1e6, Poisson(22.47))],
                                   SolverConfig(initial_u=0.01))
        eq_high = solve_equilibrium(PUBLISHED, [GroupSpec(1e6, Poisson(22.47))],
                                    SolverConfig(initial_u=0.4))
        assert eq_low.u == pytest.approx(eq_high.u, abs=1e-11)

    def test_multistart_reports_distinct_solutions(self, monkeypatch):
        monkeypatch.setattr(solver, "_RESTART_SEED", 42)
        found = solve_all(PUBLISHED, [GroupSpec(1e6, Poisson(22.47))], SolverConfig(multistart=5))
        assert len(found) >= 1
        default = solve_equilibrium(PUBLISHED, [GroupSpec(1e6, Poisson(22.47))])
        assert found[0].u == pytest.approx(default.u, abs=1e-12)
        # the baseline economy shows a unique steady state across restarts
        assert len(found) == 1


class CountingDist(DegreeDistribution):
    """Delegates to a degree law and counts referral-kernel calls, checked or not."""

    def __init__(self, dist: DegreeDistribution):
        self.dist, self.calls = dist, 0

    def referral_expectation(self, p_info: float) -> float:
        self.calls += 1
        return self.dist.referral_expectation(p_info)

    def _reach(self, p_info: float) -> float:
        self.calls += 1
        return self.dist._reach(p_info)


_ANY_LAW = st.one_of(st.floats(0.5, 50.0).map(Poisson), st.integers(0, 50).map(Degenerate),
                    st.floats(2.01, 4.0).map(Zipf))


@st.composite
def _frozen_sweeps(draw):
    """One law's scalar solve: delta, the law, and the frozen p_m and contact reach."""
    params = replace(PUBLISHED, delta=draw(st.floats(0.001, 0.9)))
    return params, draw(_ANY_LAW), draw(st.floats(1e-3, 3.0)), draw(st.floats(1e-4, 1.0))


def frozen_residual(params, dist, p_m: float, reach: float):
    """The flow residual u (p_m + p_r(reach (1 - u))) - delta (1 - u) a scalar solve zeroes."""
    return lambda u: (u * (p_m + dist.referral_expectation(reach * (1.0 - u)))
                      - params.delta * (1.0 - u))


def sign_band(f, u: float, k: int = 64) -> tuple[float, float]:
    """The span of the doubles within k steps of u where f changes sign, or (u, u) if none does.

    Where f is monotone in floats, this is its zero or the two doubles
    around it; the Zipf kernel's rounding can make f change sign several
    times across a few ulps, all of them roots to a bracketing solve.
    """
    xs = [u]
    for toward in (0.0, 1.0):
        x = u
        for _ in range(k):
            x = float(np.nextafter(x, toward))
            xs.append(x)
    xs.sort()
    signs = [f(x) for x in xs]
    ups = [x for x, fx in zip(xs, signs) if fx >= 0.0]
    downs = [x for x, fx in zip(xs, signs) if fx <= 0.0]
    if not ups or not downs:
        return u, u
    return min(ups[0], downs[-1]), max(ups[0], downs[-1])


class TestGroupSolveStopRule:
    # A group solve stops only at a zero of the float residual or at two
    # adjacent doubles.  With these frozen aggregates the group root is
    # u = 0.1376..., where one ulp is 2.8e-17: before the adjacent-doubles
    # rule the bracket stalled until the 200-evaluation cap (203 kernel
    # calls), and unscaled Anderson-Bjorck steps that bisect once the secant
    # point rounds onto an end took 30.
    P_M, PHI_BRACKET = 0.2, 0.03

    def residual(self, dist, u_i: float) -> float:
        p_r = dist.referral_expectation(self.PHI_BRACKET * (1.0 - u_i))
        return u_i * (self.P_M + p_r) - PUBLISHED.delta * (1.0 - u_i)

    def test_stops_at_adjacent_doubles(self):
        dist = CountingDist(Poisson(1.0))
        u = _solve_group_u(PUBLISHED, GroupSpec(1e6, dist), self.P_M, self.PHI_BRACKET)
        assert 0.125 <= u < 0.238
        assert dist.calls < 30
        f = self.residual(dist.dist, u)
        below = self.residual(dist.dist, np.nextafter(u, 0.0))
        above = self.residual(dist.dist, np.nextafter(u, 1.0))
        assert f == 0.0 or (below < 0.0) != (f < 0.0) or (f < 0.0) != (above < 0.0)

    def test_small_root_stops_at_the_zero(self):
        # Near u = 1e-3 an ulp is 2.2e-19, so a stop at bracket width 1e-17
        # returned 0.0012267870208894475, 18 ulps above the residual's zero.
        params, dist = replace(PUBLISHED, delta=0.0012677), Degenerate(30)
        p_m, reach = 0.032082, 0.86190
        u = _solve_group_u(params, GroupSpec(1.0, dist), p_m, reach)
        assert u == 0.0012267870208894436
        assert frozen_residual(params, dist, p_m, reach)(u) == 0.0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(sweep=_frozen_sweeps())
    def test_cold_solve_stops_at_a_zero_or_a_sign_change(self, sweep):
        # Over the three families: the solve ends at a zero of the float
        # residual or at a double next to which the residual changes sign.
        # Only an analytic end returns without a step: lo where the
        # residual is already positive there, hi where it is still
        # negative there or the law makes no referrals.
        params, dist, p_m, reach = sweep
        f = frozen_residual(*sweep)
        u = _solve_group_u(params, GroupSpec(1.0, dist), p_m, reach)
        band_lo, band_hi = sign_band(f, u, k=1)
        if f(u) == 0.0 or band_lo < band_hi:
            return
        delta, p_r_max = params.delta, dist.referral_expectation(min(1.0, reach))
        lo = max(solver._U_EPS, delta / (delta + p_m + p_r_max))
        hi = min(1.0 - solver._U_EPS, delta / (delta + p_m))
        assert (u == lo and f(u) > 0.0) or (u == hi and (f(u) < 0.0 or p_r_max == 0.0))

    def test_equilibrium_unchanged(self):
        # Values computed with the same degree kernels before the
        # adjacent-doubles rule, when 24 of this solve's group solves ran
        # into the evaluation cap.
        params = ModelParams(delta=0.06, gamma=0.4)
        eq = solve_equilibrium(params, (GroupSpec(1e6, Poisson(2.0)),
                                        GroupSpec(1e6, Poisson(22.47))))
        assert eq.iterations == 45
        assert group_u(eq).tolist() == [0.13959372728130465, 0.07295339583715263]
        assert eq.v == 0.049602615131138984

    def test_er_vs_zipf_unchanged(self):
        # Bit-exact values of the published ER-vs-Zipf(2.3) economy, computed
        # before the per-group rates and the contact reach each got one
        # definition.  u_2 was 0.08526716680837916, an ulp lower, before each
        # law's scalar solve started from a bracket around its last root.
        # Wood's expansion (and zeta without its low bias, which moves the
        # Poisson group's mean) moved u by 8 and 22 ulps; before it u was
        # [0.08228276926657493, 0.08526716680837917], v 0.04533762919048985.
        zipf = Zipf(2.3)
        eq = solve_equilibrium(PUBLISHED, (GroupSpec(1e6, Poisson(zipf.mean())),
                                           GroupSpec(1e6, zipf)))
        assert eq.iterations == 45
        assert group_u(eq).tolist() == [0.08228276926657482, 0.08526716680837887]
        assert eq.v == 0.04533762919048984
        assert [g.P for g in eq.groups] == [0.023710793832285033, 0.023633686818863544]
        assert [g.p_referral for g in eq.groups] == [0.06301265798846403, 0.047699370290642834]

    def test_restarts_unchanged(self, monkeypatch):
        # At a loose tolerance each restart stops at its own point, so all
        # three restarts are kept and their values pin the restart path.
        # Three u_i moved by an ulp when the group solves took the anchored
        # bracket and the Anderson-Bjorck update; Wood's expansion moved
        # each u_i by 7 to 24 ulps, the step counts not at all.  The second
        # restart's u_2 was 0.08528692807761011, an ulp higher, before every
        # sum over groups was a math.fsum.
        monkeypatch.setattr(solver, "_RESIDUAL_TOL", 1e-5)
        monkeypatch.setattr(solver, "_RESTART_SEED", 7)
        zipf = Zipf(2.3)
        found = solve_all(
            PUBLISHED, (GroupSpec(1e6, Poisson(zipf.mean())), GroupSpec(1e6, zipf)),
            SolverConfig(multistart=3),
        )
        assert [(group_u(eq).tolist(), eq.v, eq.iterations) for eq in found] == [
            ([0.0822614712334473, 0.08524367364847868], 0.04533626817964198, 14),
            ([0.08230078429468538, 0.0852869280776101], 0.04533877632136672, 18),
            ([0.08229856308965212, 0.08528450809563279], 0.04533863540252401, 19),
            ([0.0823056687680328, 0.08529228552009968], 0.045339087188925715, 18),
        ]


_SHIFTS = st.one_of(st.floats(-1e-12, 1e-12), st.floats(-0.5, 0.5))


class TestWarmBracket:
    # From the third sweep on, each law's scalar solve first tries the
    # bracket r -+ (2 |r - r_prev| + 1e-15 r) around its last root r, with
    # the law's iterate a standing in for the end on its side of the root.
    def test_kernel_call_budget(self):
        # The analytic bracket on every sweep made 430 Zipf kernel calls
        # here, the two-ended warm bracket with Illinois steps 288, the
        # anchored bracket 236 on the block series and 200 on Wood's
        # expansion.
        zipf = CountingDist(Zipf(2.3))
        eq = solve_equilibrium(PUBLISHED, (GroupSpec(1e6, Poisson(zipf.dist.mean())),
                                           GroupSpec(1e6, zipf)))
        assert eq.iterations == 45
        assert zipf.calls == 200

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(sweep=_frozen_sweeps(), shift=_SHIFTS, moved=st.floats(-17.0, -1.0), anchor=_SHIFTS)
    def test_warm_root_is_the_cold_root(self, sweep, shift, moved, anchor):
        # The residual rises strictly on (0, 1/2], so a strict sign change
        # there brackets the one root the analytic bracket holds.  The
        # anchor a lies on either side of the root, inside the warm bracket
        # or outside it.  Each solve stops at a zero of the float residual
        # or at two adjacent doubles across which it changes sign.  Without
        # a strict sign change the warm bracket is dropped and the solve is
        # the cold one, bit for bit.
        params, dist, p_m, reach = sweep
        group = GroupSpec(1.0, dist)
        f = frozen_residual(params, dist, p_m, reach)
        cold = _solve_group_u(params, group, p_m, reach)
        r = min(max(solver._U_EPS, cold * (1.0 + shift)), 1.0 - solver._U_EPS)
        r_prev = r - cold * 10.0 ** moved
        a = min(max(solver._U_EPS, cold * (1.0 + anchor)), 1.0 - solver._U_EPS)
        warm = _solve_group_u(params, group, p_m, reach, (r, r_prev, a, f(a)))
        w = 2.0 * abs(r - r_prev) + 1e-15 * r
        lo, hi = max(solver._U_EPS, r - w), min(0.5, r + w)
        if f(a) < 0.0 and a < hi:
            lo = a
        elif f(a) > 0.0 and lo < a <= 0.5:
            hi = a
        if r <= 0.5 and f(lo) < 0.0 < f(hi):
            band_lo, band_hi = sign_band(f, cold)
            assert band_lo <= warm <= band_hi
        else:
            assert warm.hex() == cold.hex()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(sweep=_frozen_sweeps())
    def test_residual_rises_strictly_up_to_one_half(self, sweep):
        # The warm bracket's uniqueness argument: p_r is concave in P with
        # p_r(0) = 0, so the residual's slope is at least p_m + delta > 0.
        f = frozen_residual(*sweep)
        values = [f(u) for u in np.linspace(0.0, 0.5, 257)[1:].tolist()]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestFixedDamping:
    # Every outer step damps by the same _DAMPING.  Economies where the
    # residual rises twice in a row still reach the steady state.
    def test_converges_where_the_residual_rises(self):
        params = ModelParams(
            delta=0.09519054027932829, eta=0.5978794338451769, gamma=0.010599796687408415,
            beta=0.83678618923307, c=1.3533671532034335, phi=0.02768754272576368, d_f=5,
        )
        eq = solve_equilibrium(params, (GroupSpec(84102.27630957599, Zipf(3.1965527201739166)),
                                        GroupSpec(2651.356532079594, Degenerate(31))))
        assert eq.residual < 1e-12
        assert abs(eq.V * params.r) < 1e-8
        np.testing.assert_allclose(group_u(eq), [0.9924288791199192, 0.5463020508467608],
                                   rtol=1e-10, atol=0.0)

    def test_converges_where_a_shrinking_damping_stalled(self):
        # Halving the damping after each pair of rising residuals drove it
        # down until the solve ran all 10,000 steps; at 0.5 it takes 49.
        params = ModelParams(delta=0.1545274005773913, eta=0.03182720133966904,
                             gamma=1.1451909704404253, beta=0.31875818292603086,
                             c=28.81781739360187, b=0.8727085118437508,
                             r=0.11566740155120275, phi=1.0, d_f=4)
        groups = [GroupSpec(382582.2868055708, Poisson(4.316723212089775)),
                  GroupSpec(1040.9206067851467, Degenerate(35)),
                  GroupSpec(1215120.585084422, Poisson(6.485368987893442)),
                  GroupSpec(4535.244481703927, Poisson(5.244280640727932)),
                  GroupSpec(54.8988126920546, Degenerate(24)),
                  GroupSpec(1692.403980695569, Poisson(6.485368987893442))]
        eq = solve_equilibrium(params, groups)
        assert eq.iterations == 49
        assert eq.residual < 1e-12
        assert abs(eq.V * params.r) < 1e-8


class TestOneEvaluationPerStep:
    ECONOMY = (GroupSpec(1e6, Poisson(Zipf(2.3).mean())), GroupSpec(1e6, Zipf(2.3)))

    def test_market_arrival_once_per_step(self, monkeypatch):
        calls = []
        market_arrival = solver.market_arrival

        def counting(*args):
            calls.append(args)
            return market_arrival(*args)

        monkeypatch.setattr(solver, "market_arrival", counting)
        eq = solve_equilibrium(PUBLISHED, self.ECONOMY)
        assert len(calls) == eq.iterations + 1

    def test_kernel_calls_outside_sweeps(self, monkeypatch):
        # Each step evaluates every distinct law's referral rate once, so a
        # third group on the Zipf law adds no call; the equilibrium reuses the
        # last evaluation instead of making its own.
        in_sweeps = []
        solve_group_u = solver._solve_group_u

        def counting(params, group, p_m, reach, last):
            before = group.dist.calls
            u = solve_group_u(params, group, p_m, reach, last)
            in_sweeps.append(group.dist.calls - before)
            return u

        monkeypatch.setattr(solver, "_solve_group_u", counting)
        for repeat in (False, True):
            dists = [CountingDist(g.dist) for g in self.ECONOMY]
            groups = [GroupSpec(g.size, d) for g, d in zip(self.ECONOMY, dists)]
            groups += [GroupSpec(3.5e5, dists[1])] if repeat else []
            in_sweeps.clear()
            eq = solve_equilibrium(PUBLISHED, groups)
            outside = sum(d.calls for d in dists) - sum(in_sweeps)
            assert outside == len(dists) * eq.iterations
            assert len(eq.groups) == len(groups)

    def test_equilibrium_numbers_are_floats(self):
        eq = solve_equilibrium(PUBLISHED, self.ECONOMY)
        for obj in (eq, *eq.groups):
            for f in fields(obj):
                if f.name not in ("params", "groups", "iterations"):
                    assert type(getattr(obj, f.name)) is float, f.name
        assert "np.float64(" not in repr(eq)


@dataclass
class ListedPoisson(DegreeDistribution):
    """A Poisson law as a plain dataclass: equal by value, but unhashable."""

    lam: float

    def _reach(self, p_info: float) -> float:
        return Poisson(self.lam)._reach(p_info)


def count_group_solves(monkeypatch) -> list:
    """Record the degree law of every _solve_group_u call."""
    laws = []
    solve_group_u = solver._solve_group_u

    def counting(params, group, p_m, reach, last):
        laws.append(group.dist)
        return solve_group_u(params, group, p_m, reach, last)

    monkeypatch.setattr(solver, "_solve_group_u", counting)
    return laws


class TestDistinctLaws:
    # Twelve groups on eight distinct laws: Poisson(22.47) three times,
    # Degenerate(16) and Poisson(8.5) twice each.
    LAWS = (Poisson(22.47), Degenerate(16), Poisson(22.47), Poisson(5.0), Degenerate(30),
            Poisson(8.5), Degenerate(16), Poisson(40.0), Poisson(22.47), Degenerate(3),
            Poisson(8.5), Poisson(12.0))
    SIZES = (1e6, 3.5e5, 2e6, 7.5e5, 1.2e6, 4e5, 9e5, 2.5e5, 6e5, 1.5e6, 8e5, 5e5)

    def groups(self, laws=LAWS):
        return [GroupSpec(s, d) for s, d in zip(self.SIZES, laws)]

    def test_many_groups_unchanged(self):
        # Values computed when every group solved its own scalar equation.
        # The Poisson(22.47) groups' u was 0.04438095742771314, an ulp lower,
        # before every sum over groups was a math.fsum.
        eq = solve_equilibrium(PUBLISHED, self.groups())
        assert eq.iterations == 38
        assert group_u(eq).tolist() == [
            0.04438095742771315, 0.05018455101071233, 0.04438095742771315, 0.06982581934315635,
            0.039500599637763936, 0.06167063597528391, 0.05018455101071233, 0.03557921990030942,
            0.04438095742771315, 0.07574263902162733, 0.06167063597528391, 0.055614665866866,
        ]
        assert eq.v == 0.04147021802448763
        # Groups of different sizes on one law hold one state, bit for bit.
        for law in set(self.LAWS):
            states = {tuple(getattr(state, f.name).hex() for f in fields(state) if f.name != "size")
                      for state, d in zip(eq.groups, self.LAWS) if d == law}
            assert len(states) == 1, law

    def test_one_group_solve_per_distinct_law(self, monkeypatch):
        laws = count_group_solves(monkeypatch)
        eq = solve_equilibrium(PUBLISHED, self.groups())
        assert len(laws) == 8 * eq.iterations
        assert laws[:8] == list(dict.fromkeys(self.LAWS))

    def test_unhashable_law_is_keyed_by_identity(self, monkeypatch):
        listed = ListedPoisson(22.47)
        with pytest.raises(TypeError):
            hash(listed)
        laws = count_group_solves(monkeypatch)
        # Groups 0 and 2 share one object; the equal copy in group 1 is solved apart.
        groups = self.groups((listed, ListedPoisson(22.47), listed, Poisson(5.0)))
        assert solver._law_slots(groups) == ([0, 1, 3], [0, 1, 0, 2])
        eq = solve_equilibrium(PUBLISHED, groups)
        assert len(laws) == 3 * eq.iterations
        same = solve_equilibrium(PUBLISHED, self.groups(
            (Poisson(22.47), Poisson(22.47), Poisson(22.47), Poisson(5.0))))
        assert group_u(eq).tolist() == group_u(same).tolist()
        assert eq.v == same.v


class TestRepeatedIterate:
    # At phi = 0 and eta = 0.05 the steady state's employment is far below
    # the spacing of doubles near 1, so every u_i ends at the clip.
    CORNER = ModelParams(eta=0.05, gamma=0.01, phi=0.0)

    @pytest.mark.parametrize("laws", [(Poisson(22.47),),
                                      (Poisson(22.47), Zipf(2.3), Degenerate(7)),
                                      (Poisson(22.47), Zipf(2.3), Poisson(22.47))])
    def test_corner_raises_at_once(self, laws):
        groups = [GroupSpec(size, d) for size, d in zip((1.0, 2.0, 0.5), laws)]
        with pytest.raises(ConvergenceError, match="no-market corner") as err:
            solve_equilibrium(self.CORNER, groups)
        assert err.value.iterations < 100
        assert err.value.u_vec.shape == (len(groups),)  # per group, a law repeated or not
        assert err.value.residual >= solver._RESIDUAL_TOL
        assert np.all(1.0 - err.value.u_vec < 2e-9)
        assert err.value.v > 0.0

    def test_full_referral_frequency_corner_raises(self):
        # From step 35 every u_i is within 2e-9 of 1; there the iterate
        # moves by ulps until it returns to the one two steps before.
        params = ModelParams(b=0.0595130817476952, r=0.11943165448064004,
                             delta=0.3287231885500706, eta=1 / 3, gamma=0.01,
                             beta=0.9276375421277745, c=38.83597263090465, phi=1.0, d_f=4)
        groups = [GroupSpec(1.0, Poisson(lam))
                  for lam in (0.5, 0.5, 38.83597263090465, 41.21123044467842)]
        with pytest.raises(ConvergenceError, match="no-market corner") as err:
            solve_equilibrium(params, groups)
        assert err.value.iterations < 100
        assert err.value.residual >= solver._RESIDUAL_TOL
        assert np.all(1.0 - err.value.u_vec < 2e-9)

    def test_period_two_cycle_raises(self):
        # Flow balance holds but free entry never does: the iterate of step
        # 172 equals that of step 170, r V alternating -2.980e-8 / 2.977e-8,
        # and the solve used to run all 10,000 steps.  Before every sum over
        # groups was a math.fsum, it raised at step 171 (r V = -2.083e-08).
        params = ModelParams(b=0.5459275321952658, r=0.14334393296201056,
                             delta=0.7674855304027197, eta=0.26143130695909506,
                             gamma=0.5224205259426208, beta=0.9166081335701889,
                             c=32.80730905022276, phi=0.7644998489631071, d_f=16)
        groups = [GroupSpec(4165911.5824667295, Poisson(46.22646571427592)),
                  GroupSpec(30063.438307059034, Degenerate(25)),
                  GroupSpec(52.470296306663435, Poisson(30.211156389029693)),
                  GroupSpec(1231368.2025324712, Poisson(30.211156389029693))]
        with pytest.raises(ConvergenceError,
                           match=r"cycles with period 2 at step 172 \(r V = 2\.977e-08\)$") as err:
            solve_equilibrium(params, groups)
        assert err.value.iterations == 172
        assert err.value.residual < solver._RESIDUAL_TOL

    def test_long_cycle_raises(self):
        # Flow balance holds, but v = 1.9e-11 keeps r V away from 0 while the
        # three groups' u, 1.9e-9 to 2.1e-7 below 1, cycle with period 4 at the
        # ulp level.  Before every sum over groups was a math.fsum, this one
        # cycled with period 3 at step 70, and the economy pinned here then
        # (Zipf(2.2111), Poisson(8.0969), Zipf(2.6452)) with period 4; that
        # one now repeats at step 70.
        params = ModelParams(b=0.3937153567161544, r=0.10963927768340295,
                             delta=0.2930949238605811, eta=0.07273382328540137,
                             gamma=3.772582062243708, beta=0.8655203047634783,
                             c=33.36759558524072, phi=0.6088173621323317, d_f=16)
        groups = [GroupSpec(316117.44845730346, Zipf(2.1778220516886013)),
                  GroupSpec(2630509.4550201036, Poisson(8.08789267734995)),
                  GroupSpec(4966649.119652515, Zipf(2.6489723027739975))]
        with pytest.raises(ConvergenceError, match="cycles with period 4 at step") as err:
            solve_equilibrium(params, groups)
        assert err.value.iterations < 100
        assert err.value.residual < solver._RESIDUAL_TOL


class TestFreeEntryStop:
    # Near the no-market corner v is tiny and free entry weighs each flow
    # residual by about 1/v: flow balance below 1e-12 alone stopped these
    # solves with r V = -1.3e-7 (at 135 steps) and -3.0e-3 (at 120).
    def test_iterates_on_until_free_entry_holds(self):
        params = ModelParams(b=0.5, r=0.125, delta=0.5, eta=0.25, gamma=0.0625, beta=0.0,
                             c=1.0, phi=0.0, d_f=0)
        eq = solve_equilibrium(params, (GroupSpec(1.0, Poisson(1.0)),) * 2)
        assert eq.iterations == 155
        assert eq.residual < 1e-12
        assert abs(eq.V * params.r) < 1e-8

    def test_raises_where_doubles_cannot_reach_free_entry(self):
        params = ModelParams(b=0.02, r=0.014, delta=0.53, eta=0.18, gamma=2.31, beta=0.93,
                             c=21.6, phi=0.0, d_f=0)
        with pytest.raises(ConvergenceError, match=r"repeats at step 219 \(r V = -2.289e-07\)$"):
            solve_equilibrium(params, [GroupSpec(1.0, Poisson(1.0))])


_LAWS = st.one_of(st.floats(0.5, 50.0).map(Poisson), st.integers(0, 50).map(Degenerate))


@st.composite
def _economies(draw):
    """ROADMAP item 10's parameter box; 2-6 Poisson/regular groups, one law repeated."""
    unit = st.floats(0.0, 1.0)
    params = ModelParams(
        delta=draw(st.floats(0.001, 0.9)), eta=draw(st.floats(0.01, 1.0)),
        gamma=draw(st.floats(0.01, 3.0)), beta=draw(st.floats(0.0, 0.99)),
        c=draw(st.floats(0.1, 40.0)), b=draw(st.floats(0.01, 0.95)),
        r=draw(st.floats(0.001, 0.2)),
        phi=draw(st.one_of(st.just(0.0), unit, st.just(1.0))),
        d_f=draw(st.sampled_from((0, 1, 4, 16, 50))),
    )
    laws = draw(st.lists(_LAWS, min_size=1, max_size=5))
    laws.append(replace(draw(st.sampled_from(laws))))  # equal, not the same object
    order = draw(st.permutations(range(len(laws))))
    sizes = draw(st.lists(st.floats(1.0, 1e7), min_size=len(laws), max_size=len(laws)))
    return params, [GroupSpec(size, laws[i]) for size, i in zip(sizes, order)]


class TestSolverFuzz:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(economy=_economies())
    def test_converges_to_a_steady_state_or_raises(self, economy):
        params, groups = economy
        try:
            eq = solve_equilibrium(params, groups)
        except (ConvergenceError, ValueError):
            return
        u = group_u(eq)
        assert np.max(np.abs(flow_residual(params, groups, u, eq.v))) < 1e-12
        assert abs(eq.V * params.r) < 1e-8
        for i, gi in enumerate(groups):
            for j, gj in enumerate(groups):
                if gi.dist == gj.dist:
                    assert u[i] == u[j]


def _bits(params, groups, order):
    """The bits of a solve of ``groups`` in ``order``, each u_i under its group's index.

    A solve that raises gives its error type and the step it raised at.
    """
    try:
        eq = solve_equilibrium(params, [groups[j] for j in order])
    except (ConvergenceError, ValueError) as err:
        return type(err), getattr(err, "iterations", None)
    u_i = dict(zip(order, (g.u for g in eq.groups)))
    return ([u_i[j].hex() for j in range(len(groups))], eq.u.hex(), eq.v.hex(), eq.V.hex(),
            eq.iterations, gini(eq).hex(), social_welfare(eq).hex())


class TestGroupOrder:
    # Every sum over groups is a math.fsum, whose correctly rounded value
    # depends only on the terms, so the order of the groups moves no bit.
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(economy=_economies(), data=st.data())
    def test_permutation_moves_no_bit(self, economy, data):
        params, groups = economy
        order = data.draw(st.permutations(range(len(groups))))
        assert _bits(params, groups, order) == _bits(params, groups, range(len(groups)))


def numpy_calls(fn, *args) -> list[str]:
    """The name of each numpy function or method ``fn(*args)`` calls from Python."""
    calls = []

    def profile(frame, event, arg):
        if event == "c_call":
            owner = getattr(arg, "__module__", None) or type(getattr(arg, "__self__", None)).__module__
            if owner and owner.split(".")[0] == "numpy":
                calls.append(arg.__qualname__)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


class TestNoNumpyInTheStep:
    def test_only_the_returned_iterate_is_an_array(self):
        # 45 steps; with the aggregate u a numpy dot product, each made an
        # array.  The returned iterate was an array until it became a tuple.
        zipf = Zipf(2.3)
        groups = (GroupSpec(1e6, Poisson(zipf.mean())), GroupSpec(2e6, zipf))
        assert numpy_calls(solve_equilibrium, PUBLISHED, groups) == []
