"""Equilibrium solver: reductions, invariants, and error paths."""

from dataclasses import fields

import numpy as np
import pytest

from refmatch import solver
from refmatch import (
    ConvergenceError,
    Degenerate,
    GroupSpec,
    ModelParams,
    Poisson,
    SolverConfig,
    Zipf,
    solve_all,
    solve_equilibrium,
)
from refmatch.degree import DegreeDistribution
from refmatch.model import vacancy_closure
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
        params = ModelParams(r=5e-324, delta=0.0)
        with pytest.raises(ValueError, match="singular vacancy closure"):
            solve_equilibrium(params, (GroupSpec(1.0, Poisson(1.0)),) * 2)

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            solve_equilibrium(PUBLISHED, [])

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
    """Delegates to a degree law and counts referral-kernel calls."""

    def __init__(self, dist: DegreeDistribution):
        self.dist, self.calls = dist, 0

    def referral_expectation(self, p_info: float) -> float:
        self.calls += 1
        return self.dist.referral_expectation(p_info)


class TestGroupSolveStopRule:
    # With these frozen aggregates the group root is u = 0.1376...; one ulp
    # there (2.8e-17) exceeds the width tolerance 4e-18 + 1e-16 u, so only
    # the adjacent-doubles rule can stop the bracket from stalling until the
    # 200-evaluation cap (203 kernel calls before that rule existed).
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
        # definition.
        zipf = Zipf(2.3)
        eq = solve_equilibrium(PUBLISHED, (GroupSpec(1e6, Poisson(zipf.mean())),
                                           GroupSpec(1e6, zipf)))
        assert eq.iterations == 45
        assert group_u(eq).tolist() == [0.08228276926657493, 0.08526716680837916]
        assert eq.v == 0.04533762919048985
        assert [g.P for g in eq.groups] == [0.023710793832285068, 0.023633686818863575]
        assert [g.p_referral for g in eq.groups] == [0.06301265798846371, 0.04769937029064153]

    def test_restarts_unchanged(self, monkeypatch):
        # At a loose tolerance each restart stops at its own point, so all
        # three restarts are kept and their values pin the restart path.
        monkeypatch.setattr(solver, "_RESIDUAL_TOL", 1e-5)
        monkeypatch.setattr(solver, "_RESTART_SEED", 7)
        zipf = Zipf(2.3)
        found = solve_all(
            PUBLISHED, (GroupSpec(1e6, Poisson(zipf.mean())), GroupSpec(1e6, zipf)),
            SolverConfig(multistart=3),
        )
        assert [(group_u(eq).tolist(), eq.v, eq.iterations) for eq in found] == [
            ([0.08226147123344742, 0.08524367364847901], 0.045336268179641995, 14),
            ([0.08230078429468549, 0.08528692807761044], 0.045338776321366736, 18),
            ([0.08229856308965224, 0.08528450809563312], 0.04533863540252402, 19),
            ([0.08230566876803291, 0.08529228552010004], 0.04533908718892572, 18),
        ]


class TestDampingBackoff:
    def test_backoff_path_unchanged(self):
        # The residual rises twice in a row at iteration 8, so the damping
        # halves there; values computed before each outer step made one
        # evaluation.
        params = ModelParams(
            delta=0.09519054027932829, eta=0.5978794338451769, gamma=0.010599796687408415,
            beta=0.83678618923307, c=1.3533671532034335, phi=0.02768754272576368, d_f=5,
        )
        eq = solve_equilibrium(params, (GroupSpec(84102.27630957599, Zipf(3.1965527201739166)),
                                        GroupSpec(2651.356532079594, Degenerate(31))))
        assert group_u(eq).tolist() == [0.9924288791199192, 0.5463020508467606]
        assert eq.v == 0.0010199517037302696
        assert eq.residual == 9.18640163938278e-13
        assert eq.iterations == 108


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
        # Each step evaluates every group's referral rate once; the
        # equilibrium reuses the last evaluation instead of making its own.
        dists = [CountingDist(g.dist) for g in self.ECONOMY]
        groups = [GroupSpec(g.size, d) for g, d in zip(self.ECONOMY, dists)]
        in_sweeps = []
        solve_group_u = solver._solve_group_u

        def counting(params, group, p_m, reach):
            before = group.dist.calls
            u = solve_group_u(params, group, p_m, reach)
            in_sweeps.append(group.dist.calls - before)
            return u

        monkeypatch.setattr(solver, "_solve_group_u", counting)
        eq = solve_equilibrium(PUBLISHED, groups)
        outside = sum(d.calls for d in dists) - sum(in_sweeps)
        assert outside == len(groups) * eq.iterations

    def test_equilibrium_numbers_are_floats(self):
        eq = solve_equilibrium(PUBLISHED, self.ECONOMY)
        for obj in (eq, *eq.groups):
            for f in fields(obj):
                if f.name not in ("params", "groups", "iterations"):
                    assert type(getattr(obj, f.name)) is float, f.name
        assert "np.float64(" not in repr(eq)
