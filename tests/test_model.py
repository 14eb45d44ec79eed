"""Structural equations: closed-form spot values and grid properties."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refmatch import Degenerate, GroupSpec, ModelParams, Poisson, calibrate
from refmatch import calibration
from refmatch.model import (
    closure_for,
    contact_reach,
    info_probability,
    market_arrival,
    surplus,
    vacancy_closure,
    value_functions,
    wage,
)

PUBLISHED = ModelParams()  # defaults carry the published parameterization


def draw_params(rng) -> ModelParams:
    """Random parameters inside +-50% boxes around the published values."""
    while True:
        try:
            return ModelParams(
                y=rng.uniform(0.5, 1.5),
                b=rng.uniform(0.2, 0.6),
                r=rng.uniform(0.006, 0.018),
                delta=rng.uniform(0.018, 0.054),
                eta=rng.uniform(0.36, 1.08),
                gamma=rng.uniform(0.201, 0.603),
                beta=rng.uniform(0.014, 0.042),
                c=rng.uniform(3.594, 10.782),
                phi=rng.uniform(0.024, 0.072),
                d_f=int(rng.integers(8, 25)),
            )
        except ValueError:  # e.g. y <= b; redraw
            continue


class TestMarketArrival:
    def test_balanced_market(self):
        assert market_arrival(PUBLISHED, 0.1, 0.1) == pytest.approx(0.402, abs=1e-15)

    def test_tightness_example(self):
        val = market_arrival(PUBLISHED, 0.044, 0.04)
        assert val == pytest.approx(0.39141377099050506, rel=1e-12)
        assert abs(val - 0.39139) < 1e-4

    def test_zero_efficiency(self):
        params = ModelParams(gamma=0.0)
        assert market_arrival(params, 0.3, 0.1) == 0.0

    # At v = inf, or where u/v underflows to 0, 0.0 ** (eta - 1) used to
    # raise ZeroDivisionError.
    @pytest.mark.parametrize("u, v", [(0.0, 0.1), (-0.1, 0.1), (0.1, 0.0), (0.1, -0.2),
                                      (0.05, math.inf), (1e-320, 1e10)])
    def test_domain(self, u, v):
        with pytest.raises(ValueError):
            market_arrival(PUBLISHED, u, v)


class TestInfoProbability:
    def test_no_adjacent_jobs(self):
        params = ModelParams(d_f=0)
        assert info_probability(params, 0.05, 0.05, 0.04) == 0.0

    def test_no_employed_referrers(self):
        assert info_probability(PUBLISHED, 1.0, 0.5, 0.04) == 0.0

    def test_baseline_example(self):
        val = info_probability(PUBLISHED, 0.044, 0.044, 0.04)
        assert val == pytest.approx(0.022071606824780713, rel=1e-12)
        assert abs(val - 0.022064) < 1e-5

    def test_bounded_by_phi(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            u_i, u = rng.uniform(0.0, 1.0, size=2)
            v = rng.uniform(0.0, 0.5)
            val = info_probability(PUBLISHED, u_i, u, v)
            assert 0.0 <= val <= PUBLISHED.phi

    def test_monotone_in_vacancies_decreasing_in_own_unemployment(self):
        vs = np.linspace(0.005, 0.2, 30)
        vals = [info_probability(PUBLISHED, 0.05, 0.05, float(v)) for v in vs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        us = np.linspace(0.0, 1.0, 30)
        vals = [info_probability(PUBLISHED, float(u_i), 0.05, 0.04) for u_i in us]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_degenerate_job_pool(self):
        with pytest.raises(ValueError):
            info_probability(PUBLISHED, 0.5, 1.0, 0.0)

    def test_infinite_vacancy_rate_rejected(self):
        # v / (1 - u + v) at v = inf is NaN, which contact_reach used to return.
        with pytest.raises(ValueError, match="nonnegative and finite"):
            contact_reach(0.5, 16, 0.05, math.inf)


class TestReferralArrival:
    def test_delegates_to_distribution(self):
        assert Poisson(22.47).referral_expectation(0.0) == 0.0
        val = Poisson(22.47).referral_expectation(0.022064)
        assert val == pytest.approx(0.3909032031633885, abs=1e-10)

    def test_regular_network_power(self):
        assert Degenerate(16).referral_expectation(0.1) == pytest.approx(1.0 - 0.9**16, rel=1e-12)


class TestSurplusAndWage:
    def test_surplus_at_zero_arrival(self):
        assert surplus(PUBLISHED, 0.0) == pytest.approx(12.5, rel=1e-12)

    def test_surplus_baseline(self):
        val = surplus(PUBLISHED, 0.78218)
        assert val == pytest.approx(8.583563277456244, rel=1e-12)
        assert abs(val - 8.585) < 0.01

    def test_surplus_beta_zero_constant(self):
        params = ModelParams(beta=0.0)
        vals = {surplus(params, p) for p in (0.0, 0.3, 1.2)}
        assert vals == {12.5}

    def test_surplus_decreasing_in_arrival(self):
        ps = np.linspace(0.0, 3.0, 40)
        vals = [surplus(PUBLISHED, float(p)) for p in ps]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_wage_endpoints(self):
        assert wage(PUBLISHED, 0.0) == PUBLISHED.y
        all_power = ModelParams(beta=1.0)
        assert wage(all_power, 5.0) == all_power.y

    def test_wage_baseline(self):
        val = wage(PUBLISHED, 8.585)
        assert val == pytest.approx(0.5994582399999999, rel=1e-12)
        assert abs(val - 0.600) < 0.002

    def test_wage_increasing_in_arrival_through_surplus(self):
        ps = np.linspace(0.0, 2.0, 30)
        ws = [wage(PUBLISHED, surplus(PUBLISHED, float(p))) for p in ps]
        assert all(b > a for a, b in zip(ws, ws[1:]))


class TestVacancyClosure:
    def _groups(self, sizes):
        return [GroupSpec(size=s, dist=Poisson(22.47)) for s in sizes]

    def test_baseline_symmetric(self):
        val = vacancy_closure(PUBLISHED, self._groups([1e6, 1e6]), [0.044, 0.044])
        assert val == pytest.approx(0.039947157908581214, rel=1e-12)
        assert abs(val - 0.0400) < 0.0005

    def test_everyone_unemployed_kills_entry(self):
        u = 1.0 - 1e-9
        val = vacancy_closure(PUBLISHED, self._groups([1e6]), [u])
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_no_destruction_no_vacancies(self):
        params = ModelParams(delta=0.0)
        assert vacancy_closure(params, self._groups([1e6]), [0.05]) == 0.0

    def test_permutation_symmetric(self):
        groups = self._groups([5e5, 1e6, 2e6])
        u_vec = [0.03, 0.05, 0.08]
        a = vacancy_closure(PUBLISHED, groups, u_vec)
        b = vacancy_closure(PUBLISHED, groups[::-1], u_vec[::-1])
        assert a == pytest.approx(b, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            vacancy_closure(PUBLISHED, [], [])
        with pytest.raises(ValueError):
            vacancy_closure(PUBLISHED, self._groups([1e6]), [0.0])
        with pytest.raises(ValueError):
            vacancy_closure(PUBLISHED, self._groups([1e6]), [1.0])
        with pytest.raises(ValueError):
            vacancy_closure(PUBLISHED, self._groups([1e6, 1e6]), [0.05])

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_solver_helper_equals_checked_closure(self, n):
        # The solver makes closure_for once per solve and calls it every
        # step; it must give vacancy_closure's bits, and those of the
        # formula with the total and the sum over groups correctly rounded.
        rng = np.random.default_rng(n)
        groups = [GroupSpec(float(10.0 ** rng.uniform(4.0, 7.0)), Poisson(22.47)) for _ in range(n)]
        closure = closure_for(PUBLISHED, groups)
        p = PUBLISHED
        for u_vec in ([1e-9] * n, [1.0 - 1e-9] * n, rng.uniform(1e-9, 1.0 - 1e-9, n).tolist()):
            total = math.fsum(g.size for g in groups)
            acc = math.fsum(u * (1.0 - u) * (g.size / total)
                            / (u * (p.r + p.delta) + p.beta * p.delta * (1.0 - u))
                            for g, u in zip(groups, u_vec))
            want = (p.y - p.b) * (1.0 - p.beta) * p.delta / p.c * acc
            got = closure(u_vec)
            assert got.hex() == vacancy_closure(p, groups, u_vec).hex() == want.hex()
            assert type(got) is float

    def test_sum_past_the_largest_double_is_a_value_error(self):
        # Each term is 1.5e308; math.fsum raises OverflowError on their sum,
        # where the left-to-right sum it replaced gave inf.
        params = ModelParams(r=5.5e-310, delta=5.5e-310, beta=0.0)
        with pytest.raises(ValueError, match=r"singular vacancy closure: r \+ delta = 1\.1e-309"):
            vacancy_closure(params, self._groups([1.0] * 3), [0.5] * 3)

    def test_tiny_vacancy_cost_overflows_to_value_error(self):
        # c = 1e-320 passes validation, but the closure's prefactor overflows
        # to v = inf, and market_arrival then raised ZeroDivisionError.
        params = ModelParams(c=1e-320)
        with pytest.raises(ValueError, match=r"vacancy closure v = inf \* \d.* is not finite"):
            vacancy_closure(params, self._groups([1e6]), [0.05])


class TestValueFunctions:
    def test_indifference_at_home_production_wage(self):
        vals = value_functions(PUBLISHED, PUBLISHED.b, 0.7)
        assert vals.W == pytest.approx(PUBLISHED.b / PUBLISHED.r, rel=1e-12)
        assert vals.U == pytest.approx(PUBLISHED.b / PUBLISHED.r, rel=1e-12)

    def test_zero_profit_wage(self):
        vals = value_functions(PUBLISHED, PUBLISHED.y, 0.7)
        assert vals.J == 0.0

    def test_baseline_job_value(self):
        vals = value_functions(PUBLISHED, 0.6, 0.78218)
        assert vals.J == pytest.approx(0.4 / 0.048, rel=1e-12)
        assert abs(vals.J - 8.333) < 0.01

    def test_bargaining_split_identity(self):
        # with the wage from the bargaining solution, J = (1-beta) S and
        # W - U = beta S must hold to machine precision
        rng = np.random.default_rng(11)
        for _ in range(20):
            params = draw_params(rng)
            for p_i in rng.uniform(0.0, 2.5, size=5):
                s_i = surplus(params, float(p_i))
                w_i = wage(params, s_i)
                vals = value_functions(params, w_i, float(p_i))
                assert abs(vals.J - (1.0 - params.beta) * s_i) < 1e-10
                assert abs((vals.W - vals.U) - params.beta * s_i) < 1e-10

    def test_outputs_finite_on_parameter_boxes(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = draw_params(rng)
            p_i = float(rng.uniform(0.0, 3.0))
            s_i = surplus(params, p_i)
            w_i = wage(params, s_i)
            vals = value_functions(params, w_i, p_i)
            for x in (s_i, w_i, *vals):
                assert np.isfinite(x)


class TestParamsValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ModelParams(y=0.3, b=0.4)  # y <= b
        with pytest.raises(ValueError):
            ModelParams(r=0.0)
        with pytest.raises(ValueError):
            ModelParams(delta=1.5)
        with pytest.raises(ValueError):
            ModelParams(eta=0.0)
        with pytest.raises(ValueError):
            ModelParams(beta=1.2)
        with pytest.raises(ValueError):
            ModelParams(c=0.0)
        with pytest.raises(ValueError):
            ModelParams(phi=-0.1)
        for d_f in (-1, 2.5, math.inf):
            with pytest.raises(ValueError, match="d_f must be an integer >= 0"):
                ModelParams(d_f=d_f)

    def test_matching_exponent_at_most_one(self, monkeypatch):
        # 1 - eta is the vacancy elasticity of the Cobb-Douglas matching
        # function; above 1, (u/v)^(eta-1) overflowed or never converged.
        assert ModelParams(eta=1.0).eta == 1.0
        for eta in (1.0000001, 12.0, 2e16):
            with pytest.raises(ValueError, match="eta must lie in"):
                ModelParams(eta=eta)

        def no_solve(*args):
            raise AssertionError("calibrate solved before checking eta")

        monkeypatch.setattr(calibration, "solve_equilibrium", no_solve)
        with pytest.raises(ValueError, match="eta must lie in"):
            calibrate(eta=1.0000001)

    def test_rejects_ints_a_float_cannot_hold(self):
        # Each raised OverflowError, in the finiteness check or in the first
        # equation that mixed the int with a float.
        with pytest.raises(ValueError, match="y must be finite"):
            ModelParams(y=10**400)
        with pytest.raises(ValueError, match="d_f must be an integer >= 0"):
            ModelParams(d_f=10**400)
        with pytest.raises(ValueError, match="k must be an integer >= 0"):
            Degenerate(10**400)
        with pytest.raises(ValueError, match="group size must be positive and finite"):
            GroupSpec(size=10**400, dist=Poisson(1.0))  # was accepted
        assert ModelParams(d_f=10**308).d_f == 10**308

    @pytest.mark.filterwarnings("error")
    def test_vacancy_closure_with_underflowing_rates(self):
        # r + delta = 5e-324 makes every group's denominator 0.0 (it was a
        # ZeroDivisionError).  Numpy rates divided by it to nan with a
        # RuntimeWarning instead of raising.
        params = ModelParams(r=5e-324, delta=0.0)
        groups = [GroupSpec(size=1.0, dist=Poisson(5.0))]
        with pytest.raises(ValueError, match="singular vacancy closure"):
            vacancy_closure(params, groups, [0.05])
        with pytest.raises(ValueError, match="singular vacancy closure"):
            closure_for(params, groups)([0.05])  # the solver's per-step path
        for u_vec in ([0.3, 0.4], (0.3, 0.4), np.array([0.3, 0.4]), [np.float64(0.3), 0.4]):
            with pytest.raises(ValueError, match="singular vacancy closure"):
                vacancy_closure(params, groups * 2, u_vec)

    @pytest.mark.parametrize("name", ["y", "b", "r", "delta", "eta", "gamma", "beta", "c", "phi"])
    def test_rejects_non_finite_parameters(self, name):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ModelParams(**{name: value})

    def test_group_spec_validation(self):
        with pytest.raises(ValueError):
            GroupSpec(size=math.inf, dist=Poisson(5.0))
        with pytest.raises(ValueError):
            GroupSpec(size=0.0, dist=Poisson(5.0))
        # A law that is not a DegreeDistribution raised AttributeError in
        # the solve ('str' object has no attribute '_reach').
        for dist in ("x", 5.0, None):
            with pytest.raises(ValueError, match="must be a DegreeDistribution"):
                GroupSpec(size=1.0, dist=dist)


def _wide(top: float = sys.float_info.max):
    """Floats over [0, top]: its ends, tiny and huge values, and any float between."""
    edges = [x for x in (5e-324, 1e-300, 1e-12, 1.0, 2e16, 1e300) if x < top]
    return st.one_of(st.sampled_from([0.0, *edges, top]), st.floats(0.0, top))


# Each field over the widest range of its sign (probabilities up to 1);
# the boundaries themselves come from the checks in ModelParams.
_PARAM_FIELDS = {
    **{name: _wide() for name in ("y", "b", "r", "eta", "gamma", "c")},
    **{name: _wide(1.0) for name in ("delta", "beta", "phi")},
    "d_f": st.one_of(st.sampled_from((0, 1, 16, 2**53 + 1, 10**308, 10**400)),
                     st.integers(0, 10**400)),
}


class TestParamsFuzz:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(fields=st.fixed_dictionaries(_PARAM_FIELDS), name=st.sampled_from(list(_PARAM_FIELDS)),
           other=st.one_of(st.none(), st.floats(), st.integers()))
    def test_equations_raise_only_value_error(self, fields, name, other):
        # ``other``, when drawn, puts any number (negative, non-finite, an
        # int too large for a float) into one field.  Every accepted vector
        # goes through each equation at one feasible state (u/v = 1.1, as in
        # the calibration targets); a vector the equations cannot take must
        # be refused, and only as ValueError.
        if other is not None:
            fields = {**fields, name: other}
        try:
            params = ModelParams(**fields)
        except ValueError:
            return
        u, v, u_i = 0.044, 0.04, 0.05
        groups = (GroupSpec(size=1e6, dist=Poisson(22.47)), GroupSpec(size=2e6, dist=Degenerate(16)))
        try:
            p_i = market_arrival(params, u, v)
            contact_reach(params.phi, params.d_f, u, v)
            info_probability(params, u_i, u, v)
            s_i = surplus(params, p_i)
            w_i = wage(params, s_i)
            value_functions(params, w_i, p_i)
            vacancy_closure(params, groups, (u_i, 0.04))
        except ValueError:
            pass
