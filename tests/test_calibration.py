"""Calibration chain: published values, round trips, and infeasibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refmatch import (
    CalibrationError,
    CalibrationTargets,
    GroupSpec,
    Poisson,
    calibrate,
    solve_equilibrium,
)


class TestPublishedCalibration:
    def test_recovers_published_row(self, calibrated_params):
        p = calibrated_params
        assert abs(p.gamma - 0.402) < 0.002
        assert abs(p.beta - 0.028) < 0.002
        assert abs(p.c - 7.188) < 0.02
        assert abs(p.phi - 0.048) < 0.002

    def test_givens_pass_through(self, calibrated_params):
        p = calibrated_params
        assert (p.y, p.b, p.r, p.delta, p.eta, p.d_f) == (1.0, 0.4, 0.012, 0.036, 0.72, 16)

    def test_verification_reproduces_targets(self, calibrated_params):
        groups = (GroupSpec(1e6, Poisson(22.47)), GroupSpec(1e6, Poisson(22.47)))
        eq = solve_equilibrium(calibrated_params, groups)
        g = eq.groups[0]
        assert abs(eq.u - 0.044) < 1e-6
        assert abs(eq.u / eq.v - 1.1) < 1e-6
        assert abs(g.w - 0.6) < 1e-6
        assert abs(g.p_referral / g.p_total - 0.5) < 1e-6


class TestMarketOnlyCorner:
    def test_zero_referral_share(self):
        targets = CalibrationTargets(referral_share=0.0)
        params = calibrate(targets)
        assert params.phi == 0.0
        p = params.delta * (1.0 - targets.u_target) / targets.u_target
        assert params.gamma == pytest.approx(
            p * targets.market_tightness_inverse ** (1.0 - params.eta), rel=1e-12
        )


class TestRoundTrip:
    def test_forward_solve_then_recalibrate(self):
        # generate an economy from off-baseline targets, measure its
        # moments from a fresh solve, then recover the parameters again
        targets = CalibrationTargets(
            u_target=0.06, market_tightness_inverse=0.9, wage_target=0.55,
            referral_share=0.35, baseline_mean_degree=18.0, d_f=12,
        )
        params = calibrate(targets)
        groups = (GroupSpec(1e6, Poisson(18.0)), GroupSpec(1e6, Poisson(18.0)))
        eq = solve_equilibrium(params, groups)
        g = eq.groups[0]
        measured = CalibrationTargets(
            u_target=eq.u,
            market_tightness_inverse=eq.u / eq.v,
            wage_target=g.w,
            referral_share=g.p_referral / g.p_total,
            baseline_mean_degree=18.0,
            d_f=12,
        )
        recovered = calibrate(measured)
        for name in ("gamma", "beta", "c", "phi"):
            got, want = getattr(recovered, name), getattr(params, name)
            assert got == pytest.approx(want, rel=1e-6), name


class TestBargainingEquation:
    def test_unique_sign_change_on_unit_interval(self, calibrated_params):
        # the wage equation residual in beta crosses zero exactly once
        p = calibrated_params
        t = CalibrationTargets()
        arrival = p.delta * (1.0 - t.u_target) / t.u_target

        def residual(beta: float) -> float:
            s = (p.y - p.b) / (p.r + p.delta + beta * arrival)
            return p.y - (p.r + p.delta) * (1.0 - beta) * s - t.wage_target

        grid = np.linspace(0.0, 1.0, 2001)
        signs = np.sign([residual(float(b)) for b in grid])
        crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert crossings == 1
        assert residual(p.beta) == pytest.approx(0.0, abs=1e-12)


class TestInfeasibility:
    def test_wage_target_outside_bargaining_range(self):
        with pytest.raises(CalibrationError):
            calibrate(CalibrationTargets(wage_target=0.3))  # below home production
        with pytest.raises(CalibrationError):
            calibrate(CalibrationTargets(wage_target=1.2))  # above output

    def test_referral_share_needs_information_probability_above_one(self):
        # a sparse network cannot deliver half of a high arrival rate
        with pytest.raises(CalibrationError):
            calibrate(CalibrationTargets(referral_share=0.999, baseline_mean_degree=0.5))

    def test_referral_share_with_no_observable_vacancies(self):
        with pytest.raises(CalibrationError):
            calibrate(CalibrationTargets(d_f=0))

    def test_referral_arrival_probability_at_least_one(self):
        # u so low that delta (1-u)/u * share >= 1
        with pytest.raises(CalibrationError):
            calibrate(CalibrationTargets(u_target=0.017))

    def test_targets_validation(self):
        with pytest.raises(ValueError):
            CalibrationTargets(u_target=0.0)
        with pytest.raises(ValueError):
            CalibrationTargets(referral_share=1.5)
        with pytest.raises(ValueError):
            CalibrationTargets(baseline_mean_degree=0.0)
        # An int too large for a float passed the comparisons (OverflowError in calibrate).
        for name in ("market_tightness_inverse", "wage_target", "baseline_mean_degree"):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                calibrate(CalibrationTargets(**{name: 10**400}))
        for d_f in (-1, 2.5, float("inf")):
            with pytest.raises(ValueError, match="d_f must be an integer >= 0"):
                CalibrationTargets(d_f=d_f)


# Each target field: its published value and edges, or any float or int
# (negative, non-finite, too large for a float).
_ANY = st.one_of(st.floats(), st.integers(-10, 10**400))
_TARGET_FIELDS = {
    "u_target": st.one_of(st.sampled_from([0.044, 5e-324, 0.5, 1.0 - 2**-53]), _ANY),
    "market_tightness_inverse": st.one_of(st.sampled_from([1.1, 5e-324, 1e300, 10**400]), _ANY),
    "wage_target": st.one_of(st.sampled_from([0.6, 0.4000001, 0.9999999, 10**400]), _ANY),
    "referral_share": st.one_of(st.sampled_from([0.5, 0.0, 1.0]), _ANY),
    "baseline_mean_degree": st.one_of(st.sampled_from([22.47, 5e-324, 1e300, 10**400]), _ANY),
    "d_f": st.one_of(st.sampled_from([16, 0, 1, 10**308, 10**400]), _ANY),
}


# Up to three fields drawn, the others at their published values.
_TARGETS = st.lists(st.sampled_from(list(_TARGET_FIELDS)), max_size=3, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({name: _TARGET_FIELDS[name] for name in names})
)


class TestTargetsFuzz:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(fields=_TARGETS)
    def test_only_value_errors(self, fields):
        # Targets are refused at construction or calibrate, as ValueError
        # (CalibrationError is one), or calibrate returns parameters.
        try:
            calibrate(CalibrationTargets(**fields))
        except ValueError:
            pass
