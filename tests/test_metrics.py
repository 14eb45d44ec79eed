"""Welfare and inequality statistics."""

import numpy as np
import pytest

from refmatch import Equilibrium, ModelParams, gini, social_welfare
from refmatch.metrics import _weighted_gini, group_incomes
from refmatch.model import GroupState
from test_solver import numpy_calls


def synthetic_eq(u_w_pairs, params=None, sizes=None, v=0.04):
    """Equilibrium shell carrying just what the metrics read."""
    params = params or ModelParams()
    sizes = sizes or [1e6] * len(u_w_pairs)
    groups = tuple(
        GroupState(
            size=s, u=u, P=0.0, p_market=0.0, p_referral=0.0, p_total=0.0,
            S=0.0, w=w, W=0.0, U=0.0, J=0.0,
        )
        for (u, w), s in zip(u_w_pairs, sizes)
    )
    total = sum(sizes)
    agg_u = sum(u * s for (u, _), s in zip(u_w_pairs, sizes)) / total
    return Equilibrium(params=params, groups=groups, u=agg_u, v=v, V=0.0,
                       residual=0.0, iterations=1)


class TestGini:
    def test_identical_groups(self):
        eq = synthetic_eq([(0.05, 0.6), (0.05, 0.6)])
        assert gini(eq) == 0.0

    def test_two_point_closed_form(self):
        # incomes a < b' with equal weights: G = (b' - a) / (2 (a + b'))
        eq = synthetic_eq([(0.0, 0.5), (0.0, 0.7)])
        assert gini(eq) == pytest.approx(0.2 / (2.0 * 1.2), rel=1e-12)

    def test_published_two_group_cross_check(self):
        # group incomes from the published rounded unemployment/wage pairs
        eq = synthetic_eq([(0.0510, 0.581), (0.0394, 0.615)])
        val = gini(eq)
        assert val == pytest.approx(0.014750088687242162, rel=1e-12)
        assert abs(val - 1.45e-2) <= 0.10 * 1.45e-2

    def test_scale_invariance(self):
        pairs = [(0.05, 0.58), (0.04, 0.63)]
        base = gini(synthetic_eq(pairs))
        lam = 3.7
        params = ModelParams(y=lam * 1.0, b=lam * 0.4)
        scaled = gini(synthetic_eq([(u, lam * w) for u, w in pairs], params=params))
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_zero_iff_equal_incomes(self):
        # different (u, w) combinations engineered to the same mean income
        b = ModelParams().b
        w2 = (0.95 * 0.6 + 0.05 * b - 0.1 * b) / 0.9
        eq = synthetic_eq([(0.05, 0.6), (0.10, w2)])
        assert gini(eq) < 1e-12
        eq2 = synthetic_eq([(0.05, 0.6), (0.10, w2 + 1e-6)])
        assert gini(eq2) > 1e-9

    def test_size_weighting(self):
        small_rich = synthetic_eq([(0.0, 0.5), (0.0, 0.9)], sizes=[9e6, 1e6])
        balanced = synthetic_eq([(0.0, 0.5), (0.0, 0.9)], sizes=[5e6, 5e6])
        assert gini(small_rich) < gini(balanced)

    def test_degenerate_incomes_rejected(self):
        with pytest.raises(ValueError):
            _weighted_gini(np.array([0.0, 0.0]), np.array([0.5, 0.5]))


def test_no_numpy(baseline_eq):
    import refmatch.metrics

    assert "np" not in vars(refmatch.metrics)
    assert numpy_calls(gini, baseline_eq) == numpy_calls(social_welfare, baseline_eq) == []


class TestSocialWelfare:
    def test_full_employment_no_vacancies(self):
        eq = synthetic_eq([(0.0, 0.6)], v=0.0)
        assert social_welfare(eq) == pytest.approx(1.0, rel=1e-12)

    def test_hand_computed_value(self):
        eq = synthetic_eq([(0.05, 0.6)], v=0.04)
        expected = (1.0 * 0.95 + 0.4 * 0.05) - 7.188 * 0.04
        assert social_welfare(eq) == pytest.approx(expected, rel=1e-12)

    def test_decreasing_in_vacancy_rate(self):
        vals = [social_welfare(synthetic_eq([(0.05, 0.6)], v=v)) for v in np.linspace(0.0, 0.2, 20)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_published_comparison_values(self, table2_result):
        er = table2_result.rows_for("er")[0]
        sf = table2_result.rows_for("scale_free")[0]
        assert abs(er.sw - 0.685) < 0.003
        assert abs(sf.sw - 0.627) < 0.003


class TestGroupIncomes:
    def test_between_home_production_and_output(self, baseline_eq):
        incomes = group_incomes(baseline_eq)
        assert len(incomes) == len(baseline_eq.groups)
        b, y = baseline_eq.params.b, baseline_eq.params.y
        for income in incomes:
            assert b <= income <= y
