"""Degree distributions, special functions, and the referral expectation.

The referral expectation has an independent oracle throughout: a
pmf-weighted truncated sum over the degree support, with pmfs taken from
scipy (Poisson) or computed directly from the normalized power law
(Zipf).  The zeta and polylog routines are checked against scipy and
mpmath.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta
from scipy.stats import poisson as scipy_poisson

from refmatch import Degenerate, Poisson, Zipf, zipf_alpha_for_mean
from refmatch.degree import as_count, polylog, zeta


def brute_force_referral(dist, p_info: float) -> float:
    """Truncated pmf-weighted sum of 1 - (1 - P)^n, independent of the PGF path.

    For Zipf the tail beyond the truncation point is added as pure mass
    (there 1 - (1-P)^n is 1 up to (1-P)^N < 1e-12), so the truncation
    error is below 1e-12 for every P on the test grids.
    """
    if p_info == 0.0:
        return 0.0
    q = 1.0 - p_info
    if isinstance(dist, Poisson):
        n = np.arange(0, 501)
        return float(np.sum((1.0 - q**n) * scipy_poisson.pmf(n, dist.lam)))
    if isinstance(dist, Degenerate):
        return 1.0 - q**dist.k
    cutoff = 2000 if q == 0.0 else max(2000, int(math.log(1e-12) / math.log(q)) + 1)
    n = np.arange(1, cutoff + 1, dtype=np.float64)
    pmf = n ** (-dist.alpha) / scipy_zeta(dist.alpha)
    head = float(np.sum((1.0 - q**n) * pmf))
    tail_mass = 1.0 - float(np.sum(pmf))
    return head + tail_mass


class TestZeta:
    def test_known_constant(self):
        assert zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)

    @pytest.mark.parametrize(
        "s", [1.0005, 1.028, 1.3, 1.5, 2.0, 2.028, 2.3, 3.0, 4.0, 5.0, 10.0, 20.0, 40.0]
    )
    def test_against_scipy(self, s):
        assert zeta(s) == pytest.approx(float(scipy_zeta(s)), rel=1e-10)

    def test_spot_values(self):
        # mpmath references at 30 digits
        assert zeta(1.028) == pytest.approx(36.2935364167835, rel=1e-12)
        assert zeta(2.3) == pytest.approx(1.43241779931532, rel=1e-12)

    @pytest.mark.parametrize("s", [1.0, 0.5, 0.0, -2.0])
    def test_domain(self, s):
        with pytest.raises(ValueError):
            zeta(s)


class TestPolylog:
    def test_empty_series(self):
        assert polylog(2.3, 0.0) == 0.0

    def test_at_one_equals_zeta(self):
        assert polylog(3.0, 1.0) == pytest.approx(zeta(3.0), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.5, 2.028, 2.3, 3.0, 5.0])
    @pytest.mark.parametrize("x", [0.01, 0.1, 0.5, 0.9, 0.99, 0.999])
    def test_against_mpmath(self, alpha, x):
        ref = float(mpmath.polylog(alpha, x))
        assert polylog(alpha, x) == pytest.approx(ref, rel=1e-10)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 50)
        vals = [polylog(2.3, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            polylog(1.0, 0.5)
        with pytest.raises(ValueError):
            polylog(2.3, -0.1)
        with pytest.raises(ValueError):
            polylog(2.3, 1.1)


class TestConstruction:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Poisson(0.0)
        with pytest.raises(ValueError):
            Poisson(-1.0)
        with pytest.raises(ValueError):
            Degenerate(-1)
        with pytest.raises(ValueError):
            Zipf(2.0)  # infinite mean
        with pytest.raises(ValueError):
            Zipf(1.5)
        with pytest.raises(ValueError, match="finite"):
            Poisson(math.inf)
        with pytest.raises(ValueError, match="finite"):
            Zipf(math.inf)

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 2.5, -1, "3", None])
    def test_count_rule(self, value):
        with pytest.raises(ValueError, match="k must be an integer >= 0"):
            Degenerate(value)
        with pytest.raises(ValueError, match="d_f must be an integer >= 0"):
            as_count(value, "d_f")

    def test_integral_floats_become_ints(self):
        assert as_count(16.0, "d_f") == 16 and type(as_count(16.0, "d_f")) is int
        assert Degenerate(22.0).k == 22 and type(Degenerate(22.0).k) is int

    def test_degenerate_zero_allowed(self):
        dist = Degenerate(0)
        assert dist.mean() == 0.0
        for p_info in (1e-12, 0.7, 1.0):
            # +0.0, not -0.0, so printed rates never read "-0"
            assert math.copysign(1.0, dist.referral_expectation(p_info)) == 1.0
            assert dist.referral_expectation(p_info) == 0.0


class TestMean:
    def test_poisson(self):
        assert Poisson(22.47).mean() == 22.47

    def test_degenerate(self):
        assert Degenerate(16).mean() == 16.0

    # Published pairings of scale parameter and expected degree round to
    # these values; exact ratios computed at 30 digits are asserted too.
    @pytest.mark.parametrize(
        "alpha, published, exact",
        [(3.0, 1.37, 1.36843277762), (5.0, 1.04, 1.04377882484), (2.3, 2.74, 2.74497371765)],
    )
    def test_zipf_published_pairings(self, alpha, published, exact):
        mean = Zipf(alpha).mean()
        assert mean == pytest.approx(exact, rel=1e-10)
        assert abs(mean - published) <= 0.005


class TestReferralExpectation:
    @pytest.mark.parametrize("dist", [Poisson(22.47), Degenerate(16), Zipf(2.3)])
    def test_zero_information(self, dist):
        assert dist.referral_expectation(0.0) == 0.0

    def test_degenerate_two_half(self):
        assert Degenerate(2).referral_expectation(0.5) == pytest.approx(0.75, abs=1e-15)

    def test_zipf_no_isolated_workers(self):
        # no mass at degree zero, so P = 1 guarantees a referral
        assert Zipf(2.3).referral_expectation(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_poisson_against_pmf_sum(self):
        # oracle: pmf-weighted sum truncated at n = 500
        val = Poisson(22.47).referral_expectation(0.022064)
        assert val == pytest.approx(0.3909032031633885, abs=1e-8)
        assert val == pytest.approx(brute_force_referral(Poisson(22.47), 0.022064), abs=1e-10)

    @pytest.mark.parametrize(
        "dist",
        [Poisson(22.47), Poisson(3.0), Zipf(2.028), Zipf(2.3), Zipf(5.0)],
        ids=["poisson22", "poisson3", "zipf2.028", "zipf2.3", "zipf5"],
    )
    @pytest.mark.parametrize("p_info", [0.01, 0.1, 0.5, 0.9])
    def test_brute_force_agreement(self, dist, p_info):
        assert dist.referral_expectation(p_info) == pytest.approx(
            brute_force_referral(dist, p_info), abs=1e-8
        )

    @pytest.mark.parametrize("dist", [Poisson(8.0), Degenerate(5), Zipf(2.3)])
    def test_monotone_in_information(self, dist):
        grid = np.linspace(0.0, 1.0, 41)
        vals = [dist.referral_expectation(float(p)) for p in grid]
        assert vals[0] == 0.0
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("dist", [Poisson(8.0), Degenerate(5), Zipf(2.3), Zipf(2.028)])
    def test_union_bound(self, dist):
        rng = np.random.default_rng(7)
        mean = dist.mean()
        for p in rng.uniform(0.0, 1.0, size=40):
            val = dist.referral_expectation(float(p))
            assert val <= min(1.0, mean * p) + 1e-12

    def test_stochastic_dominance_degenerate(self):
        for p in (0.05, 0.3, 0.8):
            low = Degenerate(3).referral_expectation(p)
            high = Degenerate(9).referral_expectation(p)
            assert low <= high

    @pytest.mark.parametrize(
        "dist", [Poisson(22.47), Poisson(0.5), Degenerate(16), Degenerate(1)],
        ids=["poisson22.47", "poisson0.5", "regular16", "regular1"],
    )
    @pytest.mark.parametrize("p_info", [1e-12, 1e-8, 3e-5, 0.022064, 0.5, 1.0 - 1e-9, 1.0])
    def test_no_cancellation_at_small_information(self, dist, p_info):
        # mpmath at 40 digits of 1 - exp(-lam P) and 1 - (1 - P)^k
        with mpmath.workdps(40):
            p = mpmath.mpf(p_info)
            if isinstance(dist, Poisson):
                ref = -mpmath.expm1(-mpmath.mpf(dist.lam) * p)
            else:
                ref = 1 - (1 - p) ** dist.k
        assert dist.referral_expectation(p_info) == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    def test_information_probability_domain(self):
        with pytest.raises(ValueError):
            Poisson(5.0).referral_expectation(-0.1)
        with pytest.raises(ValueError):
            Poisson(5.0).referral_expectation(1.0001)


class TestZipfAlphaForMean:
    @pytest.mark.parametrize("target", [1.05, 1.5, 2.0, 5.0, 12.86, 22.47, 30.0])
    def test_round_trip(self, target):
        alpha = zipf_alpha_for_mean(target)
        assert alpha > 2.0
        assert Zipf(alpha).mean() == pytest.approx(target, abs=1e-8)

    def test_published_pairings(self):
        assert zipf_alpha_for_mean(22.47) == pytest.approx(2.027924302, abs=1e-6)
        assert abs(zipf_alpha_for_mean(22.47) - 2.028) < 0.001
        assert zipf_alpha_for_mean(12.86) == pytest.approx(2.04999843, abs=1e-6)
        assert abs(zipf_alpha_for_mean(12.86) - 2.05) < 0.001
        # The published table pairs mean 1.95 with alpha 2.5, but 1.95 is a
        # 3-digit rounding of the exact mean at 2.5 (1.947372...); inverting
        # the rounded value lands 0.0011 away from 2.5.
        assert zipf_alpha_for_mean(1.95) == pytest.approx(2.498893368, abs=1e-6)
        assert abs(zipf_alpha_for_mean(1.95) - 2.5) < 0.0015

    def test_near_one_targets_resolve(self):
        # the bracket reaches alpha = 50, so means barely above 1 still invert
        alpha = zipf_alpha_for_mean(1.0000001)
        assert Zipf(alpha).mean() == pytest.approx(1.0000001, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            zipf_alpha_for_mean(1.0)
        with pytest.raises(ValueError):
            zipf_alpha_for_mean(0.5)


class TestSampling:
    def test_sample_types_and_support(self):
        rng = np.random.default_rng(0)
        for dist, check in [
            (Poisson(5.0), lambda d: np.all(d >= 0)),
            (Degenerate(4), lambda d: np.all(d == 4)),
            (Zipf(2.5), lambda d: np.all(d >= 1)),
        ]:
            draws = dist.sample(rng, 1000)
            assert draws.dtype == np.int64
            assert check(draws)

    def test_pmf_sums_to_one(self):
        n = np.arange(0, 400)
        assert float(np.sum(Poisson(8.0).pmf(n))) == pytest.approx(1.0, abs=1e-10)
        assert float(np.sum(Degenerate(7).pmf(n))) == 1.0
        # Zipf pmf over a long truncation plus the analytic tail
        k = np.arange(1, 200_000)
        head = float(np.sum(Zipf(3.0).pmf(k)))
        assert head == pytest.approx(1.0, abs=1e-7)
