"""Degree distributions, special functions, and the referral expectation.

The referral expectation has an independent oracle throughout: a
pmf-weighted truncated sum over the degree support, with pmfs taken from
scipy (Poisson) or computed directly from the normalized power law
(Zipf).  The zeta and polylog routines are checked against scipy and
mpmath.
"""

import dataclasses
import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta
from scipy.stats import poisson as scipy_poisson

from refmatch import Degenerate, Poisson, Zipf, degree, zipf_alpha_for_mean
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
        "s", [1.0005, 1.028, 1.3, 1.5, 2.0, 2.028, 2.3, 3.0, 4.0, 5.0, 10.0, 20.0, 40.0,
              64.0, 65.0, 1e103, 1e300]  # nan at 1e103 and up while s^3 overflowed
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
        # An int too large for a float passed the comparisons (OverflowError in the kernel).
        with pytest.raises(ValueError, match="Poisson mean degree must be positive and finite"):
            Poisson(10**400)
        with pytest.raises(ValueError, match="Zipf scale parameter must be finite"):
            Zipf(10**400)

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


class TestCachedZipfKernel:
    """Each Zipf law computes zeta(alpha) and its Wood table once; no value depends on them."""

    @pytest.mark.parametrize("alpha", [2.001, 2.028, 2.3, 3, 3.0, 5.0])
    def test_equals_uncached_formula(self, alpha):
        # 1e-17: 1 - P rounds to 1; 1e-9 and 1e-6: the series cap's tail term.
        grid = [1e-17, 1e-9, 1e-6, 1e-3, 0.048, 0.5, 0.9, 1.0 - 1e-12, 1.0]
        law = Zipf(alpha)
        for _ in range(2):  # the second pass reads the kept table
            for p_info in grid:
                assert law.referral_expectation(p_info) == Zipf(alpha).referral_expectation(p_info)

    @pytest.mark.parametrize("alpha", [2.028, 3, 5.0])
    def test_mean_equals_uncached_formula(self, alpha):
        law = Zipf(alpha)
        law.referral_expectation(0.1)
        for _ in range(2):
            assert law.mean() == zeta(alpha - 1.0) / zeta(alpha)

    def test_zeta_once_per_law(self, monkeypatch):
        calls = []
        original = degree.zeta

        def counting(s):
            calls.append(s)
            return original(s)

        monkeypatch.setattr(degree, "zeta", counting)
        law = Zipf(2.3)
        for p_info in [1e-17, 1.0, *np.geomspace(1e-4, 0.9, 98)]:
            law.referral_expectation(float(p_info))
        assert len(calls) <= 1

    def test_cache_leaves_identity_alone(self):
        law = Zipf(2.3)
        before = repr(law)
        law.referral_expectation(0.05)
        law.mean()
        fresh = Zipf(2.3)
        assert law == fresh and hash(law) == hash(fresh)
        assert repr(law) == before == "Zipf(alpha=2.3)"

    def test_replace_recomputes(self):
        law = Zipf(2.3)
        law.referral_expectation(0.05)
        law.mean()
        other = dataclasses.replace(law, alpha=3.0)
        assert other.alpha == 3.0
        assert other.referral_expectation(0.05) == Zipf(3.0).referral_expectation(0.05)
        assert other.referral_expectation(0.05) != law.referral_expectation(0.05)
        assert other.mean() == Zipf(3.0).mean()


# Scale parameters near the pole of each Wood term at alpha = 2 and 3, on
# either side of 2 + 1e-3 where an unmerged pole pair loses three digits,
# and away from integers.
_WOOD_ALPHAS = [2 + 1e-9, 2 + 1e-6, 2.0009, 2.0011, 2.01, 2.028, 2.5, 3 - 1e-7, 3, 3 + 2e-4, 4, 5,
                7.3]
# mu = -log1p(-P) crosses 1 between 0.63 and 0.64.
_WOOD_PS = [1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.02, 0.1, 0.3, 0.5, 0.63, 0.64, 0.9, 0.999]


def mp_gap(alpha, p_info: float):
    """zeta(alpha) - Li_alpha(e^-mu), mu = -log1p(-P), at 40 digits."""
    with mpmath.workdps(40):
        mu = -mpmath.log1p(-mpmath.mpf(p_info))
        return mpmath.zeta(alpha) - mpmath.polylog(alpha, mpmath.exp(-mu))


def mp_tail(alpha, p_info: float, big_k: int):
    """sum_{k>=K} e^(-mu k) k^-alpha, mu = -log1p(-P), at 40 digits."""
    with mpmath.workdps(40):
        mu = -mpmath.log1p(-mpmath.mpf(p_info))
        return mpmath.exp(-mu * big_k) * mpmath.lerchphi(mpmath.exp(-mu), alpha, big_k)


def former_stop(alpha, p_info: float, li: float) -> int:
    """The former series' stop K: the first 4,096-term block end whose geometric
    tail bound is below 1e-12 of Li, or 10^6 + 1."""
    x, k = 1.0 - p_info, 1
    while True:
        k = min(k + 4096, 10**6 + 1)
        if x**k / ((1.0 - x) * k**alpha) < 1e-12 * li or k > 10**6:
            return k


def series_referral(alpha, p_info: float) -> float:
    """1 - (Li_alpha - T) / zeta(alpha) at 40 digits, T the tail past the former series' stop:
    what the Zipf kernel returns, up to rounding, whatever a law has kept."""
    if p_info == 1.0:
        return 1.0
    with mpmath.workdps(40):
        zeta_a = mpmath.zeta(alpha)
        gap = mp_gap(alpha, p_info)
        big_k = former_stop(alpha, p_info, float(zeta_a - gap))
        return float((gap + mp_tail(alpha, p_info, big_k)) / zeta_a)


class TestWoodExpansion:
    """zeta(alpha) - Li_alpha(e^-mu) without cancellation, against 40-digit mpmath."""

    @pytest.mark.parametrize("alpha", _WOOD_ALPHAS)
    def test_gap_against_mpmath(self, alpha):
        table = degree._wood_table(alpha)
        for p_info in _WOOD_PS:
            mu = -math.log1p(-p_info)
            gap = (degree._wood(table, mu) if mu < 1.0
                   else zeta(alpha) - polylog(alpha, math.exp(-mu)))
            assert gap == pytest.approx(float(mp_gap(alpha, p_info)), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", _WOOD_ALPHAS)
    def test_polylog_against_mpmath(self, alpha):
        for p_info in _WOOD_PS:
            x = math.exp(math.log1p(-p_info))
            with mpmath.workdps(40):
                ref = float(mpmath.polylog(alpha, x))
            assert polylog(alpha, x) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_zeta_within_four_ulps(self):
        grid = [2 + d for d in (1e-9, 1e-7, 1e-5, 1e-3, 0.028)] + np.linspace(2.1, 20.0, 60).tolist()
        with mpmath.workdps(40):
            for s in grid:
                ref = float(mpmath.zeta(s))
                assert abs(zeta(s) - ref) <= 4 * math.ulp(ref), s


class TestCutTail:
    """The kernel adds back the tail T the former block series left off."""

    @pytest.mark.parametrize("alpha", [2.001, 2.028, 2.3, 3.0, 5.0])
    def test_kernel_against_mpmath(self, alpha):
        for p_info in [1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.02, 0.1, 0.5, 0.9, 1.0]:
            got = Zipf(alpha).referral_expectation(p_info)
            assert got == pytest.approx(series_referral(alpha, p_info), rel=1e-12, abs=0.0), p_info

    @pytest.mark.parametrize("alpha", [2.001, 2.028, 2.3, 3.0, 5.0])
    def test_nondecreasing(self, alpha):
        law = Zipf(alpha)
        values = [law.referral_expectation(p) for p in np.geomspace(1e-6, 0.5, 10**4).tolist()]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestSeriesTruncation:
    """Where the former series stopped: pinned, because T's stop K sets golden digits."""

    def test_blocks_summed_for_zipf_2_028(self):
        # The block-end rule (tail bound below 1e-12 of the sum, 10^6-term
        # cap) truncated the series for P below about 3e-3, so these counts
        # fix digits of perfbench/golden.  The kernel's T is the tail from
        # K = 1 + 4096 n on, n the block count, or 0 where even the first
        # block's bound is negligible (n = 1).  Deleting T (ROADMAP item 2's
        # regeneration) changes them on purpose.
        pinned = {1e-2: 1, 3e-3: 2, 1e-3: 4, 4.5e-4: 8, 1e-4: 31, 1e-5: 245}
        law, counts = Zipf(2.028), {}
        for p_info, n in pinned.items():
            x, mu = 1.0 - p_info, -math.log1p(-p_info)
            tail = law._cut_tail(2.028, x, mu, degree._wood(law._table, mu))
            misfit = {m: abs(math.log(tail / float(mp_tail(2.028, p_info, min(1 + 4096 * m, 10**6 + 1)))))
                      for m in (n - 1, n, n + 1) if tail and 1 <= m <= 245}
            counts[p_info] = min(misfit, key=misfit.get) if tail else 1
        assert counts == pinned


class TestMpmathTable:
    """The Zipf kernel against the stored 40-digit mpmath table, at the bounds degree.py states."""

    @pytest.fixture(scope="class")
    def errors(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles" / "zipf_mpmath.json"
        rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
        return [(r["p"], abs(Zipf(r["alpha"]).referral_expectation(r["p"]) / float(r["value"]) - 1.0))
                for r in rows]

    @pytest.mark.parametrize("p_min, bound", [(1e-3, 3e-10), (0.02, 1e-13)])
    def test_relative_error_bound(self, errors, p_min, bound):
        checked = [err for p, err in errors if p >= p_min]
        assert len(checked) >= 20 and max(checked) <= bound


class TestLaterBlockCache:
    """A Zipf law builds zeta(alpha) and its Wood table on first use; no value depends on them."""

    @pytest.mark.parametrize("alpha", [2.001, 2.028, 2.3, 3])
    def test_order_independent(self, alpha):
        grid = np.geomspace(1e-6, 0.5, 16)
        np.random.default_rng(7).shuffle(grid)
        law = Zipf(alpha)
        for p_info in map(float, grid):
            assert law.referral_expectation(p_info) == Zipf(alpha).referral_expectation(p_info)

    @pytest.mark.parametrize("alpha", [2.001, 2.028, 2.3, 3])
    def test_blocks_are_k_to_the_alpha_and_bounded(self, alpha):
        # What a law keeps after calls at and past the former 10^6-term
        # cap: zeta and a table of fixed size, whose coefficients are those
        # of Wood's expansion and of E_alpha's series.
        law = Zipf(alpha)
        law.referral_expectation(1e-8)
        law.referral_expectation(1e-10)
        assert sorted(law.__dict__) == ["_table", "_zeta", "alpha"] and law._zeta == zeta(alpha)
        j, eps, _, _, scale, a, b = law._table
        assert law._table == degree._wood_table(alpha)
        assert j == round(alpha) - 1 and eps == alpha - round(alpha) and len(a) == 24 and len(b) == 30
        with mpmath.workdps(40):
            assert scale == float(mpmath.mpf(-1) ** j / mpmath.factorial(j))
            assert a[-j] == b[-1 - j] == 0.0  # the pole terms, merged outside the table
            for k in set(range(1, 25)) - {j}:
                want = float((-1) ** (k + 1) * mpmath.zeta(alpha - k) / mpmath.factorial(k))
                # Where alpha - k < 1/2 the coefficient comes from the
                # reflection formula, up to 1.3e-12 relative from mpmath
                # near zeta's trivial zeros (alpha = 2.001); it is weighted
                # by mu^k < 1.
                assert a[-k] == pytest.approx(want, rel=1e-11, abs=0.0), k
            for i in set(range(30)) - {j}:
                want = float(mpmath.mpf(-1) ** i / (mpmath.factorial(i) * (alpha - i - 1)))
                assert b[-1 - i] == pytest.approx(want, rel=1e-15, abs=0.0), i

    def test_threads_sharing_a_law_get_the_single_thread_values(self):
        # Four threads ask one fresh law for the same P in different
        # orders, switching every microsecond, so they race to build its
        # zeta and table.
        grid = [float(p) for p in np.geomspace(1e-6, 1e-3, 12)]
        expected = [Zipf(2.028).referral_expectation(p) for p in grid]

        def wrong_values(law, seed):
            order = np.random.default_rng(seed).permutation(len(grid))
            return sum(law.referral_expectation(grid[j]) != expected[j] for j in order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                for _ in range(5):
                    law = Zipf(2.028)
                    futures = [pool.submit(wrong_values, law, seed) for seed in range(4)]
                    assert [f.result() for f in futures] == [0, 0, 0, 0]
        finally:
            sys.setswitchinterval(interval)



class TestReachMemo:
    """A Zipf law keeps nothing per P: a repeat, or a P asked before, is computed again to the same value."""

    @pytest.mark.parametrize("alpha", [2.001, 2.028, 2.3, 3])
    def test_repeats_equal_the_series(self, alpha):
        grid = np.geomspace(1e-6, 0.5, 16)
        np.random.default_rng(11).shuffle(grid)
        expected = {p_info: Zipf(alpha).referral_expectation(p_info) for p_info in map(float, grid)}
        for p_info, value in expected.items():
            assert value == pytest.approx(series_referral(alpha, p_info), rel=1e-12, abs=0.0)
        law = Zipf(alpha)
        for _ in range(3):  # each pass computes every value again
            for p_info, value in expected.items():
                assert law.referral_expectation(p_info) == value
                assert sorted(law.__dict__) == ["_table", "_zeta", "alpha"]

    def test_repeat_of_the_last_x_sums_no_series(self, monkeypatch):
        # Five calls at one P build the table once, and return one value.
        want = Zipf(2.028).referral_expectation(1e-4)
        built, build = [], degree._wood_table
        monkeypatch.setattr(degree, "_wood_table", lambda alpha: built.append(alpha) or build(alpha))
        law = Zipf(2.028)
        assert [law.referral_expectation(1e-4) for _ in range(5)] == [want] * 5
        assert built == [2.028]

    def test_a_b_a_recomputes_a(self):
        law = Zipf(2.028)
        got = [law.referral_expectation(p) for p in (1e-4, 0.02, 1e-4)]
        assert got == [Zipf(2.028).referral_expectation(p) for p in (1e-4, 0.02, 1e-4)]
        assert got[0] == got[2]
        for p_info, value in zip((1e-4, 0.02), got):
            assert value == pytest.approx(series_referral(2.028, p_info), rel=1e-12, abs=0.0)

    def test_ends_of_the_range_are_not_kept(self, monkeypatch):
        built, build = [], degree._wood_table
        monkeypatch.setattr(degree, "_wood_table", lambda alpha: built.append(alpha) or build(alpha))
        law = Zipf(2.3)
        assert [law.referral_expectation(p) for p in (0.0, 1e-17, 1.0)] == [0.0, 0.0, 1.0]
        assert built == [] and sorted(law.__dict__) == ["alpha"]  # the ends build nothing

    def test_bounded(self):
        law = Zipf(3)
        grid = [*np.geomspace(1e-9, 0.6, 2000).tolist(), 0.8]
        for p_info in grid:
            law.referral_expectation(p_info)
        assert sorted(law.__dict__) == ["_table", "_zeta", "alpha"]  # the same, however many P
        j, eps, _, _, _, coefficients, e_coefficients = law._table
        assert (j, eps) == (2, 0.0) and len(coefficients) == 24 and len(e_coefficients) == 30
        assert law.referral_expectation(grid[-2]) == Zipf(3).referral_expectation(grid[-2])


# Degree parameters a law may be given: near and at its lower bound, huge
# floats and ints, ints too large for a float, and anything else.
_HUGE = (1e300, sys.float_info.max, 2**1023, 10**308, 10**400)
_LAW_PARAMS = {
    Poisson: st.one_of(st.sampled_from([5e-324, 1e-300, 1.0, 22.47, *_HUGE]), st.floats(),
                       st.integers(-10, 10**400)),
    Degenerate: st.one_of(st.sampled_from([0, 1, 16, 2.5, *_HUGE]), st.floats(),
                          st.integers(-10, 10**400)),
    Zipf: st.one_of(st.sampled_from([2.0, float(np.nextafter(2.0, 3.0)), 2.001, 2.028, 64.0,
                                     85.0, 100.0, *_HUGE]),
                    st.floats(), st.floats(2.0, 2.1), st.integers(-10, 10**400)),
}


class TestLawFuzz:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data(), law=st.sampled_from(list(_LAW_PARAMS)))
    def test_accepted_laws_give_probabilities(self, data, law):
        # A law either refuses its parameter with ValueError or returns a
        # probability at every P, with no warning.
        param = data.draw(_LAW_PARAMS[law])
        try:
            dist = law(param)
        except ValueError:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p_info in (0.0, 5e-324, 1e-3, 0.5, 1.0):
                value = dist.referral_expectation(p_info)
                assert math.isfinite(value) and 0.0 <= value <= 1.0, (dist, p_info, value)


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

    @pytest.mark.parametrize("target", [1e4, 1e5, 5e5])
    def test_means_near_alpha_2_resolve(self, target):
        # Here adjacent doubles of alpha move the mean by more than 5e-9, so
        # the fit returns the double whose mean is nearest the target.
        alpha = zipf_alpha_for_mean(target)
        error = abs(Zipf(alpha).mean() - target)
        assert error < 3e-10 * target
        for neighbour in (np.nextafter(alpha, 2.0), np.nextafter(alpha, 3.0)):
            assert abs(Zipf(float(neighbour)).mean() - target) >= error

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

    @pytest.mark.parametrize("alpha", [2.028, 2.3, 5.0])
    def test_zipf_sample_has_the_zipf_law(self, alpha):
        # Each degree k expected at least 5 times in the draws is seen
        # within 5 se of draws * k^-alpha / zeta(alpha) times, and the
        # degrees past the last such k as often as their pooled mass.
        draws, norm = 200_000, zeta(alpha)
        last = int((draws / (5.0 * norm)) ** (1.0 / alpha))  # draws * last^-alpha / zeta >= 5
        degrees = Zipf(alpha).sample(np.random.default_rng(11), draws)
        seen = np.bincount(np.minimum(degrees, last + 1), minlength=last + 2)
        pmf = [k**-alpha / norm for k in range(1, last + 1)]
        cells = [*zip(seen[1:last + 1], pmf), (seen[last + 1], 1.0 - math.fsum(pmf))]
        assert seen[0] == 0 and last >= 5
        for count, p in cells:
            assert abs(count - draws * p) < 5.0 * math.sqrt(draws * p * (1.0 - p)), (count, p)

    def test_zipf_sample_past_overflow_is_all_ones(self):
        # From alpha = 1025 on, 2^(alpha - 1) overflows and P(d > 1) < 3e-309.
        for alpha in (1025.0, 1e6):
            draws = Zipf(alpha).sample(np.random.default_rng(0), 100)
            assert draws.dtype == np.int64 and np.all(draws == 1)
        assert Zipf(2.3).sample(np.random.default_rng(0), 0).size == 0
