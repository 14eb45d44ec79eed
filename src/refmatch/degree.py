"""Social-network degree distributions and their generating functions.

Three degree laws cover the network structures compared by the model:
Poisson (the large-size limit of an Erdos-Renyi graph), Degenerate (a
random regular graph, every worker has exactly k contacts), and Zipf
(a scale-free graph whose tail fattens as the scale parameter falls
toward 2).

The quantity the labor-market model needs from a distribution is the
referral success probability E[1 - (1 - P)^d] for a contact-information
probability P.  Poisson and Degenerate write it without cancellation at
small P, as -expm1(-lam P) and -expm1(k log1p(-P)), exact to 1e-13.  The
Zipf law's is (zeta(a) - Li_a(x)) / zeta(a) at x = 1 - P, with the
polylogarithm and the Riemann zeta function implemented here as plain
float routines with no external special-function dependency.  zeta is
one Euler-Maclaurin sum (9 terms, the integral tail and 8 Bernoulli
corrections), with the reflection formula below s = 1/2; it is within 4
ulps of mpmath on (2, 20].

For mu = -log1p(-P) < 1 the difference zeta(a) - Li_a(e^-mu) comes from
Wood's expansion (D. C. Wood 1992, *The computation of polylogarithms*,
section 3), -Gamma(1-a) mu^(a-1) - sum_{k>=1} zeta(a-k) (-mu)^k / k!,
which has no cancellation: its terms carry mu, and its first 24 powers
are summed by Horner from a per-law table of zeta(a-k) / k!.  The Gamma
term and the term k = j = m - 1, m the integer nearest a = m + eps,
each have a pole at eps = 0; their sum is (-1)^m mu^j / j! times
expm1(eps (c1 + log mu)) / eps - (zeta(1 + eps) - 1 / eps), where c1
comes from a Taylor series of log Gamma(2 - eps), so no a, integer or
not, loses digits to the pole.  For mu >= 1 the kernel sums the series
in e^-mu, and above a = 24.5 the sum of (1 - x^k) k^-a directly.
Against 40-digit mpmath, zeta(a) - Li_a(e^-mu) is within 1e-13
relative error from P = 1e-12 to 0.999 (tests/test_degree.py).  A law
keeps zeta(a) and one table (24 coefficients of that sum, 30 of the
exponential integral's series below, and 4 constants), built on its
first call; nothing else, and nothing at module level.

The kernel used to sum the series in x itself, in 4,096-term blocks,
stopped at the first block end K whose bound x^K / ((1-x) K^a) fell
below 1e-12 of the sum, or at K = 10^6 + 1, and the printed golden
digits rest on that cut-off.  So the kernel adds back T, the tail
sum_{k>=K} e^(-mu k) k^-a that series left off, and returns (zeta(a) -
Li_a + T) / zeta(a): that series' values up to rounding, for every P.  T is
at most the bound at K, so below 1e-12 Li where the series stopped by
its rule; at the cap it is K^(1-a) / (a - 1) or less, which for P below
about 1e-6 outweighs the exact value (4.1 times it at P = 1e-8 for
a = 2.028).  It is computed in closed form, as K^(1-a) E_a(mu K) (a
continued fraction, or E_a's series with the pole terms merged as above)
plus two Euler-Maclaurin terms, in ``Zipf._cut_tail``; ROADMAP item 2's
golden regeneration deletes that method, its call and the block
constants, and with them the one golden digit it keeps (phi_sweep.csv,
phi = 0.001, group 2, P_i ...285 becomes ...284).

:func:`as_count` is the package's one check of a non-negative integer
count (a regular degree, a job-network degree), and :func:`is_finite`
its one test that a number is finite (an int too large for a float is
not).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["DegreeDistribution", "Poisson", "Degenerate", "Zipf", "as_count", "is_finite", "zeta",
           "polylog", "zipf_alpha_for_mean"]

# Euler-Maclaurin zeta: n^-s summed for n < 10, then the integral tail
# and 8 correction terms, whose B_2i / (2i)! these are.
_EM_B = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000,
         1 / 74724249600, -3617 / 10670622842880000)
# Wood's expansion in mu = -log x is used for mu < 1, over its first
# _WOOD_TERMS powers, and for alpha below _WOOD_TERMS + 1/2, where the
# pole it merges lies inside that range; above it the direct sum of
# (1 - x^k) k^-alpha needs a handful of terms.
_WOOD_TERMS = 24
# The series the kernel used to sum: 4,096-term blocks, stopped at the
# first block end K whose tail bound is below 1e-12 of the sum, or at
# K = 10^6 + 1.
_BLOCK = 4096
_CAP = 10.0**6 + 1.0
# Zipf draws per sampler round: its float temporaries stay in the cache
# and off the heap's high-water mark.
_SAMPLE_BLOCK = 1 << 16


def as_count(value, name: str) -> int:
    """``value`` as an int; ValueError unless it is an integer >= 0 that a float can hold."""
    try:
        count = int(value)
        valid = count == value and count >= 0 and math.isfinite(count)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ValueError(f"{name} must be an integer >= 0 that a float can hold, got {value!r}")
    return count


def is_finite(value) -> bool:
    """math.isfinite(value), but False for an int too large for a float instead of OverflowError."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1, within a few ulps (see :func:`_zeta`)."""
    if not (s := float(s)) > 1.0:
        raise ValueError(f"zeta requires s > 1, got {s}")
    return _zeta(s)


def _zeta(s: float) -> float:
    """Riemann zeta at a real s != 1: Euler-Maclaurin from s = 1/2 up, reflection below."""
    if s == 0.0:  # reflection would take zeta at its pole
        return -0.5
    if s < 0.5:
        q = round(0.5 * s)  # sin(pi s / 2) from the exact remainder s / 2 - q
        return (2.0 * (2.0 * math.pi) ** (s - 1.0) * (-1) ** q * math.sin(math.pi * (0.5 * s - q))
                * math.gamma(1.0 - s) * _zeta(1.0 - s))
    # Above s = 64 every term after the first is below 2^-64.
    return 1.0 if s > 64.0 else 1.0 + (_em(s) + 10.0 ** (1.0 - s) / (s - 1.0))


def _em(s: float) -> float:
    """zeta(s) - 1 - 10^(1-s) / (s-1) for s >= 1/2: sum_{1<n<10} n^-s + 10^-s (1/2 + corrections)."""
    acc = _EM_B[7]
    for i in (6, 5, 4, 3, 2, 1, 0):
        acc = _EM_B[i] + (s + (2 * i + 1)) * (s + (2 * i + 2)) * 0.01 * acc
    head = 9.0**-s + 8.0**-s + 7.0**-s + 6.0**-s + 5.0**-s + 4.0**-s + 3.0**-s + 2.0**-s
    return head + 10.0**-s * (0.5 + 0.1 * s * acc)


# (zeta(n) - 1) / n for n = 2 .. 32: the Taylor coefficients of log Gamma(2 - eps).
_ZETA_N = tuple((_em(n) + 10.0 ** (1 - n) / (n - 1)) / n for n in range(2, 33))


def polylog(alpha: float, x: float) -> float:
    """Polylogarithm Li_alpha(x) = sum_{k>=1} x^k / k^alpha for x in [0, 1].

    zeta(alpha) less Wood's expansion for -log x < 1, else the series;
    at x = 1 the value is zeta(alpha).
    """
    alpha, x = float(alpha), float(x)
    if not alpha > 1.0:
        raise ValueError(f"polylog requires alpha > 1, got {alpha}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"polylog requires 0 <= x <= 1, got {x}")
    if x == 1.0:
        return zeta(alpha)
    if (mu := -math.log(x) if x else math.inf) >= 1.0 or alpha > _WOOD_TERMS + 0.5:
        return _direct(alpha, mu, math.exp)
    return _zeta(alpha) - _wood(_wood_table(alpha), mu)


def _direct(alpha: float, mu: float, term) -> float:
    """sum_k term(-mu k) k^-alpha, until a term is below 2^-60 of the sum."""
    total = 0.0
    for k in itertools.count(1):
        total += (t := term(-mu * k) * k**-alpha)
        if abs(t) <= 2.0**-60 * abs(total):
            return total


def _wood_table(alpha: float) -> tuple:
    """(j, eps, c1, g, (-1)^j / j!, a, b): the constants of Wood's expansion at alpha.

    alpha = m + eps with m = j + 1 the integer nearest alpha (at least 2);
    a holds a_k = (-1)^(k+1) zeta(alpha - k) / k! for k = 24 down to 1,
    0 at k = j; c1 = (log Gamma(1 - eps) - sum_{i<m} log1p(eps / i)) / eps
    from the Taylor series of log Gamma(2 - eps); g = zeta(1 + eps) - 1 / eps.
    b holds the same expansion's coefficients for the exponential integral
    E_alpha (zeta(s) replaced by its pole part 1 / (s - 1)),
    (-1)^i / (i! (alpha - i - 1)) for i = 29 down to 0, 0 at i = j.
    """
    m = max(2, round(alpha))
    j, eps = m - 1, alpha - m
    taylor = sum(coef * eps**n for n, coef in enumerate(_ZETA_N))
    logs = math.log1p(-eps * eps) + sum(math.log1p(eps / i) for i in range(2, m))
    # -0.4227... is Euler's gamma - 1 = -digamma(2), c1 at eps = 0 and m = 2.
    c1 = taylor * eps - 0.42278433509846713 - (logs / eps if eps else sum(1 / i for i in range(2, m)))
    g = 1.0 + _em(1.0 + eps) + (math.expm1(-eps * math.log(10.0)) / eps if eps else -math.log(10.0))
    a = [0.0 if k == j else (-1) ** (k + 1) * _zeta(alpha - k) / math.factorial(k)
         for k in range(1, m + 1)]
    # Above m, zeta(alpha - k) by reflection: 2 (2 pi)^(alpha-k-1) sin(pi (alpha-k) / 2)
    # Gamma(k+1-alpha) zeta(k+1-alpha), its factors but the last carried from k to k + 1.
    trig = (math.sin(th := 0.5 * math.pi * eps), math.cos(th), -math.sin(th), -math.cos(th))
    scale = 2.0 * (2.0 * math.pi) ** (eps - 2.0) * math.gamma(2.0 - eps) / math.factorial(m + 1)
    for k in range(m + 1, _WOOD_TERMS + 1):
        a.append((-1) ** (k + 1) * scale * trig[(m - k) % 4] * _zeta(k + 1.0 - alpha))
        scale *= (k + 1.0 - alpha) / ((k + 1) * 2.0 * math.pi)
    b = [0.0 if i == j else (-1) ** i / (math.factorial(i) * (alpha - i - 1.0)) for i in range(30)]
    return j, eps, c1, g, (-1) ** j / math.factorial(j), tuple(reversed(a)), tuple(reversed(b))


def _pole(eps: float, c1: float, log_t: float) -> float:
    """expm1(eps (c1 + log t)) / eps, its limit c1 + log t at eps = 0."""
    return math.expm1(eps * (c1 + log_t)) / eps if eps else c1 + log_t


def _wood(table: tuple, mu: float) -> float:
    """zeta(alpha) - Li_alpha(e^-mu) for 0 < mu < 1 by Wood's expansion, pole terms merged.

    Terms beyond mu^n, with n set so that (mu / 2 pi)^n < 1e-17, are left out.
    """
    j, eps, c1, g, scale, a, _ = table
    log_mu = math.log(mu)
    poly = 0.0
    for coef in a[max(0, _WOOD_TERMS - 2 - int(39.0 / (1.84 - log_mu))):]:
        poly = poly * mu + coef
    return poly * mu + scale * mu**j * (_pole(eps, c1, log_mu) - g)


class DegreeDistribution:
    """Degree law of one group's social network."""

    def mean(self) -> float:
        """Expected number of contacts E[d]."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw i.i.d. degrees for network construction."""
        raise NotImplementedError

    def referral_expectation(self, p_info: float) -> float:
        """E[1 - (1 - P)^d]: chance at least one contact holds vacancy info.

        ``p_info`` is the marginal probability P that a single contact is
        informed; the result is the referral arrival probability for a
        worker whose degree follows this distribution.
        """
        p_info = float(p_info)
        if not 0.0 <= p_info <= 1.0:
            raise ValueError(f"information probability must lie in [0, 1], got {p_info}")
        if p_info == 0.0:
            return 0.0
        return self._reach(p_info)

    def _reach(self, p_info: float) -> float:
        """E[1 - (1 - P)^d] for a float P in (0, 1], unchecked.

        A law implements this rather than ``referral_expectation``: the
        solver's inner loops call it directly on P they have shown to lie
        in [0, 1) (see :mod:`refmatch.solver`).  The laws here also return
        +0.0 at P = 0.0, which an underflowing P can reach.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Poisson(DegreeDistribution):
    """Poisson(lam) degrees: Erdos-Renyi network in the large-size limit."""

    lam: float

    def __post_init__(self):
        if not (self.lam > 0.0 and is_finite(self.lam)):
            raise ValueError(f"Poisson mean degree must be positive and finite, got {self.lam}")

    def mean(self) -> float:
        return self.lam

    def _reach(self, p_info: float) -> float:
        return -math.expm1(-self.lam * p_info)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.poisson(self.lam, size).astype(np.int64, copy=False)


@dataclass(frozen=True)
class Degenerate(DegreeDistribution):
    """Every worker has exactly k contacts: a random regular network."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", as_count(self.k, "regular-network degree k"))

    def mean(self) -> float:
        return float(self.k)

    def _reach(self, p_info: float) -> float:
        # log1p(-1) is a domain error, and k = 0 would return -0.0.
        if self.k == 0 or p_info == 1.0:
            return float(self.k > 0)
        return -math.expm1(self.k * math.log1p(-p_info))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.k, dtype=np.int64)


@dataclass(frozen=True)
class Zipf(DegreeDistribution):
    """Zipf (zeta) degrees with pmf k^(-alpha)/zeta(alpha) on k >= 1.

    Models a scale-free network; alpha must exceed 2 so the mean degree
    zeta(alpha-1)/zeta(alpha) is finite.  There is no mass at degree 0.
    """

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 2.0 and is_finite(self.alpha)):
            raise ValueError(f"Zipf scale parameter must be finite and exceed 2, got {self.alpha}")

    @cached_property
    def _zeta(self) -> float:
        return zeta(self.alpha)

    @cached_property
    def _table(self) -> tuple:
        return _wood_table(float(self.alpha))

    def mean(self) -> float:
        return zeta(self.alpha - 1.0) / self._zeta

    def _reach(self, p_info: float) -> float:
        # (zeta(a) - Li_a(x)) / zeta(a) at x = 1 - P: 0 at x = 1, 1 at x = 0.
        x = 1.0 - p_info
        if x == 1.0 or x == 0.0:
            return float(x == 0.0)
        alpha, mu = float(self.alpha), -math.log1p(-p_info)
        if alpha > _WOOD_TERMS + 0.5:
            return -_direct(alpha, mu, math.expm1) / self._zeta
        if mu >= 1.0:
            return 1.0 - _direct(alpha, mu, math.exp) / self._zeta
        d = _wood(self._table, mu)
        return (d + self._cut_tail(alpha, x, mu, d)) / self._zeta

    def _cut_tail(self, alpha: float, x: float, mu: float, d: float) -> float:
        """T = sum_{k>=K} e^(-mu k) k^-alpha, the tail the former block series left off.

        K is that series' stop: the first 4,096-term block end whose bound
        x^K / ((1-x) K^alpha) is below 1e-12 of Li = zeta - ``d``, or
        10^6 + 1.  T is K^(1-alpha) E_alpha(mu K), the integral of the
        terms from K on, plus two Euler-Maclaurin terms, each part to the
        relative error that leaves ``d`` + T within an ulp.  0 where the
        first block's bound, which bounds T, is below 2^-60 ``d``.
        """
        p = 1.0 - x
        if x ** (_BLOCK + 1) < 2.0**-60 * d * p * (_BLOCK + 1.0) ** alpha:
            return 0.0
        # The stop K is where k log x - alpha log k, the log of the bound less
        # log(1 - x), falls below rhs: Newton from below to within 1,024,
        # then the first block end past it.
        lx, rhs = math.log(x), math.log(1e-12 * (self._zeta - d) * p)
        k = max(_BLOCK + 1.0, (rhs + alpha * math.log(rhs / lx)) / lx)
        while k < _CAP and (step := (k * lx - alpha * math.log(k) - rhs) / (alpha / k - lx)) > 1024:
            k += step
        k = 1.0 + _BLOCK * max(1, math.ceil((k - 1.0) / _BLOCK))
        k = min(_CAP, k + _BLOCK * (k * lx - alpha * math.log(k) >= rhs))
        # T's terms to -log of the relative error that T's share of d allows.
        z, digits = mu * k, min(36.8, -math.log(2.0**-56 * d * p * k**alpha * x**-k))
        if z < 2.0:  # E_alpha's series, its pole terms merged as in Wood's expansion
            j, eps, c1, _, scale, _, b = self._table
            e = 0.0
            for coef in b[max(0, 27 - int(digits / -math.log(min(z, 0.5)))):]:
                e = e * z + coef
            e -= scale * z**j * _pole(eps, c1, math.log(z))
        else:  # E_alpha's continued fraction, its first levels from the bottom up
            e = 0.0
            for i in range(2 + int(digits * (0.25 + 2.5 / z)), 0, -1):
                e = i * (alpha - 1.0 + i) / (z + alpha + 2 * i - e)
            e = math.exp(-z) / (z + alpha - e)
        return k ** (1.0 - alpha) * e + math.exp(-z) * k**-alpha * (0.5 + (mu + alpha / k) / 12.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Devroye's rejection sampler (1986, section X.6), the one ``rng.zipf`` runs, on arrays.

        X = floor(U^(-1/(alpha-1))), U uniform on (0, 1], is kept where
        V X (T - 1) / (b - 1) <= T / b, with V uniform on [0, 1),
        T = (1 + 1/X)^(alpha-1) and b = 2^(alpha-1).  Each round draws U for
        the degrees still missing, at most _SAMPLE_BLOCK of them, then V, and
        keeps the X it accepts, in order.  U is at least 2^-53, so X is at
        most 2^53 (alpha > 2), as in ``rng.zipf``; from alpha = 1025 on,
        where b overflows, every degree is 1, as there (P(X > 1) < 3e-309).
        """
        degrees, done = np.ones(size, np.int64), 0
        am1 = float(self.alpha) - 1.0
        b = 2.0**am1 if am1 < 1024.0 else math.inf
        while done < size and b < math.inf:
            x = 1.0 - rng.random(min(size - done, _SAMPLE_BLOCK))
            x = np.floor(np.exp(np.log(x, out=x) / -am1, out=x), out=x)
            t = np.exp(am1 * np.log1p(1.0 / x))
            kept = x[rng.random(x.size) * x * (t - 1.0) / (b - 1.0) <= t / b]
            degrees[done:done + kept.size] = kept
            done += kept.size
        return degrees


def zipf_alpha_for_mean(target_mean: float) -> float:
    """Scale parameter alpha > 2 whose Zipf mean equals ``target_mean``.

    Bisects zeta(alpha-1)/zeta(alpha) on (2 + 1e-6, 50] and returns the
    first midpoint whose mean is within 5e-9 of ``target_mean``.  Near
    alpha = 2 adjacent doubles of alpha move the mean by more than that
    (from means of about 4,800 up); once no double lies strictly between
    the bracket's ends, the end whose mean is nearer is returned; its
    relative error is below 3e-10 up to the bracket's top, a mean of
    about 6.08e5.  A Zipf mean is always > 1, so targets at or below 1
    are rejected, as are targets outside the bracket.
    """
    target_mean = float(target_mean)
    if not target_mean > 1.0:
        raise ValueError(f"Zipf mean exceeds 1 for every alpha > 2, got target {target_mean}")

    lo, hi = 2.0 + 1e-6, 50.0
    # The mean is strictly decreasing: huge near the lower edge, ~1 at 50.
    if not (Zipf(hi).mean() < target_mean < Zipf(lo).mean()):
        raise ValueError(f"target mean {target_mean} not bracketed on alpha in (2, 50]")
    # Each pass halves (lo, hi), so the ends are adjacent doubles within ~60 passes.
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if abs((m := Zipf(mid).mean()) - target_mean) < 1e-8 * 0.5:
            return mid
        lo, hi = (mid, hi) if m > target_mean else (lo, mid)
    return lo if Zipf(lo).mean() - target_mean < target_mean - Zipf(hi).mean() else hi
