"""Social-network degree distributions and their generating functions.

Three degree laws cover the network structures compared by the model:
Poisson (the large-size limit of an Erdos-Renyi graph), Degenerate (a
random regular graph, every worker has exactly k contacts), and Zipf
(a scale-free graph whose tail fattens as the scale parameter falls
toward 2).

The quantity the labor-market model needs from a distribution is the
referral success probability E[1 - (1 - P)^d] for a contact-information
probability P, which each law evaluates exactly.  Poisson and
Degenerate write it without cancellation at small P, as -expm1(-lam P)
and -expm1(k log1p(-P)).  The Zipf law uses its probability generating
function, 1 - Li_a(1 - P) / zeta(a), so a polylogarithm and the Riemann
zeta function are implemented here as well; both are plain float64
routines with no external special-function dependency.

:func:`as_count` is the package's one check of a non-negative integer
count (a regular degree, a job-network degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegreeDistribution",
    "Poisson",
    "Degenerate",
    "Zipf",
    "as_count",
    "zeta",
    "polylog",
    "zipf_alpha_for_mean",
]

# Direct-series length before the Euler-Maclaurin tail takes over.  With
# two Bernoulli correction terms the truncation error is below 1e-14
# absolute for every s > 1, far inside the 1e-10 relative target.
_ZETA_SERIES_TERMS = 64

# Polylogarithm series control: stop once the geometric tail bound drops
# below _POLYLOG_RTOL of the partial sum; never exceed _POLYLOG_MAX_TERMS.
_POLYLOG_RTOL = 1e-12
_POLYLOG_MAX_TERMS = 10**6
_POLYLOG_BLOCK = 4096


def as_count(value, name: str) -> int:
    """``value`` as an int; ValueError unless it is a finite integer >= 0."""
    try:
        count = int(value)
        valid = count == value and count >= 0
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return count


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1.

    Direct series plus an Euler-Maclaurin integral tail with two
    correction terms; accurate to better than 1e-10 relative error on
    the whole domain, including just above the pole at s = 1.
    """
    s = float(s)
    if not s > 1.0:
        raise ValueError(f"zeta requires s > 1, got {s}")
    n = np.arange(1, _ZETA_SERIES_TERMS, dtype=np.float64)
    head = float(np.sum(n ** (-s)))
    big_n = float(_ZETA_SERIES_TERMS)
    tail = big_n ** (1.0 - s) / (s - 1.0)
    tail += 0.5 * big_n ** (-s)
    tail += s * big_n ** (-s - 1.0) / 12.0
    tail -= s * (s + 1.0) * (s + 2.0) * big_n ** (-s - 3.0) / 720.0
    return head + tail


def polylog(alpha: float, x: float) -> float:
    """Polylogarithm Li_alpha(x) = sum_{k>=1} x^k / k^alpha for x in [0, 1].

    The series is summed in blocks until the geometric tail bound
    x^(K+1) / ((1-x) (K+1)^alpha) falls below 1e-12 of the partial sum,
    with a hard cap of 1e6 terms; at x = 1 the value is zeta(alpha).
    """
    alpha = float(alpha)
    x = float(x)
    if not alpha > 1.0:
        raise ValueError(f"polylog requires alpha > 1, got {alpha}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"polylog requires 0 <= x <= 1, got {x}")
    if x == 1.0:
        return zeta(alpha)
    if x == 0.0:
        return 0.0
    total = 0.0
    k0 = 1
    while k0 <= _POLYLOG_MAX_TERMS:
        k1 = min(k0 + _POLYLOG_BLOCK, _POLYLOG_MAX_TERMS + 1)
        k = np.arange(k0, k1, dtype=np.float64)
        total += float(np.sum(np.power(x, k) / np.power(k, alpha)))
        k0 = k1
        tail_bound = x**k0 / ((1.0 - x) * k0**alpha)
        if tail_bound < _POLYLOG_RTOL * total:
            break
    return total


class DegreeDistribution:
    """Degree law of one group's social network."""

    def mean(self) -> float:
        """Expected number of contacts E[d]."""
        raise NotImplementedError

    def pmf(self, k) -> np.ndarray:
        """Probability mass at integer degree(s) k."""
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
        """E[1 - (1 - P)^d] for P in (0, 1]."""
        raise NotImplementedError


@dataclass(frozen=True)
class Poisson(DegreeDistribution):
    """Poisson(lam) degrees: Erdos-Renyi network in the large-size limit."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"Poisson mean degree must be positive and finite, got {self.lam}")

    def mean(self) -> float:
        return self.lam

    def _reach(self, p_info: float) -> float:
        return -math.expm1(-self.lam * p_info)

    def pmf(self, k) -> np.ndarray:
        k = np.atleast_1d(np.asarray(k, dtype=np.float64))
        lgam = np.array([math.lgamma(v + 1.0) if v >= 0 else math.inf for v in k])
        out = np.exp(k * math.log(self.lam) - self.lam - lgam)
        return np.where(k >= 0, out, 0.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.poisson(self.lam, size).astype(np.int64)


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

    def pmf(self, k) -> np.ndarray:
        k = np.asarray(k)
        return np.where(k == self.k, 1.0, 0.0)

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
        if not 2.0 < self.alpha < math.inf:
            raise ValueError(f"Zipf scale parameter must be finite and exceed 2, got {self.alpha}")

    def mean(self) -> float:
        return zeta(self.alpha - 1.0) / zeta(self.alpha)

    def _reach(self, p_info: float) -> float:
        return 1.0 - polylog(self.alpha, 1.0 - p_info) / zeta(self.alpha)

    def pmf(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        z = zeta(self.alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(k >= 1, 1.0 / (z * np.power(k, self.alpha)), 0.0)
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.zipf(self.alpha, size).astype(np.int64)


def zipf_alpha_for_mean(target_mean: float) -> float:
    """Scale parameter alpha > 2 whose Zipf mean equals ``target_mean``.

    Bisects zeta(alpha-1)/zeta(alpha) on (2 + 1e-6, 50]; the returned
    alpha satisfies |mean(alpha) - target_mean| < 1e-8.  A Zipf mean is
    always > 1, so targets at or below 1 are rejected, as are targets
    outside the bracket.
    """
    target_mean = float(target_mean)
    if not target_mean > 1.0:
        raise ValueError(f"Zipf mean exceeds 1 for every alpha > 2, got target {target_mean}")

    lo, hi = 2.0 + 1e-6, 50.0
    # The mean is strictly decreasing: huge near the lower edge, ~1 at 50.
    if not (Zipf(hi).mean() < target_mean < Zipf(lo).mean()):
        raise ValueError(f"target mean {target_mean} not bracketed on alpha in (2, 50]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m = Zipf(mid).mean()
        if abs(m - target_mean) < 1e-8 * 0.5:
            return mid
        if m > target_mean:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    if abs(Zipf(alpha).mean() - target_mean) >= 1e-8:
        raise ValueError(f"bisection failed to reach tolerance for target {target_mean}")
    return alpha
