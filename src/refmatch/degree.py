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
Zipf law uses its probability generating function, 1 - Li_a(1 - P) /
zeta(a), so a polylogarithm and the Riemann zeta function are
implemented here as well; both are plain float64 routines with no
external special-function dependency.  Each Zipf law computes zeta(a)
once and keeps, in a dict keyed by block index, k^-a of every 4,096-term
block its polylog series has reached (at most 245, 7.6 MiB, at the
10^6-term cap), and the last x = 1 - P it summed with its value: a
scalar solve's last steps often ask again for a 1 - P that rounds to it.
A value is a function of (a, x) alone, so nothing depends on call order.
Each term of the series is exp(k log x) times the kept k^-a, one exp
and no power, formed in one buffer per block, and each block is summed
with one numpy sum over its shortest power-of-two prefix whose remainder
bound is below 2^-53 of the block's first term.  The dropped terms are
below that whatever order numpy adds in, so no value rests on numpy's
summation layout.

The Zipf form is not exact at small P: the subtraction cancels and the
series stops at 10^6 terms.  Against 40-digit mpmath, its relative
error is below 3e-10 for P >= 1e-3, but 0.8% at P = 1e-6 and 4.1 at
P = 1e-8 for a = 2.028, and 414 at P = 1e-10 for a = 2.001.  ROADMAP
item 3 (an exact series kernel) removes that range.

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

__all__ = [
    "DegreeDistribution",
    "Poisson",
    "Degenerate",
    "Zipf",
    "as_count",
    "is_finite",
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
# Shortest prefix of a block that is summed, and the share of the block's
# first term its dropped remainder must stay below.
_MIN_PREFIX = 128
_UNIT_ROUNDOFF = 2.0**-53
# k over the series' first block; block i's k adds i 4,096.  Shared, read-only.
_FIRST_K = np.arange(1, _POLYLOG_BLOCK + 1, dtype=np.float64)
_FIRST_K.flags.writeable = False


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
    """Riemann zeta for real s > 1.

    Direct series plus an Euler-Maclaurin integral tail with two
    correction terms; accurate to better than 1e-10 relative error on
    the whole domain, including just above the pole at s = 1.
    """
    s = float(s)
    if not s > 1.0:
        raise ValueError(f"zeta requires s > 1, got {s}")
    if s > 64.0:
        # Every term after the first is below 2^-64, so zeta(s) rounds to 1;
        # the tail below would be inf * 0 = nan once s^3 overflows.
        return 1.0
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
    return _polylog_blocks(alpha, x, {})


def _polylog_blocks(alpha: float, x: float, blocks: dict[int, np.ndarray]) -> float:
    """Li_alpha(x) for 0 < x < 1, summed block by block.

    ``blocks[i]`` is k^-alpha over block i, the terms from i 4,096 + 1 on
    (0 where it underflows); a block the dict does not hold yet is
    computed and stored.  Each term is exp(k log x) k^-alpha: one exp,
    not a power.  A block is summed over its shortest power-of-two prefix
    of at least 128 terms whose remainder bound 2 T(k0 + m), with T the
    geometric tail bound, falls below 2^-53 of the block's first term;
    the dropped terms are positive and below that, so the prefix sum is
    within an ulp of the full-block sum of the same terms.
    """
    total, log_x, one_minus_x = 0.0, math.log(x), 1.0 - x
    for i in itertools.count():
        k0 = 1 + i * _POLYLOG_BLOCK
        k_pow = blocks.get(i)
        if k_pow is None:  # the block at the 10^6-term cap is partial
            with np.errstate(under="ignore"):
                k_pow = blocks[i] = (_FIRST_K[: _POLYLOG_MAX_TERMS + 1 - k0] + (k0 - 1)) ** -alpha
        m = len(k_pow)
        floor = _UNIT_ROUNDOFF * x**k0 * float(k_pow[0])
        while m > _MIN_PREFIX:  # 2 _series_tail(alpha, x, k0 + m/2) < floor, inline
            try:
                tail = x ** (k0 + m // 2) / (one_minus_x * (k0 + m // 2) ** alpha)
            except OverflowError:
                tail = 0.0
            if not 2.0 * tail < floor:
                break
            m //= 2
        # The terms exp(k log x) k^-alpha, formed and summed in one buffer.
        terms = (_FIRST_K[:m] + (k0 - 1) if k0 > 1 else _FIRST_K[:m]) * log_x
        np.exp(terms, out=terms)
        terms *= k_pow[:m]
        total += float(np.add.reduce(terms))
        k0 += len(k_pow)
        if _series_tail(alpha, x, k0) < _POLYLOG_RTOL * total or k0 > _POLYLOG_MAX_TERMS:
            return total


def _series_tail(alpha: float, x: float, big_k: int) -> float:
    """Geometric bound x^K / ((1-x) K^alpha) on sum_{k>=K} x^k / k^alpha.

    0.0 where K^alpha passes the float range: the bound is then below
    1e-292 x^K, which no stop or prefix test of a series can tell from 0.
    """
    try:
        return x**big_k / ((1.0 - x) * big_k**alpha)
    except OverflowError:
        return 0.0


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
    def _blocks(self) -> dict[int, np.ndarray]:
        # Block index -> k^-alpha over that block; _polylog_blocks fills it.
        return {}

    # The last x = 1 - P summed and its value, replaced as one tuple so that
    # no thread reads one x with another's value.
    _kept = (math.nan, math.nan)

    def mean(self) -> float:
        return zeta(self.alpha - 1.0) / self._zeta

    def _reach(self, p_info: float) -> float:
        # 1 - Li_a(x) / zeta(a) at x = 1 - P: 0 at x = 1, where Li_a(1) = zeta(a); 1 at x = 0.
        x = 1.0 - p_info
        if x == 1.0 or x == 0.0:
            return float(x == 0.0)
        kept_x, reach = self._kept
        if x != kept_x:
            reach = 1.0 - _polylog_blocks(float(self.alpha), x, self._blocks) / self._zeta
            self.__dict__["_kept"] = (x, reach)
        return reach

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.zipf(self.alpha, size).astype(np.int64, copy=False)


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
        m = Zipf(mid).mean()
        if abs(m - target_mean) < 1e-8 * 0.5:
            return mid
        if m > target_mean:
            lo = mid
        else:
            hi = mid
    return lo if Zipf(lo).mean() - target_mean < target_mean - Zipf(hi).mean() else hi
