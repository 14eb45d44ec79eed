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
once and keeps every 4,096-term block of k^a that its polylog series has
used, for as long as the law lives: the first block with its k, later
blocks as the series first reaches them, at most 244 of them (7.6 MiB)
at the 10^6-term cap.  Every kept block is np.power(k, a) of the same k,
so results do not depend on which values of P the law saw first.  Each
law also keeps the values it has returned, keyed by x = 1 - P, up to
4,096 of them (then it empties that store and starts again): a solver
bracket whose ends differ by ulps in u often asks for a P whose 1 - P
the law has already summed.  A value is a function of (a, x) alone, so
a kept one is the float the series would give again.
Each 4,096-term block of the series is summed over the shortest
power-of-two prefix whose remainder provably cannot change numpy's
pairwise sum of the block, so the result is bit-identical to the
full-block sum.  Only that bit-identity depends on numpy's summation
layout, which the tests pin; the value is accurate either way.

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
# Shortest prefix _block_sum tries (numpy's pairwise-sum leaf), and the
# share of a block's first term its dropped remainder must stay below.
_PAIRWISE_LEAF = 128
_UNIT_ROUNDOFF = 2.0**-53
# Values of 1 - Li_a(x) / zeta(a) a Zipf law keeps before it empties its store.
_MEMO_ENTRIES = 4096


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
    k = np.arange(1, _POLYLOG_BLOCK + 1, dtype=np.float64)
    return _polylog_blocks(alpha, x, k, _powers(k, alpha), [])


def _powers(k: np.ndarray, alpha: float) -> np.ndarray:
    """np.power(k, alpha); a power past the float range is inf, and its term x^k / inf is 0."""
    with np.errstate(over="ignore"):
        return np.power(k, alpha)


def _polylog_blocks(
    alpha: float, x: float, k: np.ndarray, k_alpha: np.ndarray, later: list[np.ndarray]
) -> float:
    """Li_alpha(x) for 0 < x < 1, summed block by block.

    ``k`` and ``k_alpha`` are the first block's k and k^alpha.
    ``later[i]`` is k^alpha over block i + 1; a block the list does not
    hold yet is computed and appended, so a kept list grows to the
    longest series summed with it (at most 244 blocks at the term cap).
    """
    total = 0.0
    for i in itertools.count():
        total += _block_sum(alpha, x, k, k_alpha)
        k0 = int(k[-1]) + 1
        if _series_tail(alpha, x, k0) < _POLYLOG_RTOL * total or k0 > _POLYLOG_MAX_TERMS:
            return total
        k = np.arange(k0, min(k0 + _POLYLOG_BLOCK, _POLYLOG_MAX_TERMS + 1), dtype=np.float64)
        if i == len(later):
            later.append(_powers(k, alpha))
        k_alpha = later[i]


def _series_tail(alpha: float, x: float, big_k: int) -> float:
    """Geometric bound x^K / ((1-x) K^alpha) on sum_{k>=K} x^k / k^alpha.

    0.0 where K^alpha passes the float range: the bound is then below
    1e-292 x^K, which no stop or prefix test of a series can tell from 0.
    """
    try:
        return x**big_k / ((1.0 - x) * big_k**alpha)
    except OverflowError:
        return 0.0


def _block_sum(alpha: float, x: float, k: np.ndarray, k_alpha: np.ndarray) -> float:
    """np.sum(x^k / k^alpha) over one block, bit for bit, from its shortest sufficient prefix.

    numpy's float64 add reduction (``np.sum``, ``np.add.reduce``) is a
    pairwise sum: it halves a 4,096-term block down to 128-term leaves,
    so every prefix of m = 128, 256, ..., 2,048 terms is a left subtree.
    A full block is summed over the shortest such prefix whose remainder
    bound 2 T(k0 + m), with T the geometric tail bound, falls below
    2^-53 of the block's first term, and that prefix sum ``head`` is
    kept only if ``head + 2 T == head``.
    Every dropped right subtree is then a computed sum of positive terms
    below 2 T, so, rounding being monotone, it is absorbed at its level
    of the tree, and ``head`` is the full-block sum bit for bit.  Partial
    blocks (only at the 10^6-term cap) and prefixes that fail the check
    are summed in full.  Only the bit-identity depends on numpy's
    summation layout, which the tests pin.
    """
    if len(k) == _POLYLOG_BLOCK:
        k0, m = int(k[0]), _POLYLOG_BLOCK
        floor = _UNIT_ROUNDOFF * x**k0 / float(k_alpha[0])
        while m > _PAIRWISE_LEAF and 2.0 * _series_tail(alpha, x, k0 + m // 2) < floor:
            m //= 2
        head = float(np.add.reduce(np.power(x, k[:m]) / k_alpha[:m]))
        if m == _POLYLOG_BLOCK or head + 2.0 * _series_tail(alpha, x, k0 + m) == head:
            return head
    return float(np.add.reduce(np.power(x, k) / k_alpha))


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
        if not (self.lam > 0.0 and is_finite(self.lam)):
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
        if not (self.alpha > 2.0 and is_finite(self.alpha)):
            raise ValueError(f"Zipf scale parameter must be finite and exceed 2, got {self.alpha}")

    @cached_property
    def _zeta(self) -> float:
        return zeta(self.alpha)

    @cached_property
    def _first_block(self) -> tuple[np.ndarray, np.ndarray]:
        k = np.arange(1, _POLYLOG_BLOCK + 1, dtype=np.float64)
        return k, _powers(k, float(self.alpha))

    @cached_property
    def _later_blocks(self) -> list[np.ndarray]:
        # k^alpha over blocks 2, 3, ...; _polylog_blocks appends to it.
        return []

    @cached_property
    def _reach_memo(self) -> dict[float, float]:
        # x = 1 - P -> 1 - Li_a(x) / zeta(a); _reach empties it when full.
        return {}

    def mean(self) -> float:
        return zeta(self.alpha - 1.0) / self._zeta

    def _reach(self, p_info: float) -> float:
        # 1 - Li_a(x) / zeta(a) at x = 1 - P: 0 at x = 1, where Li_a(1) = zeta(a); 1 at x = 0.
        x = 1.0 - p_info
        if x == 1.0 or x == 0.0:
            return float(x == 0.0)
        memo = self._reach_memo
        reach = memo.get(x)
        if reach is None:
            if len(memo) >= _MEMO_ENTRIES:
                memo.clear()
            series = _polylog_blocks(float(self.alpha), x, *self._first_block, self._later_blocks)
            reach = memo[x] = 1.0 - series / self._zeta
        return reach

    def pmf(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(k >= 1, 1.0 / (self._zeta * np.power(k, self.alpha)), 0.0)
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
