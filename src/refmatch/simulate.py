"""Monte Carlo cross-validation of the mean-field referral formulas.

An explicit configuration-model social network is built from sampled
degrees, then a snapshot experiment estimates the probability that an
unemployed worker obtains vacancy information through at least one
contact.  The estimate is compared against the closed-form
``referral_expectation`` of the same degree law.

Snapshot design.  Each trial picks a uniformly random focal worker,
conditions it unemployed, and draws its contacts' states fresh: a
contact is employed with probability ``employment_rate`` and, if
employed, holds vacancy information with probability
``informed_given_employed``, the model's ``contact_reach`` -- an employed
contact watches the d_f jobs adjacent to its own, each vacant with
probability v / (1 - u + v), and passes information on with frequency
``phi``.
Contacts reached through parallel edges are drawn per edge, matching
the stub-count degree that the mean-field expectation uses; self-loop
stubs can never inform the (unemployed) focal worker.  So a focal
worker with k reachable contacts (its degree minus two per self-loop)
is informed with probability 1 - (1 - q)^k, q = ``employment_rate *
informed_given_employed``, and each trial draws that one event.
Because the contact states are redrawn independently per trial, trials
are i.i.d. Bernoulli and the reported binomial standard error is exact
for the network-conditional success rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .degree import DegreeDistribution, as_count
from .model import contact_reach

__all__ = [
    "Network",
    "SimConfig",
    "ReferralEstimate",
    "build_configuration_network",
    "estimate_referral_rate",
]

_PARITY_RESAMPLE_LIMIT = 100


@dataclass(frozen=True)
class Network:
    """Configuration-model multigraph stored as its shuffled stub list.

    ``stubs[2k]`` and ``stubs[2k + 1]`` are the nodes at the two ends of
    edge k.  The flat adjacency is derived on first read:
    ``neighbors[offsets[i]:offsets[i+1]]`` lists node i's entries, one per
    stub: parallel edges repeat a partner, a self-loop contributes the
    node itself twice.
    """

    n: int
    degrees: np.ndarray
    stubs: np.ndarray

    @cached_property
    def offsets(self) -> np.ndarray:
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=offsets[1:])
        return offsets

    @cached_property
    def neighbors(self) -> np.ndarray:
        # Sorting the slots by owner groups them by node; slot ^ 1 is the
        # partner at the other end of the same edge.
        return self.stubs[np.argsort(self.stubs, kind="stable") ^ 1]

    def neighbors_of(self, node: int) -> np.ndarray:
        return self.neighbors[self.offsets[node]:self.offsets[node + 1]]

    @property
    def stub_count(self) -> int:
        return self.stubs.size

    def reachable_degrees(self) -> np.ndarray:
        """Per-node count of adjacency entries that lead to another node."""
        ends, partners = self.stubs[0::2], self.stubs[1::2]
        loops = np.bincount(ends[ends == partners], minlength=self.n)
        return self.degrees - 2 * loops


def build_configuration_network(
    dist: DegreeDistribution, n: int, seed_or_rng: int | np.random.Generator
) -> Network:
    """Uniform stub-matching network with i.i.d. degrees from ``dist``.

    If the sampled stub total is odd the last node's degree is resampled
    (up to a bounded number of tries; a degree law with fixed parity,
    e.g. a constant odd degree, gets one extra stub instead).  Self-loops
    and parallel edges are kept: they vanish asymptotically and removing
    them would distort the degree sequence.
    """
    if n < 2:
        raise ValueError(f"network needs at least 2 nodes, got {n}")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    degrees = dist.sample(rng, n).astype(np.int64)
    if degrees.sum() % 2 == 1:
        for _ in range(_PARITY_RESAMPLE_LIMIT):
            degrees[-1] = int(dist.sample(rng, 1)[0])
            if degrees.sum() % 2 == 0:
                break
        else:
            degrees[-1] += 1

    # Shuffling the node-grouped stub list in place uses the same draws
    # as, and equals, indexing it with rng.permutation(total), without
    # the permutation's own stub-length array.
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    return Network(n=n, degrees=degrees, stubs=stubs)


@dataclass(frozen=True)
class SimConfig:
    """Snapshot experiment configuration.

    ``employment_rate`` is 1 - u_i for the simulated group;
    ``informed_given_employed`` is P(contact holds info | employed).
    """

    dist: DegreeDistribution
    n_workers: int
    n_trials: int
    seed: int
    employment_rate: float
    informed_given_employed: float

    def __post_init__(self):
        if self.n_workers < 2:
            raise ValueError(f"need at least 2 workers, got {self.n_workers}")
        if self.n_trials < 1:
            raise ValueError(f"need at least one trial, got {self.n_trials}")
        for name in ("employment_rate", "informed_given_employed"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")

    @classmethod
    def at_context(
        cls,
        dist: DegreeDistribution,
        *,
        u_i: float,
        u: float,
        v: float,
        phi: float,
        d_f: int,
        n_workers: int = 100_000,
        n_trials: int = 100_000,
        seed: int = 0,
    ) -> "SimConfig":
        """Build a config from model-level quantities (u_i, u, v, phi, d_f)."""
        reach = contact_reach(phi, as_count(d_f, "job-network degree d_f"), u, v)
        return cls(dist=dist, n_workers=n_workers, n_trials=n_trials, seed=seed,
                   employment_rate=1.0 - u_i, informed_given_employed=reach)


@dataclass(frozen=True)
class ReferralEstimate:
    estimate: float
    std_error: float
    n_trials: int
    successes: int

    def z_score(self, reference: float) -> float:
        """Standardized deviation from ``reference``; inf if se is zero and off."""
        if self.std_error == 0.0:
            return 0.0 if self.estimate == reference else math.inf
        return (self.estimate - reference) / self.std_error


def estimate_referral_rate(config: SimConfig) -> ReferralEstimate:
    """Empirical referral success frequency with binomial standard error.

    Builds the social network, then runs ``n_trials`` independent focal
    draws as described in the module docstring.  Raises if the group has
    no unemployed workers to sample (employment_rate == 1).
    """
    if config.employment_rate >= 1.0:
        raise ValueError("no unemployed focal candidates: employment rate is 1")
    rng = np.random.default_rng(config.seed)
    net = build_configuration_network(config.dist, config.n_workers, rng)

    t = config.n_trials
    reachable = net.reachable_degrees()[rng.integers(0, net.n, size=t)]
    q = config.employment_rate * config.informed_given_employed
    informed = rng.random(t) < -np.expm1(reachable * math.log1p(-q))
    successes = int(np.count_nonzero(informed))
    est = successes / t
    se = math.sqrt(est * (1.0 - est) / t)
    return ReferralEstimate(estimate=est, std_error=se, n_trials=t, successes=successes)
