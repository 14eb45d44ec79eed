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
for the network-conditional success rate.  The trials read the network
only through the reachable degrees of their focal workers, and their
order does not matter, so a Poisson estimate draws just those (see
Poisson networks) while any other law's estimate builds its network.

Poisson networks.  Take i.i.d. Poisson(lam) degrees d_i on n nodes and
their N stubs in uniform order.  An owner sequence s_1 ... s_N then has
probability prod_i e^-lam lam^d_i / d_i! * prod_i d_i! / N! =
e^-(n lam) (n lam)^N / N! * n^-N: a Poisson(n lam) stub total with i.i.d.
uniform owners (the Erdos-Renyi multigraph of the configuration model,
Newman, Strogatz & Watts 2001, PRE 64 026118).  So a Poisson network
draws its total, redrawn until it is even, which conditions the degrees
on an even sum exactly, then that many uniform owners in one draw, and
counts its degrees from them.  Its M = N / 2 edges (stubs 2k and
2k + 1) are then i.i.d. uniform ordered pairs of nodes, so given a set
F of m focal workers, f = m / n, an edge has both ends in F with
probability f^2 and exactly one with 2f(1 - f), and each end in F is
uniform on F.  A Poisson estimate therefore draws the even total and
the focal picks, then both ~ Binomial(M, f^2) and one ~ Binomial(M -
both, 2f / (1 + f)) edges, and one + 2 both uniform ends in F, the first
2 both in pairs; a pair of equal ends is a self-loop and takes two off
that worker's count of ends.  That is the law of building the network
and reading its focal workers, at O(lam t) cost instead of O(lam n),
with no stub list, no n-long array and no thread.

Stub pairing.  The stubs of any other law's network are put in
uniformly random order by sorting random 64-bit keys that carry each
stub's owner in their low bits, with every run of tied random bits put
in random order; edge k joins stubs 2k and 2k + 1, as in a Poisson
network.  The keys are drawn and given their owners node chunk by
node chunk.  On a PCG64 or PCG64DXSM generator, whose ``advance(k)``
skips k 64-bit draws, the chunks before the one holding the middle stub
are drawn on the calling thread and the rest on a worker thread, by a
copy of the generator advanced to their first stub; the generator then
takes the state one draw of all the keys leaves, pending 32-bit half
included.  Other generators draw every chunk in turn on the calling
thread.  The keys are then split in place at their median; each half
is sorted, scanned for ties and masked on a thread of its own, and
``Network.reachable_degrees`` scans the two halves of any network's
edge list the same way.  The tie runs are shuffled on the calling
thread in ascending order, so a seed gives the same network bit for bit
as one draw and one sort on one thread (``tools/mc_diff.py`` compares two
checkouts' stub lists).

Threads.  Only key pairing and the scans run on two threads; a Poisson
network or estimate starts none.  Each two-thread step pins its worker
to all but the first CPU of the calling thread's affinity mask, and the
calling thread to the first while it runs its half; left to itself,
the kernel may start the worker on the caller's CPU and keep both there.
With one CPU in the mask both halves run in turn on the calling thread
and no thread starts.  The workers write their results only into arrays
made on the calling thread, and hold temporaries of one chunk or block
at a time (the draws and owner ids of one node chunk, or the buffers of
one scan), since glibc gives each thread its own heap and memory freed
there stays resident.
"""

from __future__ import annotations

import copy
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .degree import DegreeDistribution, Poisson, as_count
from .model import contact_reach

__all__ = [
    "Network",
    "SimConfig",
    "ReferralEstimate",
    "build_configuration_network",
    "estimate_referral_rate",
]

_PARITY_RESAMPLE_LIMIT = 100
# Stubs per node chunk of keys (on average: a hub's chunk holds more) and
# pairs per block of the tie and self-loop scans; work whose first half
# holds at most one block stays on one thread.
_PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class Network:
    """Configuration-model multigraph stored as its randomly ordered stub list.

    ``stubs[2k]`` and ``stubs[2k + 1]`` are the nodes at the two ends of
    edge k, so node i owns ``degrees[i]`` entries of ``stubs``; parallel
    edges repeat a pair, and a self-loop is an edge whose two ends are
    the same node.
    """

    n: int
    degrees: np.ndarray
    stubs: np.ndarray

    @property
    def stub_count(self) -> int:
        return self.stubs.size

    def reachable_degrees(self) -> np.ndarray:
        """Per-node count of stubs whose edge leads to another node.

        A node's degree minus two per self-loop at it.
        """
        ends = self.stubs[0::2]
        loops = _near_pairs(ends.view(np.uint64), self.stubs[1::2].view(np.uint64), np.uint64(0))
        reachable = self.degrees.copy()
        np.subtract.at(reachable, ends[loops], 2)
        return reachable


def build_configuration_network(
    dist: DegreeDistribution, n: int, rng: np.random.Generator
) -> Network:
    """Uniform stub-matching network of ``n`` nodes with i.i.d. degrees from ``dist``.

    A Poisson network is a Poisson(n lam) stub total, redrawn until it
    is even, with i.i.d. uniform stub owners in draw order (see the
    module docstring): its degrees are exactly i.i.d. Poisson(lam)
    conditioned on an even sum.  For other laws, if the
    sampled stub total is odd the last node's degree is resampled (up to
    a bounded number of tries; a degree law with fixed parity, e.g. a
    constant odd degree, gets one extra stub instead), and then the
    random keys that pair the stubs are drawn.  Self-loops and parallel
    edges are kept: they vanish asymptotically and removing them would
    distort the degree sequence.

    Everything is drawn from ``rng``.  ValueError unless ``dist`` is a
    ``DegreeDistribution``, ``n`` an integer >= 2 and ``rng`` a
    ``numpy.random.Generator``.
    """
    if not isinstance(dist, DegreeDistribution):
        raise ValueError(f"network degree law must be a DegreeDistribution, got {dist!r}")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"network rng must be a numpy.random.Generator, got {rng!r}")
    n = as_count(n, "network size n")
    if n < 2:
        raise ValueError(f"network needs at least 2 nodes, got {n}")
    if isinstance(dist, Poisson):
        stubs = rng.integers(0, n, size=_even_total(rng, n, dist.lam), dtype=np.int64)
        return Network(n=n, degrees=np.bincount(stubs, minlength=n), stubs=stubs)
    degrees = dist.sample(rng, n).astype(np.int64, copy=False)
    if degrees.sum() % 2 == 1:
        for _ in range(_PARITY_RESAMPLE_LIMIT):
            degrees[-1] = int(dist.sample(rng, 1)[0])
            if degrees.sum() % 2 == 0:
                break
        else:
            degrees[-1] += 1
    return Network(n=n, degrees=degrees, stubs=_pair_stubs(rng, degrees))


def _even_total(rng: np.random.Generator, n: int, lam: float) -> int:
    """A Poisson(n lam) stub total, redrawn until it is even."""
    while (total := int(rng.poisson(n * lam))) % 2:
        pass
    return total


def _focal_reachable(rng: np.random.Generator, n: int, lam: float, t: int) -> np.ndarray:
    """Reachable degrees of ``t`` uniform focal workers of a Poisson(lam) network of ``n``.

    Exactly the law of ``build_configuration_network`` followed by ``t``
    uniform picks, but drawn from the edge ends in the focal set alone
    (see the module docstring), ascending by the focal worker's id.
    """
    edges = _even_total(rng, n, lam) // 2
    picks = np.sort(rng.integers(0, n, size=t))
    slot = np.cumsum(np.diff(picks, prepend=picks[0]) != 0)  # each pick's index in the focal set
    m = int(slot[-1]) + 1  # f = m / n of the nodes are focal
    both = int(rng.binomial(edges, (m / n) ** 2))  # edges with both ends in the focal set
    one = int(rng.binomial(edges - both, 2 * m / (n + m)))  # 2f(1 - f) / (1 - f^2)
    ends = rng.integers(0, m, size=2 * both + one)  # the first 2 * both pair up
    reachable = np.bincount(ends, minlength=m)
    first, second = ends[0:2 * both:2], ends[1:2 * both:2]
    np.subtract.at(reachable, first[first == second], 2)
    return reachable[slot]


def _pair_stubs(rng: np.random.Generator, degrees: np.ndarray) -> np.ndarray:
    """Owner of each stub, in uniformly random order.

    Each stub gets a uniform 64-bit key whose low bits are overwritten
    with its owner's id; sorting the keys orders the stubs by their
    random high bits, and masking leaves the owners.  The keys are drawn
    and stamped node chunk by node chunk, on two threads where the
    generator can skip ahead (see the module docstring), so they are the
    only stub-length array.
    """
    n, total = degrees.size, int(degrees.sum())
    bits = (n - 1).bit_length()
    low = np.uint64((1 << bits) - 1)
    keys = np.empty(total, np.uint64)
    step = max(1, n * _PAIR_BLOCK // max(total, 1))  # nodes per chunk
    # Chunk c holds the nodes from c * step on and stubs edges[c] to edges[c + 1] - 1.
    edges = [0, *np.add.reduceat(degrees, range(0, n, step)).cumsum().tolist()]
    half, last = total // 2, len(edges) - 1

    def stamp(gen, first, stop):  # draw and stamp chunks first to stop - 1
        # One temporary at a time: with two alive, glibc returns the
        # freed one to the system and faults it back in at the next chunk.
        for c in range(first, stop):
            a, lo, hi = c * step, edges[c], edges[c + 1]
            np.bitwise_and(gen.integers(0, 1 << 64, size=hi - lo, dtype=np.uint64), ~low,
                           out=keys[lo:hi])
            keys[lo:hi] |= np.repeat(np.arange(a, min(a + step, n), dtype=np.uint64),
                                     degrees[a:a + step])

    # advance(k) is k 64-bit draws only on these; other generators draw in turn.
    if half > _PAIR_BLOCK and type(rng.bit_generator) in (np.random.PCG64, np.random.PCG64DXSM):
        mid = int(np.searchsorted(edges, half, side="right")) - 1  # the chunk holding stub half
        later = copy.deepcopy(rng)
        later.bit_generator.advance(edges[mid])
        _on_two_threads(stamp, (later, mid, last), (rng, 0, mid), half)
        # The state one draw of all the keys leaves, any pending 32-bit half kept.
        rng.bit_generator.state = {**rng.bit_generator.state,
                                   "state": later.bit_generator.state["state"]}
    else:
        stamp(rng, 0, last)
    if half:
        keys.partition(half)  # every key before keys[half] is at most every key after
    first, second = keys[:half], keys[half:]
    _on_two_threads(np.ndarray.sort, (first,), (second,), half)
    # Sorted i.i.d. keys are a uniform order only where the high bits
    # differ.  Each run of equal high bits goes in random order; a run may
    # cross a block edge or the split, so runs are formed only once all
    # blocks are read.
    ties = _near_pairs(keys, keys[1:], low)  # i where keys i and i + 1 tie
    lo = hi = 0  # the run [lo, hi) being formed
    for i in [*ties, total]:
        if i >= hi:
            if hi > lo:
                keys[lo:hi] = keys[lo:hi][rng.permutation(hi - lo)]
            lo = i
        hi = i + 2
    _on_two_threads(np.bitwise_and, (first, low, first), (second, low, second), half)
    return keys.view(np.int64)


def _on_two_threads(f, first: tuple, second: tuple, size: int) -> None:
    """Run ``f(*first)`` on a worker thread and ``f(*second)`` on this one, each on its own CPU.

    The worker starts pinned to all but the first CPU of this thread's
    affinity mask and this thread pins itself to the first; its own mask
    is restored before the call returns or raises.  Joins the worker and
    re-raises its exception, if any, here.  The two calls must write
    disjoint memory, write results only into arrays made by the caller
    and hold temporaries of at most one chunk or block at a time (see
    the module docstring).  Both run in turn on this thread, the worker's
    half first, if the mask holds one CPU or if ``size`` (for a split in
    two, the first half's items) is at most one block, where a thread
    start (about 50 us) costs more than it saves.  Where affinity masks
    are missing, the worker runs unpinned.
    """
    pin = getattr(os, "sched_setaffinity", lambda pid, mask: None)
    if size <= _PAIR_BLOCK or len(cpus := _cpus()) < 2:
        f(*first)
        f(*second)
        return
    errors = []

    def work():
        try:
            f(*first)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    worker = threading.Thread(target=work)
    pin(0, cpus[1:])  # the worker starts with this mask
    try:
        worker.start()
        pin(0, cpus[:1])
        f(*second)
    finally:
        pin(0, cpus)
        worker.join()
    if errors:
        raise errors[0]


def _cpus() -> list[int]:
    """This thread's affinity mask, sorted; two CPUs where there are no masks."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0, 1]


def _near_pairs(x: np.ndarray, y: np.ndarray, low: np.uint64) -> list[int]:
    """Each i, ascending, where ``x[i]`` and ``y[i]`` differ only in the bits of ``low``.

    The two halves of ``y`` are scanned block by block on two threads.
    """
    half, width = y.size // 2, max(1, min(_PAIR_BLOCK, y.size))

    def scan(start, stop, out):
        xor, near = np.empty(width, np.uint64), np.empty(width, bool)
        for s in range(start, stop, width):
            m = min(width, stop - s)
            np.bitwise_xor(x[s:s + m], y[s:s + m], out=xor[:m])
            if np.less_equal(xor[:m], low, out=near[:m]).any():
                out += (np.flatnonzero(near[:m]) + s).tolist()

    found = ([], [])
    _on_two_threads(scan, (0, half, found[0]), (half, y.size, found[1]), half)
    return found[0] + found[1]


@dataclass(frozen=True)
class SimConfig:
    """Snapshot experiment configuration.

    ``employment_rate`` is 1 - u_i for the simulated group;
    ``informed_given_employed`` is P(contact holds info | employed).
    ValueError unless ``dist`` is a ``DegreeDistribution``, the sizes
    and seed integers in range and the rates real numbers in [0, 1],
    which are stored as floats.
    """

    dist: DegreeDistribution
    n_workers: int
    n_trials: int
    seed: int
    employment_rate: float
    informed_given_employed: float

    def __post_init__(self):
        if not isinstance(self.dist, DegreeDistribution):
            raise ValueError(f"simulated degree law must be a DegreeDistribution, got {self.dist!r}")
        for name, least in (("n_workers", 2), ("n_trials", 1), ("seed", 0)):
            count = as_count(getattr(self, name), name)
            if count < least:
                raise ValueError(f"{name} must be at least {least}, got {count}")
            object.__setattr__(self, name, count)
        for name in ("employment_rate", "informed_given_employed"):
            val = getattr(self, name)
            if not (isinstance(val, numbers.Real) and 0.0 <= val <= 1.0):
                raise ValueError(f"{name} must be a real number in [0, 1], got {val!r}")
            object.__setattr__(self, name, float(val))

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
        n_workers: int,
        n_trials: int,
        seed: int,
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

    Builds the social network, or for a Poisson law draws only its focal
    workers' reachable degrees, then runs ``n_trials`` independent focal
    draws as described in the module docstring.  Raises if the group has
    no unemployed workers to sample (employment_rate == 1).
    """
    if config.employment_rate >= 1.0:
        raise ValueError("no unemployed focal candidates: employment rate is 1")
    rng = np.random.default_rng(config.seed)
    n, t = config.n_workers, config.n_trials
    if isinstance(config.dist, Poisson):
        reachable = _focal_reachable(rng, n, config.dist.lam, t)
    else:
        reachable = build_configuration_network(config.dist, n, rng).reachable_degrees()[
            rng.integers(0, n, size=t)]
    q = config.employment_rate * config.informed_given_employed
    informed = rng.random(t) < -np.expm1(reachable * math.log1p(-q))
    successes = int(np.count_nonzero(informed))
    est = successes / t
    se = math.sqrt(est * (1.0 - est) / t)
    return ReferralEstimate(estimate=est, std_error=se, n_trials=t, successes=successes)
