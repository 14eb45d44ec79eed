"""Monte Carlo cross-validation of the mean-field referral formulas.

A configuration-model social network with sampled degrees is drawn,
then a snapshot experiment estimates the probability that an
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
order does not matter, so an estimate draws just those, from the
focal workers' stubs alone (see Focal stubs), and builds no network.

Even totals.  The degrees are i.i.d. conditioned on an even sum,
exactly, by one rule for the builder and the estimate.  A Poisson law
redraws its stub total (see Poisson networks).  A regular law has a
fixed parity: where n k is odd the last node gets one extra stub.  A
Zipf law draws all n degrees, keeps the first n - B (B = 64, or n if
smaller) with probability Q(p) / max(Q(0), Q(1)), where p is the
parity the last B must sum to for an even total and Q(p) = (1 + (-1)^p
(2^(1 - alpha) - 1)^B) / 2 the probability that B degrees sum to parity
p (P(d even) = 2^-alpha), else draws all n again, then redraws the last
B until the total is even.  The kept degrees then have the law of the
first n - B given an even total, and the last B that of B degrees
given their parity, so the sequence is exact; a Zipf(2.028) sequence
keeps its first draw but for a chance of 2e-19.  Any other law
redraws all n degrees until their sum is even.  A law that keeps no
sequence in 100 draws raises ValueError; that takes a sum that is
almost never even, as for Zipf(20) on 1,001 nodes, whose degrees are
odd but for one in 10^6.  On 64 nodes or fewer a Zipf law's block is
the whole sequence, and each redraw of it counts against the 100:
Zipf(20) on 3 nodes, whose sum is even once in 3.5 x 10^5 draws,
raises almost always, and Zipf(5) on 3 nodes (once in 11) in about
one seed of 10^4.  (Resampling only the last degree, the old
rule, weighs each sequence by 1 / P(that degree has the parity
needed), which is biased wherever P(d even) is not 1/2: for
Zipf(2.028) it is 0.245.)

Poisson networks.  Take i.i.d. Poisson(lam) degrees d_i on n nodes and
their N stubs in uniform order.  An owner sequence s_1 ... s_N then has
probability prod_i e^-lam lam^d_i / d_i! * prod_i d_i! / N! =
e^-(n lam) (n lam)^N / N! * n^-N: a Poisson(n lam) stub total with i.i.d.
uniform owners (the Erdos-Renyi multigraph of the configuration model,
Newman, Strogatz & Watts 2001, PRE 64 026118).  So a Poisson network
draws its total, redrawn until it is even, which conditions the degrees
on an even sum exactly, then that many uniform owners in one draw, and
counts its degrees from them.  Its M = N / 2 edges (stubs 2k and
2k + 1) are then i.i.d. uniform ordered pairs of nodes.

Focal stubs.  Take a uniform matching of N stubs, and the S stubs of a
set F of m focal workers.  The number b of edges with both ends among
the focal stubs has P(b + 1) / P(b) = (S - 2b)(S - 2b - 1) / ((2b + 2)
(N - 2S + 2b + 2)); given b, the focal stubs in uniform order pair
their first 2b, and a worker's reachable degree is its degree less
two per pair of its own stubs.  An estimate draws the degrees (regular
and Zipf: all n, as the builder does, but no stub list; Poisson: only
the even total N), then the t uniform picks, which give F, then b and
the focal stubs' order:
- Regular and Zipf: S is the focal workers' degree sum.  b is two
  hypergeometric draws: with the stubs in uniform order, x ~
  Hypergeometric(M, M; S) focal stubs take even places (edge k's first
  end, place 2k) and S - x odd ones, each a uniform set of places, so b,
  the odd places whose edge's even place is focal, is
  Hypergeometric(x, M - x; S - x).
  numpy draws these for M < 10^9 only.  The focal worker of largest
  degree d, the hub, is paired by counts alone: given b, the 2b paired
  focal stubs are a uniform set of them, uniformly matched, so
  c ~ Hypergeometric(d, S - d; 2b) of them are the hub's, l, the b of
  c stubs among 2b, are its self-loops, c - 2l pair it with the others
  and b' = b - c + l edges join two of the others.  The other focal
  stubs are put in uniform order by the stub pairing below, with the
  hub's count at 0, and pair their first 2b'; the hub's reachable
  degree is d - 2l.  So a heavy-tailed law sorts the stubs of all but
  its largest focal degree: at 10^5 picks of 10^5 Zipf(2.028) nodes,
  in 200 seeds S reached 1.0e7 while S - d stayed below 760,000 (in one
  seed a focal hub held 901,840 of S = 1,285,027 stubs).
- Poisson: its edges are i.i.d. uniform pairs of nodes, so with
  f = m / n, b ~ Binomial(M, f^2) edges have both ends in F and
  one ~ Binomial(M - b, 2f / (1 + f)) exactly one, S = 2b + one, and
  the focal stubs' owners are i.i.d. uniform on F, so their draw order
  is already uniform and they need no sort.  The 2b paired ends are
  drawn in one array, for their self-loops; the unpaired ones only
  count, and are drawn and counted 2^20 at a time, so no array of more
  than max(2b, 2^20) ends is made: one array of all S ends (17 MB at
  10^5 picks of 10^6 nodes) would need a fresh mmap wherever the freed
  blocks are smaller, and would set the process's peak RSS.
That is the law of building the network and reading its focal
workers, at a cost set by t and the degree law, not n: no estimate
holds all N stubs, and a Poisson one not even an n-long array.  An
estimate whose focal stubs would take more than ``_FOCAL_STUB_BYTES``
(1 GiB, 8 bytes a stub) raises ValueError naming their count before it
draws them; a focal Zipf hub can ask for that many.  So does a regular
or Zipf estimate whose n degrees would, before it draws them.

Stub pairing.  The stubs of a regular or Zipf network, and the focal
stubs of its estimate, are put in uniformly random order by sorting
random 64-bit keys that carry each stub's owner in their low bits, with
every run of tied random bits put in random order; edge k joins stubs
2k and 2k + 1, as in a Poisson network.  All the keys are drawn in
one call and given their owners node chunk by node chunk.  Only the
first P stubs are read (a network: all; an estimate: the 2b' paired
focal stubs), so the keys are split in place at P, the first P at
P // 2, and the two parts sorted; the tie runs among the first P are
then shuffled in ascending order and those P keys masked.  Where a tie
run crosses the cut at P, all the keys are sorted and every run
shuffled first, so the first P keep their exact law.  So a seed gives
the first P owners bit for bit as one draw and one sort of all the
keys (``tools/mc_diff.py`` compares two checkouts' estimates).

Threads.  Only the sort of the two parts runs on two threads; a
Poisson network or estimate starts none.  The worker sorts the first
part pinned to all but the first CPU of the calling thread's affinity
mask, and the calling thread the second pinned to the first; left to
itself, the kernel may start the worker on the caller's CPU and keep
both there.  With one CPU in the mask, or a first part of at most one
block, both parts are sorted in turn on the calling thread and no
thread starts.  The sort works in place in the keys, made on the
calling thread: glibc gives each thread its own heap, and memory freed
there stays resident.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .degree import Degenerate, DegreeDistribution, Poisson, Zipf, as_count
from .model import contact_reach

__all__ = ["Network", "SimConfig", "ReferralEstimate", "build_configuration_network",
           "estimate_referral_rate"]

# A Zipf law redraws its last _PARITY_BLOCK degrees for an even total;
# a law that keeps no degrees in _PARITY_RESAMPLE_LIMIT draws raises.
_PARITY_BLOCK = 64
_PARITY_RESAMPLE_LIMIT = 100
# An estimate's focal stubs take 8 bytes each, at most this many in all.
_FOCAL_STUB_BYTES = 1 << 30
# Stubs per node chunk of keys (on average: a hub's chunk holds more) and
# keys per block of the tie scan; a sort whose first part holds at most
# one block stays on one thread.  A Poisson estimate draws and counts its
# unpaired focal ends 16 blocks (8 MB) at a time.
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
        return _less_loops(self.degrees.copy(), self.stubs)


def build_configuration_network(dist: DegreeDistribution, n: int,
                                rng: np.random.Generator) -> Network:
    """Uniform stub-matching network of ``n`` nodes with i.i.d. degrees from ``dist``.

    The degrees are conditioned on an even sum exactly, by the rule in
    the module docstring: a Poisson network is a Poisson(n lam) stub
    total, redrawn until it is even, of i.i.d. uniform stub owners in
    draw order; other laws draw their degrees and pair the stubs by
    random keys.  Self-loops and parallel edges are kept: they vanish
    asymptotically and removing them would distort the degree sequence.

    Everything is drawn from ``rng``.  ValueError unless ``dist`` is a
    ``DegreeDistribution``, ``n`` an integer >= 2 and ``rng`` a
    ``numpy.random.Generator``, or if the law gives no even total.
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
    degrees = _even_degrees(dist, n, rng)
    return Network(n=n, degrees=degrees, stubs=_pair_stubs(rng, degrees))


def _even_total(rng: np.random.Generator, n: int, lam: float) -> int:
    """A Poisson(n lam) stub total, redrawn until it is even."""
    while (total := int(rng.poisson(n * lam))) % 2:
        pass
    return total


def _even_degrees(dist: DegreeDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` i.i.d. degrees from ``dist`` conditioned on an even sum (see the module docstring)."""
    degrees = dist.sample(rng, n)
    if isinstance(dist, Degenerate):  # fixed parity: one extra stub on the last node
        degrees[-1] += degrees.sum() % 2
        return degrees
    block = min(_PARITY_BLOCK, n) if isinstance(dist, Zipf) else 0
    # The block's sum is even with probability (1 + bias) / 2, as P(d even) = 2^-alpha;
    # any other law has no block and keeps only an even sum.
    bias = (2.0 ** (1.0 - dist.alpha) - 1.0) ** block if block else 1.0
    for _ in range(_PARITY_RESAMPLE_LIMIT):
        need = int(degrees[:n - block].sum()) % 2  # the parity the block's sum must have
        # Keep the rest with probability P(the block's sum has parity need) / the larger one;
        # a block of all n degrees keeps only an even sum.
        if (int(degrees.sum()) % 2 == 0 if block == n else
                rng.random() * (1.0 + abs(bias)) < 1.0 + bias - 2.0 * bias * need):
            break
        degrees = dist.sample(rng, n)
    else:
        raise ValueError(f"{dist!r} gave no even stub total on {n} nodes")
    while int(degrees[n - block:].sum()) % 2 != need:
        degrees[n - block:] = dist.sample(rng, block)
    return degrees


def _focal_reachable(rng: np.random.Generator, dist: DegreeDistribution, n: int,
                     t: int) -> np.ndarray:
    """Reachable degrees at ``t`` uniform picks from a network of ``n`` nodes with law ``dist``.

    Exactly the law of ``build_configuration_network`` followed by the
    picks, but drawn from the focal workers' stubs alone (see the module
    docstring), in ascending order of the picked worker's id.
    ValueError if the focal stubs pass ``_FOCAL_STUB_BYTES``, or if a
    regular or Zipf network has 10^9 edges or more (the most numpy's
    hypergeometric draw takes).
    """
    poisson = isinstance(dist, Poisson)
    if not poisson and 8 * n > _FOCAL_STUB_BYTES:
        raise ValueError(f"{n} degrees need more than the {_FOCAL_STUB_BYTES}-byte budget")
    degrees = None if poisson else _even_degrees(dist, n, rng)
    total = _even_total(rng, n, dist.lam) if poisson else int(degrees.sum())
    picks = np.sort(rng.integers(0, n, size=t))
    later = np.concatenate(([False], picks[1:] != picks[:-1]))  # first pick of a later worker
    slot = np.cumsum(later)  # each pick's index in the focal set
    m = int(slot[-1]) + 1  # f = m / n of the nodes are focal
    if poisson:  # edges with both ends in the focal set, then with one: 2f(1 - f) / (1 - f^2)
        pairs = int(rng.binomial(total // 2, (m / n) ** 2))
        stubs = 2 * pairs + int(rng.binomial(total // 2 - pairs, 2 * m / (n + m)))
    else:
        reachable = degrees[np.append(picks[0], picks.compress(later))]
        stubs, top = int(reachable.sum()), int(reachable.argmax())
        hub, reachable[top] = int(reachable[top]), 0  # paired by counts alone
        pairs = int(_focal_pairs(rng, stubs, total))  # edges within the focal stubs
        at_hub = int(rng.hypergeometric(hub, stubs - hub, 2 * pairs))  # hub stubs among them
        loops = int(_focal_pairs(rng, at_hub, 2 * pairs))
        pairs -= at_hub - loops  # edges within the other focal stubs
    if 8 * stubs > _FOCAL_STUB_BYTES:
        raise ValueError(f"{stubs} focal stubs need more than the {_FOCAL_STUB_BYTES}-byte budget")
    if poisson:  # i.i.d. uniform ends in the focal set: the paired ones, then the rest by blocks
        ends = rng.integers(0, m, size=2 * pairs)
        reachable = np.bincount(ends, minlength=m)
        for i in range(2 * pairs, stubs, block := _PAIR_BLOCK << 4):
            reachable += np.bincount(rng.integers(0, m, min(block, stubs - i)), minlength=m)
    else:  # the hub's entry is 0 while the other focal stubs are paired
        ends, reachable[top] = _pair_stubs(rng, reachable, 2 * pairs), hub - 2 * loops
    return _less_loops(reachable, ends)[slot]


def _focal_pairs(rng: np.random.Generator, stubs, total):
    """Edges with both ends among ``stubs`` of ``total`` uniformly matched stubs (arrays too).

    The stubs in uniform order, edge k joining places 2k and 2k + 1, put
    the focal ones at a uniform set of places: x of the M = N / 2 even
    places, and the rest at a uniform set of odd places, b of which
    follow a focal even place.
    """
    x = rng.hypergeometric(total // 2, total // 2, stubs)
    return rng.hypergeometric(x, total // 2 - x, stubs - x)


def _less_loops(reachable: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``reachable`` less two per self-loop: equal ends ``ends[2k]`` and ``ends[2k + 1]``."""
    np.subtract.at(reachable, ends[0::2].compress(ends[0::2] == ends[1::2]), 2)
    return reachable


def _pair_stubs(rng: np.random.Generator, degrees: np.ndarray, paired=None) -> np.ndarray:
    """Owners of the first ``paired`` (default: all) stubs, in uniformly random order.

    Each stub gets a uniform 64-bit key whose low bits are overwritten
    with its owner's id; sorting the keys orders the stubs by their
    random high bits, and masking leaves the owners.  The keys are drawn
    in one call and stamped node chunk by node chunk, so they are the
    only stub-length array; only the first ``paired`` are sorted (see the
    module docstring).
    """
    n, total = degrees.size, int(degrees.sum())
    paired = total if paired is None else paired
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    keys = rng.integers(0, 1 << 64, total, np.uint64)
    step, lo = max(1, n * _PAIR_BLOCK // max(total, 1)), 0  # nodes per chunk; its first stub
    for a in range(0, n, step):
        owners = np.repeat(np.arange(a, min(a + step, n), dtype=np.uint64), degrees[a:a + step])
        chunk, lo = keys[lo:lo + owners.size], lo + owners.size
        chunk &= ~low
        chunk |= owners
    # Each partition puts every key before its cut at most every key after it.
    half, end = paired // 2, paired
    if paired < total:
        keys.partition(paired)
    if half:
        keys[:paired].partition(half)
    _on_two_threads(np.ndarray.sort, (keys[:half],), (keys[half:paired],), half)
    if 0 < paired < total and keys[paired - 1] ^ keys[paired] <= low:  # a tie run crosses the cut
        keys[paired:].sort()
        end = total
    # Sorted i.i.d. keys are a uniform order only where the high bits
    # differ: each run of equal high bits among the first end goes in
    # random order.
    ties = []
    for s in range(0, end - 1, _PAIR_BLOCK):  # each i where keys i and i + 1 tie
        e = min(s + _PAIR_BLOCK, end - 1)
        ties += (np.flatnonzero((keys[s:e] ^ keys[s + 1:e + 1]) <= low) + s).tolist()
    lo = hi = 0  # the run [lo, hi) being formed
    for i in [*ties, end]:
        if i >= hi:
            keys[lo:hi] = keys[lo:hi][rng.permutation(hi - lo)]  # no draw where hi - lo < 2
            lo = i
        hi = i + 2
    return np.bitwise_and(keys[:paired], low, out=keys[:paired]).view(np.int64)


def _on_two_threads(f, first: tuple, second: tuple, size: int) -> None:
    """Run ``f(*first)`` on a worker thread and ``f(*second)`` on this one, each on its own CPU.

    The worker starts pinned to all but the first CPU of this thread's
    affinity mask and this thread pins itself to the first; its own mask
    is restored before the call returns or raises.  Joins the worker and
    re-raises its exception, if any, here.  The two calls (the sorts of
    the two parts of the stub keys) must write disjoint memory, write
    results only into arrays made by the caller and make no large
    temporaries (see the module docstring).  Both run in turn on this
    thread, the worker's first, if the mask holds one CPU or if ``size``
    (the first part's items) is at most one block, where a thread start
    (about 50 us) costs more than it saves.  Where affinity masks
    are missing, the worker runs unpinned.
    """
    pin = getattr(os, "sched_setaffinity", lambda pid, mask: None)
    mask = getattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two CPUs where there are no masks
    if size <= _PAIR_BLOCK or len(cpus := sorted(mask(0))) < 2:
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
    def at_context(cls, dist: DegreeDistribution, *, u_i: float, u: float, v: float, phi: float,
                   d_f: int, n_workers: int, n_trials: int, seed: int) -> "SimConfig":
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

    Draws the reachable degrees of the trials' focal workers from their
    stubs alone, then runs ``n_trials`` independent focal draws, as
    described in the module docstring.  ValueError if the group has no
    unemployed workers to sample (employment_rate == 1) or the focal
    stubs pass the memory budget.
    """
    if config.employment_rate >= 1.0:
        raise ValueError("no unemployed focal candidates: employment rate is 1")
    rng = np.random.default_rng(config.seed)
    t = config.n_trials
    reachable = _focal_reachable(rng, config.dist, config.n_workers, t)
    q = config.employment_rate * config.informed_given_employed
    successes = int(np.count_nonzero(rng.random(t) < -np.expm1(reachable * math.log1p(-q))))
    est = successes / t
    se = math.sqrt(est * (1.0 - est) / t)
    return ReferralEstimate(estimate=est, std_error=se, n_trials=t, successes=successes)
