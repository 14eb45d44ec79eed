"""Configuration-model networks and the Monte Carlo referral check."""

import itertools
import math
import os
import threading
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from refmatch import Degenerate, Poisson, Zipf, degree, simulate
from refmatch.simulate import SimConfig, build_configuration_network, estimate_referral_rate

# Baseline snapshot context shared by the estimator tests (unemployment,
# aggregate unemployment, vacancy rate, referral frequency, job degree).
CONTEXT = dict(u_i=0.044, u=0.044, v=0.04, phi=0.048, d_f=16)


# Every matching of two stub lists with its probability under uniform
# pairing: four single stubs pair in 3 ways, and [2, 1, 1] closes its
# self-loop in 1 of 3.
MATCHINGS = {
    (1, 1, 1, 1): {((0, 1), (2, 3)): 1 / 3, ((0, 2), (1, 3)): 1 / 3, ((0, 3), (1, 2)): 1 / 3},
    (2, 1, 1): {((0, 0), (1, 2)): 1 / 3, ((0, 1), (0, 2)): 2 / 3},
}
SEEDS = 30_000


class OneBitKeys:
    """A PCG64 generator whose 64-bit keys keep one random high bit, so keys tie.

    Each key is the top bit of one 64-bit draw, so a copy advanced by k
    draws gives the keys from the k-th on, as the split key draw needs.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator

    def integers(self, low, high, size, dtype):
        return self._rng.integers(low, high, size=size, dtype=dtype) >> dtype(63) << dtype(63)

    def permutation(self, n):
        return self._rng.permutation(n)


def config_for(dist, n_workers=50_000, n_trials=50_000, seed=11):
    return SimConfig.at_context(
        dist, n_workers=n_workers, n_trials=n_trials, seed=seed, **CONTEXT
    )


def info_probability_in_context() -> float:
    vac = CONTEXT["v"] / (1.0 - CONTEXT["u"] + CONTEXT["v"])
    return CONTEXT["phi"] * (1.0 - CONTEXT["u_i"]) * (1.0 - (1.0 - vac) ** CONTEXT["d_f"])


def poisson_network_law(lam, n, most_edges):
    """Every edge multiset of up to ``most_edges`` edges on ``n`` nodes with its probability.

    The degrees are i.i.d. Poisson(lam) conditioned on an even total and
    the stubs are paired uniformly, so a multiset with degrees d, m
    edges, l_i self-loops at node i and e_ij edges between i < j has
    probability prod pmf(d_i) / P(even) * prod d_i! / (prod 2^l_i l_i!
    prod e_ij!) / (2m - 1)!!.
    """
    even = (1.0 + math.exp(-2.0 * n * lam)) / 2.0
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    law = {}
    for m in range(most_edges + 1):
        for edges in itertools.combinations_with_replacement(pairs, m):
            degrees = Counter(x for edge in edges for x in edge)
            p = 1.0 / even / math.prod(range(1, 2 * m, 2))
            for i in range(n):  # pmf(d_i) d_i! = e^-lam lam^d_i
                p *= math.exp(-lam) * lam ** degrees[i]
            for edge, count in Counter(edges).items():
                p /= math.factorial(count) * 2 ** (count * (edge[0] == edge[1]))
            law[edges] = p
    return law


def regular_network_law(k, n):
    """Every edge multiset of a degree-``k`` network on ``n`` nodes with its probability.

    The last node owns one extra stub where n k is odd, as in the
    builder, and every perfect matching of the stubs is equally likely.
    """
    counts = Counter()

    def match(owners, edges):
        if not owners:
            counts[tuple(sorted(edges))] += 1
        for i in range(1, len(owners)):
            match(owners[1:i] + owners[i + 1:], edges + [(owners[0], owners[i])])

    match([i for i in range(n) for _ in range(k)] + [n - 1] * (n * k % 2), [])
    total = sum(counts.values())
    return {edges: count / total for edges, count in counts.items()}


def focal_law(network_law, picks_law):
    """Law of the reachable degrees at sorted focal picks, from the network law.

    ``network_law`` maps each edge multiset to its probability and
    ``picks_law`` each sorted tuple of focal picks to its probability;
    the picks are independent of the network.
    """
    law = Counter()
    for edges, p in network_law.items():
        reachable = Counter(x for a, b in edges if a != b for x in (a, b))
        for picks, q in picks_law.items():
            law[tuple(reachable[i] for i in picks)] += p * q
    return law


def uniform_picks(n, t):
    """Each sorted tuple of ``t`` uniform picks from ``n`` nodes with its probability."""
    law = Counter()
    for picks in itertools.product(range(n), repeat=t):
        law[tuple(sorted(picks))] += n**-t
    return law


def assert_cells_match(counts, law, draws):
    """Each cell of ``law`` expected at least 5 times in ``draws`` within 5 se of its count.

    The cells expected fewer times are pooled into one; returns the
    number of cells checked on their own.
    """
    checked = {cell: p for cell, p in law.items() if draws * p >= 5.0}
    observed = [(counts[cell], p) for cell, p in checked.items()]
    observed.append((draws - sum(counts[cell] for cell in checked),
                     max(0.0, 1.0 - sum(checked.values()))))
    for count, p in observed:
        assert abs(count - draws * p) <= 5.0 * math.sqrt(draws * p * (1.0 - p)), (count, p)
    return len(checked)


def assert_same_law(ours, theirs):
    """Each cell seen at least 10 times in the two samples has proportions within 5 se.

    The se is that of the difference of two proportions, from the
    pooled one; the cells seen fewer times are pooled into one.
    """
    sizes = sum(ours.values()), sum(theirs.values())
    cells = [cell for cell in ours.keys() | theirs.keys() if ours[cell] + theirs[cell] >= 10]
    rest = [size - sum(side[cell] for cell in cells) for size, side in zip(sizes, (ours, theirs))]
    pairs = [(ours[cell], theirs[cell]) for cell in cells] + [tuple(rest)]
    for a, b in pairs:
        p = (a + b) / sum(sizes)
        se = math.sqrt(p * (1.0 - p) * (1.0 / sizes[0] + 1.0 / sizes[1]))
        assert abs(a / sizes[0] - b / sizes[1]) <= 5.0 * se, (a, b)
    return len(cells)


def affinity_mask(monkeypatch, cpus):
    """Make ``cpus`` every thread's affinity mask, which then cannot be set."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None, raising=False)


def thread_starts(monkeypatch):
    """The list that each thread started from now on appends itself to."""
    starts, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: starts.append(self) or start(self))
    return starts


def sorted_pairing(rng, degrees):
    """The pairing on one thread: sort all keys, shuffle each tie run in order, mask."""
    n, total = degrees.size, int(degrees.sum())
    bits = (n - 1).bit_length()
    low = np.uint64((1 << bits) - 1)
    keys = rng.integers(0, 1 << 64, size=total, dtype=np.uint64)
    keys = keys & ~low | np.repeat(np.arange(n, dtype=np.uint64), degrees)
    keys.sort()
    high = (keys >> np.uint64(bits)).tolist()
    lo = 0
    for i in range(1, total + 1):
        if i == total or high[i] != high[lo]:
            if i - lo > 1:
                keys[lo:i] = keys[lo:i][rng.permutation(i - lo)]
            lo = i
    return (keys & low).view(np.int64)


class TestNetworkBuild:
    def test_regular_degrees(self):
        net = build_configuration_network(Degenerate(2), 3, np.random.default_rng(5))
        assert list(net.degrees) == [2, 2, 2]
        assert net.stub_count == 6
        assert np.bincount(net.stubs, minlength=3).tolist() == [2, 2, 2]

    def test_empty_network(self):
        net = build_configuration_network(Degenerate(0), 10, np.random.default_rng(0))
        assert net.stub_count == 0
        assert net.stubs.size == 0

    @pytest.mark.parametrize("dist, n", [
        (Poisson(5.0), 500), (Zipf(2.3), 500), (Degenerate(3), 3), (Degenerate(0), 10),
    ], ids=["poisson", "zipf", "regular-parity-stub", "empty"])
    def test_stub_list_invariants(self, dist, n):
        net = build_configuration_network(dist, n, np.random.default_rng(3))
        assert net.n == n and net.stub_count % 2 == 0
        assert np.array_equal(np.bincount(net.stubs, minlength=n), net.degrees)
        # Reference: walk the edges (stubs[2k], stubs[2k + 1]) one at a time.
        reachable = [0] * n
        for a, b in zip(net.stubs[0::2].tolist(), net.stubs[1::2].tolist()):
            if a != b:
                reachable[a] += 1
                reachable[b] += 1
        assert net.reachable_degrees().tolist() == reachable

    def test_poisson_mean_degree_clt(self):
        lam, n = 22.47, 100_000
        net = build_configuration_network(Poisson(lam), n, np.random.default_rng(17))
        bound = 3.0 * math.sqrt(lam / n)
        assert abs(net.degrees.mean() - lam) < bound

    def test_odd_total_resampled_to_even(self):
        # Poisson redraws its stub total and Zipf its last degrees until
        # the total is even; a fixed odd degree cannot be fixed by
        # resampling and gets one extra stub
        for dist, seed in itertools.product([Poisson(3.0), Zipf(2.3)], range(6)):
            net = build_configuration_network(dist, 11, np.random.default_rng(seed))
            assert net.stub_count % 2 == 0
        net = build_configuration_network(Degenerate(3), 3, np.random.default_rng(1))
        assert net.stub_count == 10
        assert sorted(net.degrees.tolist()) == [3, 3, 4]

    def test_seed_reproducibility(self):
        a = build_configuration_network(Zipf(2.3), 2000, np.random.default_rng(123))
        b = build_configuration_network(Zipf(2.3), 2000, np.random.default_rng(123))
        assert np.array_equal(a.degrees, b.degrees)
        assert np.array_equal(a.stubs, b.stubs)
        c = build_configuration_network(Zipf(2.3), 2000, np.random.default_rng(124))
        assert not np.array_equal(a.stubs, c.stubs)

    def test_pairing_sorts_random_keys_carrying_the_owner_ids(self):
        # A seed's pairing is the owner list ordered by one uniform 64-bit
        # key per stub, drawn right after the degrees, whose low 9 bits
        # (enough for 300 ids) hold the owner.  The degrees are one draw,
        # whose first n - 64 are kept with probability P(the last 64 sum
        # to their parity) / the larger of the two, then the last 64
        # redrawn until the sum is even.
        dist, n, seed = Zipf(2.3), 300, 2
        net = build_configuration_network(dist, n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        degrees, rest = dist.sample(rng, n), n - simulate._PARITY_BLOCK
        need = degrees[:rest].sum() % 2
        bias = (2.0 ** (1.0 - dist.alpha) - 1.0) ** simulate._PARITY_BLOCK
        assert rng.random() * (1.0 + abs(bias)) < 1.0 + bias - 2.0 * bias * need  # kept
        while degrees[rest:].sum() % 2 != need:
            degrees[rest:] = dist.sample(rng, n - rest)
        assert np.array_equal(net.degrees, degrees)
        owners = np.repeat(np.arange(n), degrees)
        keys = rng.integers(0, 2**64, size=owners.size, dtype=np.uint64)
        keys = (keys >> np.uint64(9) << np.uint64(9)) | owners.astype(np.uint64)
        perm = np.argsort(keys)
        assert np.all(np.diff(keys[perm] >> np.uint64(9)) > 0)  # no ties to break
        assert np.array_equal(net.stubs, owners[perm])

    @pytest.mark.parametrize("seed, odd_totals", [(2, 0), (1, 1)])
    def test_poisson_stubs_are_uniform_owners(self, seed, odd_totals):
        # A seed's Poisson network is a Poisson(n lam) stub total, drawn
        # first and redrawn while odd, then that many uniform owners in
        # draw order; the degrees count them.
        lam, n = 5.0, 300
        net = build_configuration_network(Poisson(lam), n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        totals = [int(rng.poisson(n * lam)) for _ in range(odd_totals + 1)]
        assert [t % 2 for t in totals] == [1] * odd_totals + [0]
        stubs = rng.integers(0, n, size=totals[-1], dtype=np.int64)
        assert np.array_equal(net.stubs, stubs)
        assert np.array_equal(net.degrees, np.bincount(stubs, minlength=n))
        assert net.degrees.dtype == np.int64

    def test_poisson_network_has_the_configuration_model_law(self):
        # Each edge multiset expected at least 5 times is checked on its
        # own, and the rest pooled.  Resampling only the last degree (the
        # rule for other laws) would give P(no edge) 0.255, not 0.322.
        lam, n = 0.6, 3
        law = poisson_network_law(lam, n, 8)
        counts = Counter()
        for seed in range(SEEDS):
            net = build_configuration_network(Poisson(lam), n, np.random.default_rng(seed))
            pairs = np.sort(net.stubs.reshape(-1, 2), axis=1).tolist()
            counts[tuple(sorted(map(tuple, pairs)))] += 1
        checked = {edges: p for edges, p in law.items() if SEEDS * p >= 5.0}
        assert len(checked) > 10
        rest = 1.0 - sum(checked.values())
        observed = [(counts[edges], p) for edges, p in checked.items()]
        observed.append((SEEDS - sum(counts[edges] for edges in checked), rest))
        for count, p in observed:
            assert abs(count - SEEDS * p) < 5.0 * math.sqrt(SEEDS * p * (1.0 - p))

    @pytest.mark.parametrize("block", [None, 1], ids=["whole", "block-1"])
    def test_zipf_degrees_have_the_even_sum_law(self, block, monkeypatch):
        # i.i.d. Zipf(2.3) degrees on 3 nodes conditioned on an even sum:
        # each degree triple expected at least 5 times is checked on its
        # own, the rest pooled.  With 64-degree blocks all 3 degrees are
        # redrawn; with 1-degree blocks the first two are kept with the
        # parity weight.  Resampling only the last degree would give
        # (1, 1, 2) 0.340, not 0.175.
        if block:
            monkeypatch.setattr(simulate, "_PARITY_BLOCK", block)
        dist, draws = Zipf(2.3), 10_000
        rng = np.random.default_rng(8)
        counts = Counter(tuple(simulate._even_degrees(dist, 3, rng).tolist())
                         for _ in range(draws))
        pmf = [0.0] + [k**-dist.alpha / degree.zeta(dist.alpha) for k in range(1, 40)]
        even = (1.0 + (2.0 ** (1.0 - dist.alpha) - 1.0) ** 3) / 2.0
        law = {d: pmf[d[0]] * pmf[d[1]] * pmf[d[2]] / even
               for d in itertools.product(range(1, 40), repeat=3) if sum(d) % 2 == 0}
        assert all(sum(d) % 2 == 0 for d in counts)
        assert assert_cells_match(counts, law, draws) > 10

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        # With 4-stub blocks every key-paired build's two-thread work
        # splits, unless the affinity mask holds one CPU.
        monkeypatch.setattr(simulate, "_PAIR_BLOCK", 4)
        starts = thread_starts(monkeypatch)
        for dist in (Degenerate(5), Zipf(2.3)):
            for mask in ({0, 1}, {3}):
                affinity_mask(monkeypatch, mask)
                starts.clear()
                build_configuration_network(dist, 500, np.random.default_rng(0))
                assert bool(starts) == (len(mask) == 2), (dist, mask)

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
        np.random.MT19937], ids=lambda x: x.__name__)
    @pytest.mark.parametrize("pending", [False, True], ids=["whole", "pending-half"])
    def test_poisson_build_equals_one_draw_and_count(self, bit_generator, pending, monkeypatch):
        # The owners are one draw of all of them, the degrees their count,
        # and the generator goes on as after that one draw, on one thread
        # even where two-thread work would split at 4-stub blocks.
        monkeypatch.setattr(simulate, "_PAIR_BLOCK", 4)
        affinity_mask(monkeypatch, {0, 1})
        starts, totals, n = thread_starts(monkeypatch), [], 7
        for seed, lam in itertools.product(range(8), (0.1, 0.5, 2.0, 9.0)):
            ours, theirs = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            if pending:
                for gen in (ours, theirs):
                    gen.integers(0, 5, dtype=np.uint32)
                assert ours.bit_generator.state.get("has_uint32", 1) == 1  # MT19937 keeps none
            net = build_configuration_network(Poisson(lam), n, ours)
            total = 1
            while total % 2:
                total = int(theirs.poisson(n * lam))
            stubs = theirs.integers(0, n, size=total, dtype=np.int64)
            totals.append(total)
            assert np.array_equal(net.stubs, stubs)
            assert np.array_equal(net.degrees, np.bincount(stubs, minlength=n))
            assert ours.random() == theirs.random()
            # A 32-bit draw takes the pending half first, if there is one.
            assert ours.integers(0, 1 << 32, dtype=np.uint32) == theirs.integers(
                0, 1 << 32, dtype=np.uint32)
        assert 0 in totals and max(totals) > 32
        assert not starts

    @pytest.mark.parametrize("make_rng", [np.random.default_rng, OneBitKeys],
                             ids=["random-keys", "tied-keys"])
    @pytest.mark.parametrize("degrees", list(MATCHINGS), ids=["1-1-1-1", "2-1-1"])
    def test_pairing_is_a_uniform_matching(self, degrees, make_rng, monkeypatch):
        # With tied keys every run of equal high bits must go in random
        # order, and 2-key blocks make those runs cross block edges.
        if make_rng is OneBitKeys:
            monkeypatch.setattr(simulate, "_PAIR_BLOCK", 2)
        orders = Counter(simulate._pair_stubs(make_rng(seed), np.array(degrees)).tobytes()
                         for seed in range(SEEDS))
        counts = Counter()
        for order, count in orders.items():
            pairs = np.sort(np.frombuffer(order, dtype=np.int64).reshape(-1, 2))
            counts[tuple(sorted(map(tuple, pairs.tolist())))] += count
        assert counts.keys() == MATCHINGS[degrees].keys()
        for matching, p in MATCHINGS[degrees].items():
            assert abs(counts[matching] - SEEDS * p) < 5.0 * math.sqrt(SEEDS * p * (1.0 - p))

    @pytest.mark.parametrize("make_rng", [np.random.default_rng, OneBitKeys],
                             ids=["random-keys", "tied-keys"])
    @pytest.mark.parametrize("total", [0, 2, 9, 10, 14, 19, 22, 38])
    def test_split_pairing_equals_one_sort(self, total, make_rng, monkeypatch):
        # 4-stub blocks put block edges, odd block tails and the split
        # between the halves inside tie runs and self-loops; halves of
        # more than one block run on two threads.
        monkeypatch.setattr(simulate, "_PAIR_BLOCK", 4)
        degrees = np.bincount(np.arange(total) % 7, minlength=7)
        for seed in range(20):
            stubs = simulate._pair_stubs(make_rng(seed), degrees)
            assert np.array_equal(stubs, sorted_pairing(make_rng(seed), degrees))
            if total % 2:
                continue
            net = simulate.Network(n=7, degrees=degrees, stubs=stubs)
            reachable = [0] * 7
            for a, b in zip(stubs[0::2].tolist(), stubs[1::2].tolist()):
                if a != b:
                    reachable[a] += 1
                    reachable[b] += 1
            assert net.reachable_degrees().tolist() == reachable

    @pytest.mark.parametrize("bit_generator, split", [
        (np.random.PCG64, True), (np.random.PCG64DXSM, True), (np.random.Philox, False),
        (np.random.MT19937, False), (np.random.SFC64, False),
    ], ids=lambda x: getattr(x, "__name__", str(x)))
    @pytest.mark.parametrize("degrees, pending", [
        ([6, 5, 5, 6, 5, 5, 6], False),
        ([6, 5, 5, 6, 5, 5, 6], True),  # a 32-bit half is pending before the keys
        ([30, 1, 1, 1, 1], False),  # the hub's chunk holds the middle stub and comes first
        ([1, 1, 1, 1, 30], False),  # ... and comes last
        ([0] * 7, False),
    ], ids=["spread", "pending-half", "hub-first", "hub-last", "empty"])
    def test_split_draw_leaves_one_draws_state(self, degrees, pending, bit_generator, split,
                                               monkeypatch):
        # The keys drawn in two parts, the later one by an advanced copy,
        # equal one draw of all of them, and the generator goes on as
        # after that one draw.  Only the PCG generators split.
        monkeypatch.setattr(simulate, "_PAIR_BLOCK", 4)
        run = simulate._on_two_threads
        staged = []
        monkeypatch.setattr(simulate, "_on_two_threads",
                            lambda f, *args: staged.append(f.__name__) or run(f, *args))
        degrees = np.array(degrees)
        for seed in range(10):
            ours, theirs = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            if pending:
                for gen in (ours, theirs):
                    gen.integers(0, 5, dtype=np.uint32)
                assert ours.bit_generator.state.get("has_uint32", 1) == 1  # MT19937 keeps none
            stubs = simulate._pair_stubs(ours, degrees)
            assert np.array_equal(stubs, sorted_pairing(theirs, degrees))
            assert ours.random() == theirs.random()
            # A 32-bit draw takes the pending half first, if there is one.
            assert ours.integers(0, 1 << 32, dtype=np.uint32) == theirs.integers(
                0, 1 << 32, dtype=np.uint32)
        assert ("stamp" in staged) == (split and sum(degrees) > 0)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            build_configuration_network(Poisson(3.0), 1, np.random.default_rng(0))

    @pytest.mark.parametrize("dist, n, rng, match", [
        (Poisson(3.0), 2.5, None, "network size n must be an integer"),
        (Poisson(3.0), -4, None, "network size n must be an integer"),
        (Poisson(3.0), "10", None, "network size n must be an integer"),
        (Poisson(3.0), math.inf, None, "network size n must be an integer"),
        (Zipf(2.3), 10, 7, "must be a numpy.random.Generator"),
        (Zipf(2.3), 10, np.random.RandomState(7), "must be a numpy.random.Generator"),
        ("poisson", 10, None, "must be a DegreeDistribution"),
        (None, 10, None, "must be a DegreeDistribution"),
    ], ids=["fractional-n", "negative-n", "string-n", "infinite-n", "int-seed",
            "random-state", "string-law", "no-law"])
    def test_bad_inputs_raise_value_error(self, dist, n, rng, match):
        # None stands for a valid generator.
        with pytest.raises(ValueError, match=match):
            build_configuration_network(dist, n, np.random.default_rng(0) if rng is None else rng)

    @pytest.mark.parametrize("n", [10.0, np.int64(10), np.float64(10.0)],
                             ids=["float", "numpy-int", "numpy-float"])
    def test_integral_n_is_a_python_int(self, n):
        for dist in (Poisson(3.0), Zipf(2.3)):
            net = build_configuration_network(dist, n, np.random.default_rng(4))
            same = build_configuration_network(dist, 10, np.random.default_rng(4))
            assert type(net.n) is int and net.n == 10
            assert np.array_equal(net.stubs, same.stubs)


class TestReferralEstimate:
    def test_zero_referral_frequency_is_exact_zero(self):
        config = SimConfig.at_context(
            Poisson(10.0), u_i=0.05, u=0.05, v=0.04, phi=0.0, d_f=16,
            n_workers=5_000, n_trials=5_000, seed=2,
        )
        est = estimate_referral_rate(config)
        assert est.estimate == 0.0
        assert est.successes == 0

    def test_no_contacts_is_exact_zero(self):
        est = estimate_referral_rate(config_for(Degenerate(0), n_workers=5_000, n_trials=5_000))
        assert est.estimate == 0.0
        assert est.std_error == 0.0

    def test_network_conditional_exactness_with_self_loops(self, monkeypatch):
        # A configuration network of degree-k nodes has (k - 1) / 2
        # self-loops on average, whatever its size, so 4 nodes of degree
        # 40 have about 20, which take about 10 of each node's 40 contacts
        # away.  At a contact information rate of 3% that lowers the
        # network's success rate from about 0.70 to 0.60, about 100
        # standard errors, so the estimate must track the exact
        # network-conditional mean, not the one over raw degrees.
        config = SimConfig(
            dist=Degenerate(40), n_workers=4, n_trials=200_000, seed=3,
            employment_rate=0.9, informed_given_employed=0.03 / 0.9,
        )
        # The estimator's own reachable degrees, one per trial.
        focal = simulate._focal_reachable
        seen = []
        monkeypatch.setattr(simulate, "_focal_reachable",
                            lambda *args: seen.append(focal(*args)) or seen[-1])
        est = estimate_referral_rate(config)
        (reachable,) = seen
        assert reachable.size == config.n_trials and np.any(reachable < 40)
        q = config.employment_rate * config.informed_given_employed
        exact = np.mean(1.0 - (1.0 - q) ** reachable)
        ignoring_loops = 1.0 - (1.0 - q) ** 40
        assert abs(est.z_score(exact)) < 4.0
        assert abs(est.z_score(ignoring_loops)) > 4.0

    @pytest.mark.parametrize(
        "dist",
        [Poisson(22.47), Degenerate(16), Zipf(2.0279243)],
        ids=["poisson", "regular", "zipf"],
    )
    def test_matches_mean_field_within_three_se(self, dist):
        est = estimate_referral_rate(config_for(dist))
        target = dist.referral_expectation(info_probability_in_context())
        assert abs(est.estimate - target) < 3.0 * est.std_error

    def test_reproducible_estimates(self):
        a = estimate_referral_rate(config_for(Poisson(8.0), n_workers=10_000, n_trials=10_000))
        b = estimate_referral_rate(config_for(Poisson(8.0), n_workers=10_000, n_trials=10_000))
        assert a == b

    def test_standard_error_is_binomial(self):
        est = estimate_referral_rate(config_for(Degenerate(16), n_workers=10_000, n_trials=10_000))
        expected = math.sqrt(est.estimate * (1.0 - est.estimate) / est.n_trials)
        assert est.std_error == pytest.approx(expected, rel=1e-12)

    def test_no_unemployed_candidates(self):
        config = SimConfig(
            dist=Poisson(5.0), n_workers=100, n_trials=10, seed=0,
            employment_rate=1.0, informed_given_employed=0.02,
        )
        with pytest.raises(ValueError):
            estimate_referral_rate(config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dist=Poisson(5.0), n_workers=1, n_trials=10, seed=0,
                      employment_rate=0.9, informed_given_employed=0.02)
        with pytest.raises(ValueError):
            SimConfig(dist=Poisson(5.0), n_workers=100, n_trials=0, seed=0,
                      employment_rate=0.9, informed_given_employed=0.02)
        with pytest.raises(ValueError):
            SimConfig(dist=Poisson(5.0), n_workers=100, n_trials=10, seed=0,
                      employment_rate=1.2, informed_given_employed=0.02)
        with pytest.raises(ValueError):
            SimConfig(dist=Poisson(5.0), n_workers=100, n_trials=10, seed=0,
                      employment_rate=0.9, informed_given_employed=1.5)
        with pytest.raises(ValueError, match="n_workers must be an integer >= 0"):
            SimConfig(dist=Poisson(5.0), n_workers=2.5, n_trials=10, seed=0,
                      employment_rate=0.9, informed_given_employed=0.02)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            SimConfig(dist=Poisson(5.0), n_workers=100, n_trials=10, seed=-1,
                      employment_rate=0.9, informed_given_employed=0.02)
        rates = dict(employment_rate=0.9, informed_given_employed=0.02)
        for dist in ("x", None, Poisson):
            with pytest.raises(ValueError, match="must be a DegreeDistribution"):
                SimConfig(dist=dist, n_workers=100, n_trials=10, seed=0, **rates)
        for name, bad in itertools.product(rates, ("0.5", None, [0.5], 0.5 + 0j, math.nan)):
            with pytest.raises(ValueError, match=f"{name} must be a real number in"):
                SimConfig(dist=Poisson(5.0), n_workers=100, n_trials=10, seed=0,
                          **{**rates, name: bad})
        for good in (np.float32(0.5), Fraction(1, 2), 1, True):
            config = SimConfig(dist=Poisson(5.0), n_workers=100, n_trials=10, seed=0,
                               employment_rate=good, informed_given_employed=good)
            assert type(config.employment_rate) is type(config.informed_given_employed) is float
            assert config.employment_rate == float(good)
        sizes = dict(n_workers=100, n_trials=10, seed=0)
        with pytest.raises(ValueError, match="d_f must be an integer >= 0"):
            SimConfig.at_context(Poisson(5.0), **sizes, **{**CONTEXT, "d_f": 2.5})
        with pytest.raises(ValueError, match="referral frequency"):
            SimConfig.at_context(Poisson(5.0), **sizes, **{**CONTEXT, "phi": 1.5})

    def test_z_score(self):
        est = estimate_referral_rate(config_for(Poisson(22.47), n_workers=20_000, n_trials=20_000))
        target = Poisson(22.47).referral_expectation(info_probability_in_context())
        assert abs(est.z_score(target)) < 3.0


class TestPoissonFocalWorkers:
    @pytest.mark.parametrize("n, lam, t, at, seeds", [
        (3, 1.2, 3, [0, 1, 2], 60_000),
        (2, 3.0, 64, [0, 63], 20_000),
        (3, 2.0, 1, [0], 20_000),
    ], ids=["three-of-three", "every-node-focal-n2", "one-focal-worker"])
    def test_focal_degrees_have_the_network_law(self, n, lam, t, at, seeds):
        # The Poisson estimate's reachable degrees at its sorted focal
        # picks (those at positions ``at``) against those of the
        # enumerated configuration-model network (the builder's law) with
        # the same uniform picks: each cell expected at least 5 times on
        # its own, the rest pooled.  64 picks of 2 nodes take both but
        # for 2^-63, so f = 1 there, and the first and last sorted picks
        # are nodes 0 and 1; 1 pick gives one focal worker.
        picks = uniform_picks(n, t) if len(at) == t else {(0, n - 1): 1.0}
        law = focal_law(poisson_network_law(lam, n, 9), picks)
        rng = np.random.default_rng(5)
        counts = Counter(tuple(simulate._focal_reachable(rng, Poisson(lam), n, t)[at].tolist())
                         for _ in range(seeds))
        checked = {cell: p for cell, p in law.items() if seeds * p >= 5.0}
        assert len(checked) >= 5
        observed = [(counts[cell], p) for cell, p in checked.items()]
        observed.append((seeds - sum(counts[cell] for cell in checked), 1.0 - sum(checked.values())))
        for count, p in observed:
            assert abs(count - seeds * p) < 5.0 * math.sqrt(seeds * p * (1.0 - p)), (count, p)

    @pytest.mark.parametrize("pair_block", [1, 1 << 16], ids=["16-end-blocks", "default"])
    def test_one_focal_worker_counts_every_unpaired_end(self, pair_block, monkeypatch):
        # With one focal worker every edge with both ends at it is a
        # self-loop, so its reachable degree is the number of edges with
        # one end at it, however many blocks those ends are drawn in.
        monkeypatch.setattr(simulate, "_PAIR_BLOCK", pair_block)
        n, lam = 1_000, 22.47
        for seed in range(20):
            rng = np.random.default_rng(seed)
            edges = simulate._even_total(rng, n, lam) // 2
            rng.integers(0, n, size=1)  # the one pick
            both = int(rng.binomial(edges, (1 / n) ** 2))
            one = int(rng.binomial(edges - both, 2 / (n + 1)))
            reachable = simulate._focal_reachable(np.random.default_rng(seed), Poisson(lam), n, 1)
            assert reachable.tolist() == [one]

    def test_estimate_starts_no_thread_and_ignores_the_mask(self, monkeypatch):
        # With 4-stub blocks any two-thread work would split; a Poisson
        # estimate has none, so one and two CPUs give the same bits.
        monkeypatch.setattr(simulate, "_PAIR_BLOCK", 4)
        starts, estimates = thread_starts(monkeypatch), []
        for mask in ({0, 1}, {3}):
            affinity_mask(monkeypatch, mask)
            estimates.append(estimate_referral_rate(
                config_for(Poisson(22.47), n_workers=20_000, n_trials=5_000)))
        assert not starts
        assert estimates[0] == estimates[1]

    def test_billion_workers_in_under_a_second(self):
        # A network would hold about 2.2e10 stubs; the estimate reads only
        # the ends at its 10^4 focal workers.
        config = config_for(Poisson(22.47), n_workers=10**9, n_trials=10_000)
        start = time.perf_counter()
        est = estimate_referral_rate(config)
        assert time.perf_counter() - start < 1.0
        target = Poisson(22.47).referral_expectation(info_probability_in_context())
        assert abs(est.z_score(target)) < 5.0


class TestFocalWorkers:
    @pytest.mark.parametrize("k, n, t, at, draws, cells", [
        (2, 3, 3, [0, 1, 2], 8_000, 5),
        (4, 2, 64, [0, 63], 4_000, 3),
        (3, 3, 1, [0], 4_000, 5),
    ], ids=["three-of-three", "every-node-focal-n2", "one-focal-worker-parity-stub"])
    def test_regular_focal_degrees_have_the_network_law(self, k, n, t, at, draws, cells):
        # As for Poisson, against every matching of the network's stubs;
        # k = 3 on 3 nodes gives the last node an extra stub.  On 2 nodes
        # both have the same reachable degree.
        picks = uniform_picks(n, t) if len(at) == t else {(0, n - 1): 1.0}
        law = focal_law(regular_network_law(k, n), picks)
        rng = np.random.default_rng(6)
        counts = Counter(tuple(simulate._focal_reachable(rng, Degenerate(k), n, t)[at].tolist())
                         for _ in range(draws))
        assert assert_cells_match(counts, law, draws) >= cells

    @pytest.mark.parametrize("alpha, n, t, at", [
        (2.3, 2, 64, [0, 63]), (2.3, 4, 64, [0, 21, 42, 63]), (2.1, 5, 1, [0]),
    ], ids=["every-node-focal-n2", "every-node-focal-n4", "one-focal-worker"])
    def test_zipf_focal_degrees_have_the_builders_law(self, alpha, n, t, at):
        # Against the built network's reachable degrees at the same
        # uniform picks, sorted: the two samples' cells agree.  The
        # largest focal degree is paired by counts and the rest by keys.
        dist, draws = Zipf(alpha), 3_000
        rng = np.random.default_rng(7)
        ours = Counter(tuple(simulate._focal_reachable(rng, dist, n, t)[at].tolist())
                       for _ in range(draws))
        theirs = Counter()
        for _ in range(draws):
            reachable = build_configuration_network(dist, n, rng).reachable_degrees()
            theirs[tuple(reachable[np.sort(rng.integers(0, n, size=t))][at].tolist())] += 1
        assert assert_same_law(ours, theirs) >= 4

    @pytest.mark.parametrize("stubs, total", [(7, 12), (12, 12), (9, 10), (40, 100), (1, 2)])
    def test_pairs_among_focal_stubs_have_the_matching_law(self, stubs, total):
        # b edges join two of S focal stubs of N uniformly matched ones
        # with P(b + 1) / P(b) = (S - 2b)(S - 2b - 1) / ((2b + 2)(N - 2S + 2b + 2)).
        draws = 100_000
        b = simulate._focal_pairs(np.random.default_rng(9), np.full(draws, stubs), total)
        law, p = {}, 1.0
        for k in range(max(0, stubs - total // 2), stubs // 2 + 1):
            law[k] = p
            p *= (stubs - 2 * k) * (stubs - 2 * k - 1) / (2 * k + 2)
            p /= total - 2 * stubs + 2 * k + 2
        law = {k: w / sum(law.values()) for k, w in law.items()}
        assert set(np.unique(b).tolist()) <= law.keys()
        assert assert_cells_match(Counter(b.tolist()), law, draws) >= min(len(law), 3)

    @pytest.mark.parametrize("dist", [Poisson(22.47), Degenerate(22), Zipf(2.3)],
                             ids=["poisson", "regular", "zipf"])
    def test_focal_stub_budget(self, dist, monkeypatch):
        # Past the budget an estimate raises, naming its focal stubs,
        # before it draws their owners or pairs them.  Its draws up to
        # then: the degrees (Poisson: the total), the picks and, for
        # Poisson, the edges with both and with one end at a focal worker.
        n, t = 2_000, 1_000
        config = config_for(dist, n_workers=n, n_trials=t)
        rng = np.random.default_rng(config.seed)
        if isinstance(dist, Poisson):
            edges = simulate._even_total(rng, n, dist.lam) // 2
            f = np.unique(rng.integers(0, n, size=t)).size / n
            both = int(rng.binomial(edges, f**2))
            stubs = 2 * both + int(rng.binomial(edges - both, 2 * f / (1 + f)))
        else:
            degrees = simulate._even_degrees(dist, n, rng)
            stubs = int(degrees[np.unique(rng.integers(0, n, size=t))].sum())
        pair = simulate._pair_stubs
        monkeypatch.setattr(simulate, "_pair_stubs", None)
        monkeypatch.setattr(simulate, "_FOCAL_STUB_BYTES", 8 * stubs - 1)
        with pytest.raises(ValueError, match=f"^{stubs} focal stubs need more than the "
                                             f"{8 * stubs - 1}-byte budget"):
            estimate_referral_rate(config)
        monkeypatch.setattr(simulate, "_pair_stubs", pair)
        monkeypatch.setattr(simulate, "_FOCAL_STUB_BYTES", 8 * stubs)
        assert 0.0 < estimate_referral_rate(config).estimate < 1.0

    @pytest.mark.parametrize("dist", [Degenerate(5), Zipf(2.3)], ids=["regular", "zipf"])
    def test_estimate_is_the_same_on_one_cpu(self, dist, monkeypatch):
        # With 4-stub blocks the key sort of the focal stubs runs on two
        # threads unless the mask holds one CPU; both give the same bits.
        monkeypatch.setattr(simulate, "_PAIR_BLOCK", 4)
        starts, estimates = thread_starts(monkeypatch), []
        for mask in ({0, 1}, {3}):
            affinity_mask(monkeypatch, mask)
            starts.clear()
            estimates.append(estimate_referral_rate(config_for(dist, n_workers=500, n_trials=300)))
            assert bool(starts) == (len(mask) == 2)
        assert estimates[0] == estimates[1]


class TestDegreeConditionalUnemployment:
    def test_unemployment_falls_with_degree(self):
        """Workers with more contacts are unemployed less often.

        Per-degree steady-state unemployment is delta / (delta + p(d));
        marking a simulated cross-section with those rates must produce a
        negative degree-unemployment correlation.
        """
        rng = np.random.default_rng(29)
        net = build_configuration_network(Poisson(22.47), 30_000, rng)
        p_info = info_probability_in_context()
        p_market = 0.3914  # market arrival at the baseline tightness
        delta = 0.036
        p_by_degree = p_market + (1.0 - (1.0 - p_info) ** net.degrees.astype(float))
        u_by_degree = delta / (delta + p_by_degree)
        unemployed = rng.random(net.n) < u_by_degree
        # point-biserial correlation between degree and the indicator
        corr = np.corrcoef(net.degrees, unemployed.astype(float))[0, 1]
        assert corr < -0.005
        # and the analytic per-degree rate itself is nonincreasing
        assert all(
            b <= a
            for a, b in zip(u_by_degree[np.argsort(net.degrees)][:-1],
                            u_by_degree[np.argsort(net.degrees)][1:])
        )


class TestTwoThreads:
    def test_worker_error_reaches_the_caller(self, monkeypatch):
        affinity_mask(monkeypatch, {0, 1})
        ran = []

        def half(fail):
            ran.append(threading.get_ident())
            if fail:
                raise MemoryError("worker half")

        before = threading.active_count()
        with pytest.raises(MemoryError, match="worker half"):
            simulate._on_two_threads(half, (True,), (False,), simulate._PAIR_BLOCK + 1)
        assert len(set(ran)) == 2  # the worker and this thread
        assert threading.active_count() == before

    def test_caller_error_waits_for_the_worker(self, monkeypatch):
        affinity_mask(monkeypatch, {0, 1})
        finished = []

        def half(fail):
            if fail:
                raise ValueError("calling half")
            time.sleep(0.05)
            finished.append(True)

        before = threading.active_count()
        with pytest.raises(ValueError, match="calling half"):
            simulate._on_two_threads(half, (False,), (True,), simulate._PAIR_BLOCK + 1)
        assert finished  # the worker was joined before the error left
        assert threading.active_count() == before

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="needs an affinity mask of at least two CPUs")
    def test_halves_run_on_disjoint_cpus(self):
        masks = {}

        def half(name):
            masks[name] = (os.sched_getaffinity(0), threading.get_ident())

        simulate._on_two_threads(half, ("worker",), ("caller",), simulate._PAIR_BLOCK + 1)
        (worker, worker_id), (caller, caller_id) = masks["worker"], masks["caller"]
        assert worker_id != caller_id == threading.get_ident()
        assert worker and caller and not worker & caller
        assert worker | caller == os.sched_getaffinity(0)

    @pytest.mark.parametrize("failing", [None, "worker", "caller"])
    def test_callers_mask_is_restored(self, failing):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity masks on this platform")
        before, during = os.sched_getaffinity(0), []

        def half(name):
            if name == "caller":
                during.append(os.sched_getaffinity(0))
            if name == failing:
                raise RuntimeError(name)

        try:
            simulate._on_two_threads(half, ("worker",), ("caller",), simulate._PAIR_BLOCK + 1)
        except RuntimeError as exc:
            assert str(exc) == failing
        else:
            assert failing is None
        assert during and (during[0] != before) == (len(before) > 1)
        assert os.sched_getaffinity(0) == before

    def test_one_cpu_runs_both_halves_here(self):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no affinity masks on this platform")
        before, ran = os.sched_getaffinity(0), []
        os.sched_setaffinity(0, {min(before)})
        try:
            simulate._on_two_threads(lambda: ran.append(threading.get_ident()), (), (),
                                     simulate._PAIR_BLOCK + 1)
        finally:
            os.sched_setaffinity(0, before)
        assert ran == [threading.get_ident()] * 2
