"""Configuration-model networks and the Monte Carlo referral check."""

import math

import numpy as np
import pytest

from refmatch import Degenerate, Poisson, Zipf
from refmatch.simulate import SimConfig, build_configuration_network, estimate_referral_rate

# Baseline snapshot context shared by the estimator tests (unemployment,
# aggregate unemployment, vacancy rate, referral frequency, job degree).
CONTEXT = dict(u_i=0.044, u=0.044, v=0.04, phi=0.048, d_f=16)


def config_for(dist, n_workers=50_000, n_trials=50_000, seed=11):
    return SimConfig.at_context(
        dist, n_workers=n_workers, n_trials=n_trials, seed=seed, **CONTEXT
    )


def info_probability_in_context() -> float:
    vac = CONTEXT["v"] / (1.0 - CONTEXT["u"] + CONTEXT["v"])
    return CONTEXT["phi"] * (1.0 - CONTEXT["u_i"]) * (1.0 - (1.0 - vac) ** CONTEXT["d_f"])


class TestNetworkBuild:
    def test_regular_degrees(self):
        net = build_configuration_network(Degenerate(2), 3, seed_or_rng=5)
        assert list(net.degrees) == [2, 2, 2]
        assert net.stub_count == 6
        for node in range(3):
            assert len(net.neighbors_of(node)) == 2

    def test_empty_network(self):
        net = build_configuration_network(Degenerate(0), 10, seed_or_rng=0)
        assert net.stub_count == 0
        assert net.neighbors.size == 0

    def test_adjacency_is_symmetric_multiset(self):
        net = build_configuration_network(Poisson(5.0), 500, seed_or_rng=3)
        # every directed entry (i -> j) must be matched by (j -> i)
        src = np.repeat(np.arange(net.n), net.degrees)
        fwd = sorted(zip(src.tolist(), net.neighbors.tolist()))
        rev = sorted(zip(net.neighbors.tolist(), src.tolist()))
        assert fwd == rev

    def test_poisson_mean_degree_clt(self):
        lam, n = 22.47, 100_000
        net = build_configuration_network(Poisson(lam), n, seed_or_rng=17)
        bound = 3.0 * math.sqrt(lam / n)
        assert abs(net.degrees.mean() - lam) < bound

    def test_odd_total_resampled_to_even(self):
        # Poisson redraws the last degree; a fixed odd degree cannot be
        # fixed by resampling and gets one extra stub
        for seed in range(6):
            net = build_configuration_network(Poisson(3.0), 11, seed_or_rng=seed)
            assert net.stub_count % 2 == 0
        net = build_configuration_network(Degenerate(3), 3, seed_or_rng=1)
        assert net.stub_count == 10
        assert sorted(net.degrees.tolist()) == [3, 3, 4]

    def test_seed_reproducibility(self):
        a = build_configuration_network(Zipf(2.3), 2000, seed_or_rng=123)
        b = build_configuration_network(Zipf(2.3), 2000, seed_or_rng=123)
        assert np.array_equal(a.degrees, b.degrees)
        assert np.array_equal(a.neighbors, b.neighbors)
        c = build_configuration_network(Zipf(2.3), 2000, seed_or_rng=124)
        assert not np.array_equal(a.neighbors, c.neighbors)

    def test_pairing_is_a_uniform_permutation_of_the_stubs(self):
        # A seed's pairing is stubs[rng.permutation(total)] drawn right
        # after the degrees, and the per-node adjacency matches the one
        # read off through the inverse permutation.
        dist, n, seed = Poisson(5.0), 300, 2
        net = build_configuration_network(dist, n, seed_or_rng=seed)
        rng = np.random.default_rng(seed)
        degrees = dist.sample(rng, n)
        assert degrees.sum() % 2 == 0  # no parity resample draws in between
        assert np.array_equal(net.degrees, degrees)
        owners = np.repeat(np.arange(n), degrees)
        perm = rng.permutation(owners.size)
        shuffled = owners[perm]
        assert np.array_equal(net.stubs, shuffled)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        reference = shuffled[inv ^ 1]
        assert np.array_equal(
            net.neighbors[np.lexsort((net.neighbors, owners))],
            reference[np.lexsort((reference, owners))],
        )

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            build_configuration_network(Poisson(3.0), 1, seed_or_rng=0)


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

    def test_network_conditional_exactness_with_self_loops(self):
        # A 40-node network has a few self-loops; at a high contact
        # information rate they move the network's success rate by many
        # standard errors, so the estimate must track the exact
        # network-conditional mean, not the one over raw degrees.
        config = SimConfig(
            dist=Poisson(4.0), n_workers=40, n_trials=200_000, seed=3,
            employment_rate=0.9, informed_given_employed=0.5 * (1.0 - 0.7**16),
        )
        net = build_configuration_network(config.dist, config.n_workers, config.seed)
        self_entries = np.array(
            [np.count_nonzero(net.neighbors_of(i) == i) for i in range(net.n)]
        )
        assert self_entries.sum() > 0
        q = config.employment_rate * config.informed_given_employed
        exact = np.mean(1.0 - (1.0 - q) ** (net.degrees - self_entries))
        ignoring_loops = np.mean(1.0 - (1.0 - q) ** net.degrees)
        est = estimate_referral_rate(config)
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
        with pytest.raises(ValueError, match="d_f must be an integer >= 0"):
            SimConfig.at_context(Poisson(5.0), **{**CONTEXT, "d_f": 2.5})
        with pytest.raises(ValueError, match="referral frequency"):
            SimConfig.at_context(Poisson(5.0), **{**CONTEXT, "phi": 1.5})

    def test_z_score(self):
        est = estimate_referral_rate(config_for(Poisson(22.47), n_workers=20_000, n_trials=20_000))
        target = Poisson(22.47).referral_expectation(info_probability_in_context())
        assert abs(est.z_score(target)) < 3.0


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
