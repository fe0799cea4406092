import tracemalloc

import numpy as np
import pytest

from mcglm import DomainError, SimSpec, simulate_counts_marginal, simulate_gaussian
from mcglm.estfun import build_state
from mcglm.simulate import stacked_mean

from helpers import gaussian_two_response, random_instance, scatter


class TestStackedMean:
    def test_matches_per_response_links(self):
        model, theta = gaussian_two_response(N=10, seed=0)
        mean = stacked_mean(model, theta)
        for r, (resp, sl) in enumerate(zip(model.responses, model.beta_slices())):
            expected = resp.design @ theta.beta[sl]
            assert np.allclose(mean[r * 10 : (r + 1) * 10], expected)


class TestGaussian:
    def test_shape(self):
        model, theta = gaussian_two_response(N=8, seed=1)
        out = simulate_gaussian(SimSpec(model, theta, 5, seed=2))
        assert out.shape == (5, 16)

    def test_seed_determinism(self):
        model, theta = gaussian_two_response(N=8, seed=3)
        a = simulate_gaussian(SimSpec(model, theta, 4, seed=7))
        b = simulate_gaussian(SimSpec(model, theta, 4, seed=7))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        model, theta = gaussian_two_response(N=8, seed=4)
        a = simulate_gaussian(SimSpec(model, theta, 1, seed=1))
        b = simulate_gaussian(SimSpec(model, theta, 1, seed=2))
        assert not np.array_equal(a, b)

    def test_prefix_stability(self):
        # first replicates are unchanged when more are requested
        model, theta = gaussian_two_response(N=8, seed=5)
        small = simulate_gaussian(SimSpec(model, theta, 3, seed=11))
        large = simulate_gaussian(SimSpec(model, theta, 10, seed=11))
        assert np.array_equal(small, large[:3])

    def test_moment_matching(self):
        model, theta = gaussian_two_response(N=6, seed=6)
        n_rep = 20_000
        out = simulate_gaussian(SimSpec(model, theta, n_rep, seed=13))
        mean = stacked_mean(model, theta)
        C = scatter(build_state(model, np.zeros(12), theta), "C")
        emp_mean = out.mean(axis=0)
        emp_cov = np.cov(out.T)
        sd = np.sqrt(np.diag(C))
        assert np.max(np.abs(emp_mean - mean) / (sd / np.sqrt(n_rep))) < 5.0
        scale = np.outer(sd, sd)
        assert np.max(np.abs(emp_cov - C) / scale) < 6.0 / np.sqrt(n_rep) * 3

    def test_moment_matching_mixed_instance(self):
        rng = np.random.default_rng(7)
        model, _, theta = random_instance(rng, N=5, R=2)
        n_rep = 20_000
        out = simulate_gaussian(SimSpec(model, theta, n_rep, seed=17))
        mean = stacked_mean(model, theta)
        C = scatter(build_state(model, np.zeros(10), theta), "C")
        sd = np.sqrt(np.diag(C))
        assert np.max(np.abs(out.mean(axis=0) - mean) / (sd / np.sqrt(n_rep))) < 5.0

    @pytest.mark.parametrize("n_replicates", [0, -3])
    def test_rejects_replicate_count_below_one(self, n_replicates):
        model, theta = gaussian_two_response(N=4, seed=8)
        with pytest.raises(DomainError, match="n_replicates"):
            SimSpec(model, theta, n_replicates, seed=1)

    def test_forms_no_dense_factor(self):
        model, theta = gaussian_two_response(N=2000, seed=1)  # a dense factor is 128 MB
        tracemalloc.start()
        try:
            simulate_gaussian(SimSpec(model, theta, 1, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_replicate_independence(self):
        model, theta = gaussian_two_response(N=4, seed=8)
        out = simulate_gaussian(SimSpec(model, theta, 10_000, seed=19))
        # correlation between consecutive replicates of the same coordinate
        x = out[:-1, 0] - out[:-1, 0].mean()
        y = out[1:, 0] - out[1:, 0].mean()
        corr = float(x @ y / np.sqrt((x @ x) * (y @ y)))
        assert abs(corr) < 0.05


class TestCountsMarginal:
    @pytest.mark.parametrize("p", [1, 2])
    def test_mean_and_variance(self, p):
        mu, tau0 = 4.0, 0.8
        n = 200_000
        y = simulate_counts_marginal(np.full(n, mu), p, tau0, seed=23 + p)
        target_var = mu + tau0 * mu ** p
        assert y.mean() == pytest.approx(mu, rel=0.02)
        assert y.var() == pytest.approx(target_var, rel=0.05)

    def test_overdispersed_relative_to_poisson(self):
        y = simulate_counts_marginal(np.full(50_000, 3.0), 2, 1.5, seed=29)
        assert y.var() > 1.5 * y.mean()

    def test_nonnegative_integers(self):
        y = simulate_counts_marginal(np.full(1000, 2.0), 1, 0.5, seed=31)
        assert np.all(y >= 0)
        assert np.issubdtype(y.dtype, np.integer)

    def test_small_tau_approaches_poisson(self):
        mu = 5.0
        y = simulate_counts_marginal(np.full(200_000, mu), 1, 1e-3, seed=37)
        assert y.var() == pytest.approx(mu, rel=0.03)

    def test_seed_determinism(self):
        a = simulate_counts_marginal(np.full(100, 2.0), 2, 0.7, seed=41)
        b = simulate_counts_marginal(np.full(100, 2.0), 2, 0.7, seed=41)
        assert np.array_equal(a, b)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            simulate_counts_marginal(np.array([-1.0]), 1, 0.5)
        with pytest.raises(DomainError):
            simulate_counts_marginal(np.array([1.0]), 1, 0.0)
        with pytest.raises(DomainError):
            simulate_counts_marginal(np.array([1.0]), 1.7, 0.5)
        with pytest.raises(DomainError):
            simulate_counts_marginal(np.array([1.0]), 1, 0.5, kind="tweedie")
