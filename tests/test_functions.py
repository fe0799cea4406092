import numpy as np
import pytest
import scipy.linalg.lapack

import mcglm.covariance
import mcglm.functions
from mcglm import (
    CovLinkSpec,
    DomainError,
    FactorizationError,
    LinkSpec,
    SolverOptions,
    VarianceSpec,
    fit,
)
from mcglm.functions import (
    cholesky_inverse,
    cholesky_lower,
    covlink_apply_inverse,
    covlink_deriv,
    link_inverse,
    link_inverse_deriv,
    solve,
    symmetric_eigenvalues,
    triangular_inverse,
    variance_deriv_mu,
    variance_deriv_p,
    variance_eval,
)

from helpers import random_pd, random_symmetric, rel_err
from test_covariance import car_inverse_model


class TestLinkInverse:
    def test_identity(self):
        assert link_inverse(LinkSpec("identity"), np.array([2.5]))[0] == 2.5

    def test_logit_symmetry(self):
        assert link_inverse(LinkSpec("logit"), np.array([0.0]))[0] == 0.5

    def test_log(self):
        mu = link_inverse(LinkSpec("log"), np.array([np.log(3.0)]))
        assert mu[0] == pytest.approx(3.0, abs=1e-14)

    def test_ranges(self):
        eta = np.linspace(-50, 50, 23)
        mu_log = link_inverse(LinkSpec("log"), eta)
        assert np.all(mu_log > 0)
        mu_logit = link_inverse(LinkSpec("logit"), eta)
        assert np.all((mu_logit > 0) & (mu_logit < 1))

    def test_log_saturation_flag(self):
        _, sat = link_inverse(LinkSpec("log"), np.array([1000.0]), return_saturation=True)
        assert sat
        mu, sat = link_inverse(LinkSpec("log"), np.array([1.0]), return_saturation=True)
        assert not sat and np.isfinite(mu[0])

    def test_logit_saturation_flag(self):
        mu, sat = link_inverse(LinkSpec("logit"), np.array([100.0]), return_saturation=True)
        assert sat and mu[0] < 1.0

    def test_inverse_of_forward(self):
        # inverse(forward(mu)) = mu: forward is log / logit respectively
        mu = np.array([0.01, 0.3, 0.77])
        assert np.allclose(
            link_inverse(LinkSpec("logit"), np.log(mu / (1 - mu))), mu, atol=1e-12
        )
        mu = np.array([0.2, 1.0, 9.0])
        assert np.allclose(link_inverse(LinkSpec("log"), np.log(mu)), mu, atol=1e-12)


class TestLinkDeriv:
    def test_identity_is_one(self):
        eta = np.array([-3.0, 0.0, 7.0])
        assert np.all(link_inverse_deriv(LinkSpec("identity"), eta) == 1.0)

    def test_log_at_zero(self):
        assert link_inverse_deriv(LinkSpec("log"), np.array([0.0]))[0] == 1.0

    def test_logit_at_zero(self):
        # frozen from the central finite difference of link_inverse, step 1e-6
        d = link_inverse_deriv(LinkSpec("logit"), np.array([0.0]))[0]
        assert d == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("kind", ["identity", "log", "logit"])
    def test_matches_finite_difference(self, kind):
        link = LinkSpec(kind)
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(100):
            eta = rng.uniform(-4, 4, size=5)
            fd = (link_inverse(link, eta + h) - link_inverse(link, eta - h)) / (2 * h)
            assert rel_err(link_inverse_deriv(link, eta), fd) < 1e-6

    def test_strictly_positive(self):
        rng = np.random.default_rng(3)
        eta = rng.uniform(-10, 10, size=200)
        for kind in ("identity", "log", "logit"):
            assert np.all(link_inverse_deriv(LinkSpec(kind), eta) > 0)


class TestVarianceEval:
    def test_tweedie_poisson_case(self):
        v = variance_eval(VarianceSpec("tweedie_power"), np.array([3.0]), 1.0)
        assert v[0] == pytest.approx(3.0)

    def test_tweedie_normal_case(self):
        v = variance_eval(VarianceSpec("tweedie_power"), np.array([5.0]), 0.0)
        assert v[0] == pytest.approx(1.0)

    def test_binomial_at_half(self):
        v = variance_eval(VarianceSpec("binomial"), np.array([0.5]))
        assert v[0] == pytest.approx(0.25)

    def test_poisson_tweedie_returns_power_part_only(self):
        v = variance_eval(VarianceSpec("poisson_tweedie"), np.array([2.0]), 2.0)
        assert v[0] == pytest.approx(4.0)  # mu^p without the diag(mu) term

    def test_constant_ignores_p(self):
        mu = np.array([1.0, 2.0])
        assert np.all(variance_eval(VarianceSpec("constant"), mu, 7.0) == 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            variance_eval(VarianceSpec("tweedie_power"), np.array([-1.0]), 1.5)
        with pytest.raises(DomainError):
            variance_eval(VarianceSpec("binomial"), np.array([1.5]))

    def test_positivity_random_draws(self):
        rng = np.random.default_rng(11)
        mu = rng.uniform(0.01, 10.0, size=10_000)
        p = rng.uniform(0.0, 3.0, size=10_000)
        for kind in ("tweedie_power", "poisson_tweedie"):
            var = VarianceSpec(kind)
            for i in range(0, 10_000, 500):
                v = variance_eval(var, mu[i : i + 500], p[i])
                assert np.all(v > 0)
        mub = rng.uniform(1e-4, 1 - 1e-4, size=10_000)
        assert np.all(variance_eval(VarianceSpec("binomial"), mub) > 0)


class TestVarianceDerivP:
    def test_mu_one_gives_zero(self):
        var = VarianceSpec("tweedie_power")
        assert variance_deriv_p(var, np.array([1.0]), 2.7)[0] == 0.0

    def test_mu_e(self):
        var = VarianceSpec("tweedie_power")
        d = variance_deriv_p(var, np.array([np.e]), 2.0)[0]
        assert d == pytest.approx(np.e ** 2, rel=1e-12)

    def test_matches_finite_difference(self):
        var = VarianceSpec("tweedie_power")
        mu = np.array([2.7])
        fd = (
            variance_eval(var, mu, 1.4 + 1e-6) - variance_eval(var, mu, 1.4 - 1e-6)
        ) / 2e-6
        assert rel_err(variance_deriv_p(var, mu, 1.4), fd) < 1e-7

    def test_rejects_kinds_without_power(self):
        for kind in ("constant", "binomial"):
            with pytest.raises(DomainError):
                variance_deriv_p(VarianceSpec(kind), np.array([0.5]), 1.0)

    def test_random_fd_agreement(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for kind in ("tweedie_power", "poisson_tweedie"):
            var = VarianceSpec(kind)
            for _ in range(100):
                mu = rng.uniform(0.2, 5.0, size=4)
                p = rng.uniform(0.5, 2.5)
                fd = (variance_eval(var, mu, p + h) - variance_eval(var, mu, p - h)) / (2 * h)
                assert rel_err(variance_deriv_p(var, mu, p), fd) < 1e-6


class TestVarianceDerivMu:
    def test_constant_is_zero(self):
        assert np.all(variance_deriv_mu(VarianceSpec("constant"), np.array([3.0])) == 0)

    def test_binomial_maximum(self):
        assert variance_deriv_mu(VarianceSpec("binomial"), np.array([0.5]))[0] == 0.0

    def test_tweedie_example(self):
        d = variance_deriv_mu(VarianceSpec("tweedie_power"), np.array([2.0]), 2.0)[0]
        assert d == pytest.approx(4.0)

    def test_random_fd_agreement(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        cases = [
            (VarianceSpec("tweedie_power"), (0.2, 5.0)),
            (VarianceSpec("binomial"), (0.05, 0.95)),
            (VarianceSpec("poisson_tweedie"), (0.2, 5.0)),
        ]
        for var, (lo, hi) in cases:
            for _ in range(100):
                mu = rng.uniform(lo, hi, size=4)
                p = rng.uniform(0.5, 2.5)
                fd = (variance_eval(var, mu + h, p) - variance_eval(var, mu - h, p)) / (2 * h)
                assert rel_err(variance_deriv_mu(var, mu, p), fd) < 1e-6


class TestCovLink:
    def test_identity_passthrough(self):
        U = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert np.array_equal(covlink_apply_inverse(CovLinkSpec("identity"), U), U)

    def test_inverse_scaled_identity(self):
        out = covlink_apply_inverse(CovLinkSpec("inverse"), 2.0 * np.eye(2))
        assert np.allclose(out, 0.5 * np.eye(2))

    def test_inverse_2x2(self):
        U = np.array([[2.0, 1.0], [1.0, 2.0]])
        expected = np.array([[2 / 3, -1 / 3], [-1 / 3, 2 / 3]])
        assert np.allclose(covlink_apply_inverse(CovLinkSpec("inverse"), U), expected, atol=1e-12)

    def test_inverse_contract(self):
        rng = np.random.default_rng(7)
        cl = CovLinkSpec("inverse")
        for _ in range(20):
            U = random_pd(rng, 5)
            Om = covlink_apply_inverse(cl, U)
            assert np.max(np.abs(Om @ U - np.eye(5))) < 1e-10

    def test_inverse_involution(self):
        rng = np.random.default_rng(8)
        cl = CovLinkSpec("inverse")
        for _ in range(20):
            U = random_pd(rng, 4)
            back = covlink_apply_inverse(cl, covlink_apply_inverse(cl, U))
            assert np.max(np.abs(back - U)) < 1e-10

    def test_singular_carries_pivot(self):
        U = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(FactorizationError) as exc:
            covlink_apply_inverse(CovLinkSpec("inverse"), U)
        assert exc.value.pivot == 2


class TestCholeskyInverse:
    def test_matches_dense_inverse_and_is_symmetric(self):
        rng = np.random.default_rng(11)
        for n in (1, 4, 30):
            M = random_pd(rng, n)
            inv = cholesky_inverse(cholesky_lower(M))
            assert np.array_equal(inv, inv.T)
            assert rel_err(inv, np.linalg.inv(M)) < 1e-12

    def test_singular_factor_raises_with_pivot(self):
        L = np.array([[1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(FactorizationError) as exc:
            cholesky_inverse(L)
        assert exc.value.pivot == 2

    @pytest.mark.parametrize("shape", [(1,), (5,), (48,), (1, 48)])
    def test_one_matrix_is_c_ordered_and_equals_the_mirrored_dpotri_result(self, shape):
        # a C-ordered operand keeps a stacked product such as A_dtau's Z @ Omega on the BLAS path
        M = random_pd(np.random.default_rng(shape[-1]), shape[-1])
        L = cholesky_lower(M).reshape(shape[:-1] + (shape[-1],) * 2)
        inv, info = scipy.linalg.lapack.dpotri(cholesky_lower(M), lower=1)
        assert info == 0
        inv = np.tril(inv) + np.tril(inv, -1).T
        got = cholesky_inverse(L)
        assert got.flags.c_contiguous and got.shape == L.shape
        assert np.array_equal(got.reshape(inv.shape), inv)


class TestOneMatrixPath:
    """One matrix takes one LAPACK call; a stack of several takes numpy's batched routines."""

    @staticmethod
    def in_stack(rng, M):
        """M as the middle matrix of a stack of three."""
        m = M.shape[-1]
        return np.stack([random_pd(rng, m), M, random_pd(rng, m)])

    @pytest.mark.parametrize("m", [1, 2, 4, 48])
    def test_agrees_with_the_stack_path(self, m):
        rng = np.random.default_rng(100 + m)
        M = random_pd(rng, m)
        stack = self.in_stack(rng, M)
        L, L_stack = cholesky_lower(M), cholesky_lower(stack)
        assert rel_err(L, L_stack[1]) < 1e-13
        assert rel_err(triangular_inverse(L), triangular_inverse(L_stack)[1]) < 1e-13
        inv = cholesky_inverse(L)
        assert np.array_equal(inv, inv.T)
        assert rel_err(inv, cholesky_inverse(L_stack)[1]) < 1e-13
        for b in (rng.standard_normal(m), rng.standard_normal((m, 3))):
            x = solve(M, b)
            assert x.shape == b.shape
            assert rel_err(x, np.linalg.solve(stack, b)[1]) < 1e-13

    def test_a_stack_of_one_keeps_its_shape(self):
        rng = np.random.default_rng(5)
        M = random_pd(rng, 4)
        L = cholesky_lower(M[None])
        assert L.shape == (1, 4, 4)
        assert np.array_equal(L[0], cholesky_lower(M))
        assert np.array_equal(triangular_inverse(L)[0], triangular_inverse(L[0]))
        assert np.array_equal(cholesky_inverse(L)[0], cholesky_inverse(L[0]))

    @pytest.mark.parametrize("m", [2, 4, 48])
    def test_non_pd_pivot_matches_the_stack_path(self, m):
        rng = np.random.default_rng(200 + m)
        M = random_pd(rng, m)
        k = m // 2
        M[k, k] -= M[k, k] + 1.0  # the leading k x k block stays PD, the next one is not
        pivots = []
        for arg in (M, self.in_stack(rng, M)):
            with pytest.raises(FactorizationError) as exc:
                cholesky_lower(arg)
            pivots.append(exc.value.pivot)
        assert pivots == [k + 1, k + 1]

    @pytest.mark.parametrize("m", [2, 4, 48])
    def test_singular_factor_pivot_matches_the_stack_path(self, m):
        rng = np.random.default_rng(300 + m)
        L = cholesky_lower(random_pd(rng, m))
        L[m - 1, m - 1] = 0.0
        stack = np.stack([L + np.eye(m), L])
        for inverse in (triangular_inverse, cholesky_inverse):
            pivots = []
            for arg in (L, stack):
                with pytest.raises(FactorizationError) as exc:
                    inverse(arg)
                pivots.append(exc.value.pivot)
            assert pivots == [m, m]

    def test_solve_raises_linalg_error_on_a_singular_matrix(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))

    @pytest.mark.parametrize("m", [1, 4, 48])
    def test_symmetric_eigenvalues_match_numpy(self, m):
        M = random_symmetric(np.random.default_rng(400 + m), m)
        assert rel_err(symmetric_eigenvalues(M), np.linalg.eigvalsh(M)) < 1e-13


def test_rejected_proposal_is_factorized_once(monkeypatch):
    # 6 x 8 CAR under the inverse link, reciprocal solver: a U that is not PD is found by
    # the one factorization its cholesky_lower call makes, which also gives the pivot
    model, _, y = car_inverse_model()
    made = []
    for module, name in [(np.linalg, "cholesky"), (mcglm.functions, "dpotrf")]:
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            made.append(name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    per_call, failed = [], []
    original_chol = mcglm.functions.cholesky_lower

    def chol(M):
        before = len(made)
        try:
            return original_chol(M)
        except FactorizationError:
            failed.append(len(made) - before)
            raise
        finally:
            per_call.append(len(made) - before)

    monkeypatch.setattr(mcglm.functions, "cholesky_lower", chol)
    monkeypatch.setattr(mcglm.covariance, "cholesky_lower", chol)
    res = fit(model, y, SolverOptions(algorithm="reciprocal"))
    assert res.converged and res.n_alpha_escalations > 0
    assert failed == [1] * res.n_alpha_escalations
    assert set(per_call) == {1}


class TestCovLinkDeriv:
    def test_identity(self):
        Z = np.array([[0.0, 1.0], [1.0, 0.0]])
        U = np.array([[3.0, 0.0], [0.0, 3.0]])
        assert np.array_equal(covlink_deriv(CovLinkSpec("identity"), U, Z), Z)

    def test_inverse_at_identity(self):
        rng = np.random.default_rng(9)
        Z = random_symmetric(rng, 3)
        out = covlink_deriv(CovLinkSpec("inverse"), np.eye(3), Z)
        assert np.allclose(out, -Z, atol=1e-12)

    def test_inverse_directional_fd(self):
        rng = np.random.default_rng(10)
        cl = CovLinkSpec("inverse")
        h = 1e-6
        for _ in range(100):
            U = random_pd(rng, 4)
            Z = random_symmetric(rng, 4)
            fd = (
                covlink_apply_inverse(cl, U + h * Z) - covlink_apply_inverse(cl, U - h * Z)
            ) / (2 * h)
            omega = covlink_apply_inverse(cl, U)
            assert rel_err(covlink_deriv(cl, omega, Z), fd) < 1e-6


def test_unknown_kinds_rejected():
    with pytest.raises(DomainError):
        LinkSpec("probit")
    with pytest.raises(DomainError):
        VarianceSpec("gamma")
    with pytest.raises(DomainError):
        CovLinkSpec("logm")
