import numpy as np
import pytest

import mcglm.solver
from mcglm import (
    CovLinkSpec,
    FactorizationError,
    LinkSpec,
    MatrixPredictor,
    ModelSpec,
    ResponseSpec,
    SingularMatrixError,
    VarianceSpec,
    build_state,
    fit,
    make_theta,
    mat_identity,
)
from mcglm.estfun import (
    bias_correction,
    build_godambe,
    cross_sensitivity_lb,
    cross_variability_lb,
    empirical_k4,
    godambe,
    pearson_vector,
    quasi_score,
    sensitivity_beta,
    sensitivity_lambda,
    variability_lambda,
)
from mcglm.functions import LOG_ETA_BOUND

from helpers import (
    dense_oracle,
    random_instance,
    rel_err,
    scale_dC_beta,
    scatter,
    weight_matrix,
)


def iid_normal_model(N, K=1, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(N)] + [rng.standard_normal(N) for _ in range(K - 1)])
    resp = ResponseSpec(
        "y",
        LinkSpec("identity"),
        VarianceSpec("constant"),
        CovLinkSpec("identity"),
        X,
        MatrixPredictor((mat_identity(N),)),
    )
    return ModelSpec((resp,))


def weights(state):
    """Reference weight matrices W_i = C^{-1} dC_i C^{-1}, from the dense oracle."""
    _, C_inv, dC, _ = dense_oracle(state)
    return [weight_matrix(C_inv, dC_i) for dC_i in dC]


def iid_state(N, beta, tau0, y, K=1, seed=0):
    model = iid_normal_model(N, K=K, seed=seed)
    lam = model.pack_lambda([], [1.0], [np.array([tau0])])
    theta = make_theta(model, np.atleast_1d(beta), lam)
    return build_state(model, y, theta)


class TestQuasiScore:
    def test_zero_residual(self):
        y = np.full(4, 2.0)
        state = iid_state(4, [2.0], 1.0, y)
        assert np.allclose(quasi_score(state), 0.0)

    def test_iid_normal_mean(self):
        y = np.array([1.0, 2.0, 3.0])
        state = iid_state(3, [0.0], 1.0, y)
        assert quasi_score(state)[0] == pytest.approx(6.0)

    def test_tau_scaling(self):
        y = np.array([1.0, 2.0, 3.0])
        s1 = quasi_score(iid_state(3, [0.0], 1.0, y))
        s2 = quasi_score(iid_state(3, [0.0], 2.0, y))
        assert np.allclose(s1, 2.0 * s2)

    def test_normal_equations_at_ols(self):
        rng = np.random.default_rng(1)
        N, K = 12, 3
        model = iid_normal_model(N, K=K, seed=2)
        X = model.responses[0].design
        y = rng.standard_normal(N)
        beta_ols = np.linalg.lstsq(X, y, rcond=None)[0]
        lam = model.pack_lambda([], [1.0], [np.array([1.3])])
        state = build_state(model, y, make_theta(model, beta_ols, lam))
        assert np.max(np.abs(quasi_score(state))) < 1e-10


class TestBetaBlocks:
    def test_sensitivity_iid(self):
        state = iid_state(5, [0.0], 2.0, np.zeros(5))
        assert sensitivity_beta(state)[0, 0] == pytest.approx(-5.0 / 2.0)

    def test_rank_deficient_names_columns(self):
        X = np.column_stack([np.ones(4), np.ones(4)])
        resp = ResponseSpec(
            "y",
            LinkSpec("identity"),
            VarianceSpec("constant"),
            CovLinkSpec("identity"),
            X,
            MatrixPredictor((mat_identity(4),)),
        )
        model = ModelSpec((resp,))
        lam = model.pack_lambda([], [1.0], [np.array([1.0])])
        state = build_state(model, np.zeros(4), make_theta(model, np.zeros(2), lam))
        with pytest.raises(SingularMatrixError, match=r"columns"):
            sensitivity_beta(state)

    def test_sensitivity_fd_of_score(self):
        # S_beta matches the beta-gradient of the quasi-score when C is
        # held fixed (constant-variance models, so C has no beta term)
        rng = np.random.default_rng(4)
        model, y, theta = random_instance(rng, N=8, R=2)
        h = 1e-6
        state = build_state(model, y, theta)
        K = model.K
        fd = np.zeros((K, K))
        for j in range(K):
            e = np.zeros(K)
            e[j] = h
            sp = quasi_score(
                build_state(model, y, theta.with_beta(theta.beta + e))
            )
            sm = quasi_score(
                build_state(model, y, theta.with_beta(theta.beta - e))
            )
            fd[:, j] = (sp - sm) / (2 * h)
        # for identity links the mean is linear so the C-fixed part dominates;
        # compare only on such instances
        if all(resp.link.kind == "identity" for resp in model.responses):
            assert rel_err(sensitivity_beta(state), fd) < 1e-5


class TestPearson:
    def test_scalar_iid(self):
        # psi_tau0 = (1/tau0^2) * (sum r^2 - N tau0)
        y = np.array([1.0, -2.0, 0.5])
        tau0 = 1.7
        state = iid_state(3, [0.0], tau0, y)
        expected = (np.sum(y ** 2) - 3 * tau0) / tau0 ** 2
        assert pearson_vector(state)[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_at_moment_match(self):
        y = np.array([1.0, -1.0, 2.0, -2.0])
        tau0 = np.mean(y ** 2)
        state = iid_state(4, [0.0], tau0, y)
        assert abs(pearson_vector(state)[0]) < 1e-12

    def test_vector_consistency(self):
        rng = np.random.default_rng(5)
        model, y, theta = random_instance(rng, N=7, R=2)
        state = build_state(model, y, theta)
        vec = pearson_vector(state)
        r, C = state.residual, scatter(state, "C")
        for i, W in enumerate(weights(state)):
            assert vec[i] == pytest.approx(float(r @ W @ r - np.sum(W * C)), rel=1e-12)

    def test_expected_value_zero_under_truth(self):
        # E[psi_lambda] = 0: Monte Carlo average over exact draws
        rng = np.random.default_rng(6)
        model, _, theta = random_instance(rng, N=6, R=2)
        state0 = build_state(model, np.zeros(model.N * model.R), theta)
        L = scatter(state0, "C_chol")
        mu = state0.mu
        acc = np.zeros(state0.Q)
        n_rep = 4000
        for _ in range(n_rep):
            y = mu + L @ rng.standard_normal(mu.size)
            st = build_state(model, y, theta)
            acc += pearson_vector(st)
        mean = acc / n_rep
        # MC error of tr(W r r^T) is O(1/sqrt(n_rep)); loose 5-sigma band
        scale = np.sqrt(np.diag(-2.0 * sensitivity_lambda(state0)) / n_rep)
        assert np.all(np.abs(mean) < 5.0 * np.maximum(scale, 1e-3))


class TestLambdaBlocks:
    def test_sensitivity_scalar_iid(self):
        # S_tau0 = -N / tau0^2
        state = iid_state(6, [0.0], 1.5, np.zeros(6))
        assert sensitivity_lambda(state)[0, 0] == pytest.approx(-6.0 / 1.5 ** 2)

    def test_sensitivity_fd_of_pearson(self):
        rng = np.random.default_rng(7)
        model, y, theta = random_instance(rng, N=7, R=2)
        state = build_state(model, y, theta)
        h = 1e-6
        Q = state.Q
        fd = np.zeros((Q, Q))
        for j in range(Q):
            e = np.zeros(Q)
            e[j] = h
            pp = pearson_vector(build_state(model, y, theta.with_lambda(theta.lam + e)))
            pm = pearson_vector(build_state(model, y, theta.with_lambda(theta.lam - e)))
            fd[:, j] = (pp - pm) / (2 * h)
        # S_lambda is the expectation of the gradient: the r r^T part of psi
        # contributes tr(W_i' r r^T); at the FD we compare the C-part only,
        # so evaluate at r r^T replaced by its expectation via y drawn at mu
        # Instead compare against the exact derivative identity:
        # d psi_i / d lambda_j = tr(dW_i/dl_j (rr^T - C)) - tr(W_i dC_j)
        # whose expectation under r r^T = C is -tr(W_i C W_j C).
        # Here we check the trace identity directly.
        M = [W @ scatter(state, "C") for W in weights(state)]
        S = sensitivity_lambda(state)
        for i in range(Q):
            for j in range(Q):
                assert S[i, j] == pytest.approx(-float(np.sum(M[i] * M[j].T)), rel=1e-10)
        # and that fd at the special point r r^T == C equals S:
        # engineered below in test_sensitivity_fd_at_matched_residuals

    def test_sensitivity_fd_at_matched_residuals(self):
        # With Q = 1 and identity predictor the Pearson function is a
        # closed form in tau0; its derivative matches -tr(W C W C).
        y = np.array([0.5, -1.0, 2.0])
        tau0 = 1.2
        h = 1e-7

        def psi(t):
            return pearson_vector(iid_state(3, [0.0], t, y))[0]

        fd = (psi(tau0 + h) - psi(tau0 - h)) / (2 * h)
        # analytic: psi = (ssq - 3 t)/t^2, d/dt = -ssq*2/t^3 + 3/t^2... compute
        ssq = float(np.sum(y ** 2))
        analytic = -2.0 * ssq / tau0 ** 3 + 3.0 / tau0 ** 2
        assert fd == pytest.approx(analytic, rel=1e-6)
        # expectation of that derivative at ssq = 3 tau0 is -3/tau0^2 = S_lambda
        state = iid_state(3, [0.0], tau0, np.sqrt(tau0) * np.array([1.0, 1.0, -1.0]))
        assert sensitivity_lambda(state)[0, 0] == pytest.approx(-3.0 / tau0 ** 2)

    def test_variability_zero_k4_is_minus_two_sensitivity(self):
        rng = np.random.default_rng(8)
        model, y, theta = random_instance(rng, N=8, R=3)
        state = build_state(model, y, theta)
        V = variability_lambda(state, np.zeros(model.N * model.R))
        assert np.max(np.abs(V + 2.0 * sensitivity_lambda(state))) < 1e-10

    def test_variability_k4_diagonal_contribution(self):
        state = iid_state(2, [0.0], 1.0, np.zeros(2))
        k4 = np.array([3.0, 5.0])
        V = variability_lambda(state, k4)
        # W = I, so the k4 term adds sum(k4 * 1 * 1)
        assert V[0, 0] == pytest.approx(2.0 * 2.0 + 8.0)

    def test_empirical_k4_gaussian_zero_mean(self):
        r = np.array([1.0, 2.0])
        C = np.diag([1.0, 4.0])
        k4 = empirical_k4(r, np.diag(C))
        assert k4[0] == pytest.approx(1.0 - 3.0)
        assert k4[1] == pytest.approx(16.0 - 48.0)


class TestCrossBlocks:
    def test_cross_sensitivity_constant_variance_zero(self):
        # dC/dbeta = 0 for constant-variance identity-link models
        rng = np.random.default_rng(9)
        model, y, theta = random_instance(rng, N=6, R=1)
        if model.responses[0].variance.kind == "constant":
            state = build_state(model, y, theta)
            assert np.max(np.abs(cross_sensitivity_lb(state))) < 1e-12

    def test_dC_dbeta_fd(self):
        # dC in beta is S dC_dscale S along the state's beta_slopes
        rng = np.random.default_rng(10)
        found = 0
        while found < 5:
            model, y, theta = random_instance(rng, N=6, R=2)
            if all(r.variance.kind == "constant" for r in model.responses):
                continue
            state = build_state(model, y, theta)
            h = 1e-6
            for j in range(model.K):
                e = np.zeros(model.K)
                e[j] = h
                Cp = build_state(model, y, theta.with_beta(theta.beta + e))
                Cm = build_state(model, y, theta.with_beta(theta.beta - e))
                Cp, Cm = scatter(Cp, "C"), scatter(Cm, "C")
                dC = scatter(state, scale_dC_beta(state, j))
                assert rel_err(dC, (Cp - Cm) / (2 * h)) < 1e-5
            found += 1

    def test_cross_variability_matches_brute_triple_sum(self):
        rng = np.random.default_rng(11)
        model, y, theta = random_instance(rng, N=5, R=2)
        state = build_state(model, y, theta)
        r = state.residual
        A = scatter(state, "C_inv") @ state.D  # NR x K
        V = cross_variability_lb(state)
        n = r.size
        for i, W in enumerate(weights(state)):
            for j in range(model.K):
                brute = 0.0
                for l in range(n):
                    for m in range(n):
                        for k in range(n):
                            brute += W[l, m] * r[l] * r[m] * A[k, j] * r[k]
                assert V[i, j] == pytest.approx(brute, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("covlink", ["identity", "inverse"])
def test_k4_variability_and_cross_sensitivity_match_weight_formulas(covlink, R):
    # off the easy path: W != I, non-zero k4, and dC/dbeta != 0 (power variances)
    rng = np.random.default_rng(16 + R)
    setups = [("tweedie_power", covlink, False), ("poisson_tweedie", covlink, False)]
    model, y, theta = random_instance(rng, N=7, R=R, setups=setups)
    state = build_state(model, y, theta)
    C, C_inv = scatter(state, "C"), scatter(state, "C_inv")
    W = weights(state)
    k4 = rng.uniform(0.5, 3.0, size=C.shape[0])
    V_ref = np.array(
        [
            [2.0 * np.trace(Wi @ C @ Wj @ C) + np.sum(k4 * np.diag(Wi) * np.diag(Wj)) for Wj in W]
            for Wi in W
        ]
    )
    W_beta = [weight_matrix(C_inv, dCj) for dCj in dense_oracle(state)[3]]
    S_ref = np.array([[-np.trace(Wi @ C @ Wb @ C) for Wb in W_beta] for Wi in W])
    assert rel_err(V_ref, -2.0 * sensitivity_lambda(state)) > 1e-3
    assert np.max(np.abs(S_ref)) > 1e-3
    # variability_lambda reads the standardized cumulants k4 / s^4
    assert rel_err(variability_lambda(state, k4 / state.scale ** 4), V_ref) < 1e-12
    assert rel_err(cross_sensitivity_lb(state), S_ref) < 1e-12


def test_cross_sensitivity_constant_variance_columns_are_zero():
    # R=2 with one constant and one Tweedie response: C does not depend
    # on the constant response's beta, so its columns are exactly zero
    rng = np.random.default_rng(30)
    setups = [("constant", "identity", True), ("tweedie_power", "identity", False)]
    kinds = None
    while kinds != ["constant", "tweedie_power"]:
        model, y, theta = random_instance(rng, N=7, R=2, setups=setups)
        kinds = sorted(resp.variance.kind for resp in model.responses)
    state = build_state(model, y, theta)
    C, C_inv = scatter(state, "C"), scatter(state, "C_inv")
    W = weights(state)
    S = cross_sensitivity_lb(state)
    for resp, sl in zip(model.responses, model.beta_slices()):
        if resp.variance.kind == "constant":
            assert np.all(S[:, sl] == 0.0)
            continue
        cols = range(sl.start, sl.stop)
        W_beta = [weight_matrix(C_inv, dense_oracle(state)[3][j]) for j in cols]
        S_ref = np.array([[-np.trace(Wi @ C @ Wb @ C) for Wb in W_beta] for Wi in W])
        assert np.max(np.abs(S_ref)) > 1e-3
        assert rel_err(S[:, sl], S_ref) < 1e-12


class TestBiasCorrection:
    def test_iid_normal_closed_form(self):
        # b_tau0 = K / tau0 for the iid normal model
        for N, K, tau0 in [(8, 1, 2.0), (10, 3, 0.7)]:
            model = iid_normal_model(N, K=K, seed=12)
            lam = model.pack_lambda([], [1.0], [np.array([tau0])])
            state = build_state(model, np.zeros(N), make_theta(model, np.zeros(K), lam))
            assert bias_correction(state)[0] == pytest.approx(K / tau0, rel=1e-10)

    def test_trace_cyclicity_oracle(self):
        rng = np.random.default_rng(13)
        model, y, theta = random_instance(rng, N=7, R=2)
        state = build_state(model, y, theta)
        D = state.D
        J_inv = np.linalg.inv(D.T @ scatter(state, "C_inv") @ D)
        b = bias_correction(state)
        for i, W in enumerate(weights(state)):
            assert b[i] == pytest.approx(float(np.trace(D.T @ W @ D @ J_inv)), rel=1e-9)


class TestGodambe:
    def test_identity_sandwich(self):
        res = godambe(-np.eye(3), 2.0 * np.eye(3))
        assert np.allclose(res.J_inv, 2.0 * np.eye(3))
        assert np.allclose(res.std_errors, np.sqrt(2.0))

    def test_scalar(self):
        res = godambe(np.array([[-4.0]]), np.array([[8.0]]))
        assert res.J_inv[0, 0] == pytest.approx(0.5)

    def test_singular_sensitivity_raises(self):
        with pytest.raises(SingularMatrixError):
            godambe(np.zeros((2, 2)), np.eye(2))

    def test_build_godambe_block_structure(self):
        rng = np.random.default_rng(14)
        model, y, theta = random_instance(rng, N=8, R=2)
        state = build_state(model, y, theta)
        res = build_godambe(state)
        K, Q = state.K, state.Q
        assert res.S_theta.shape == (K + Q, K + Q)
        # insensitivity: the beta-lambda block of S is exactly zero
        assert np.all(res.S_theta[:K, K:] == 0.0)
        assert np.allclose(res.S_theta[:K, :K], sensitivity_beta(state))
        assert np.allclose(res.V_theta[:K, :K], -sensitivity_beta(state))
        assert np.allclose(res.V_theta, res.V_theta.T)
        assert np.all(res.std_errors >= 0.0)

    def test_iid_normal_beta_block(self):
        # sandwich beta variance = tau0 / N for the mean-only model
        N, tau0 = 9, 1.8
        model = iid_normal_model(N)
        lam = model.pack_lambda([], [1.0], [np.array([tau0])])
        rng = np.random.default_rng(15)
        y = rng.standard_normal(N)
        state = build_state(model, y, make_theta(model, np.array([0.0]), lam))
        res = build_godambe(state)
        assert res.J_inv[0, 0] == pytest.approx(tau0 / N, rel=1e-10)


@pytest.mark.parametrize("covlink", ["identity", "inverse"])
def test_underflowing_variance_scale_is_not_pd(covlink):
    # mu = exp(-690) is positive, but V = mu^2 underflows to 0: C = S C_Omega S is singular
    # while C_Omega is not, so the scale has its own check
    N = 4
    resp = ResponseSpec(
        "y", LinkSpec("log"), VarianceSpec("tweedie_power"), CovLinkSpec(covlink),
        np.ones((N, 1)), MatrixPredictor((mat_identity(N),)), power_value=2.0,
    )
    model = ModelSpec((resp,))
    theta = make_theta(model, np.array([-690.0]), model.pack_lambda([], [2.0], [[1.0]]))
    with pytest.raises(FactorizationError, match="pivot 1"):
        build_state(model, np.ones(N), theta)


class TestSaturation:
    """EstimatingState.saturated: whether an inverse link clamped eta at the state's beta."""

    def test_log_link_past_the_bound(self):
        N = 4
        resp = ResponseSpec(
            "y", LinkSpec("log"), VarianceSpec("constant"), CovLinkSpec("identity"),
            np.ones((N, 1)), MatrixPredictor((mat_identity(N),)),
        )
        model = ModelSpec((resp,))
        lam = model.pack_lambda([], [1.0], [[1.0]])
        y = np.ones(N)
        above = build_state(model, y, make_theta(model, np.array([LOG_ETA_BOUND + 1.0]), lam))
        below = build_state(model, y, make_theta(model, np.array([LOG_ETA_BOUND - 1.0]), lam))
        assert above.saturated is True
        assert below.saturated is False
        assert below.with_beta(above.theta.beta).saturated is True
        assert above.with_beta(below.theta.beta).saturated is False

    def test_fit_reports_its_final_state(self, monkeypatch):
        # one design row far out puts eta past the logit bound at the estimate
        N = 30
        rng = np.random.default_rng(31)
        x = rng.uniform(-1.0, 1.0, N)
        x[0] = 100.0
        X = np.column_stack([np.ones(N), x])
        resp = ResponseSpec(
            "y", LinkSpec("logit"), VarianceSpec("constant"), CovLinkSpec("identity"),
            X, MatrixPredictor((mat_identity(N),)),
        )
        y = 1.0 / (1.0 + np.exp(-(0.2 + 0.5 * x))) + 0.05 * rng.standard_normal(N)
        final = []
        original = mcglm.solver.build_godambe
        monkeypatch.setattr(
            mcglm.solver, "build_godambe", lambda state: final.append(state) or original(state)
        )
        res = fit(ModelSpec((resp,)), y)
        assert res.converged
        assert final[-1].saturated is True
        assert res.saturated is True
