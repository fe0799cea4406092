import dataclasses
import json

import numpy as np
import pytest

from mcglm import (
    ConvergenceError,
    CovLinkSpec,
    DomainError,
    FitResult,
    LinkSpec,
    MatrixPredictor,
    ModelSpec,
    ResponseSpec,
    SolverOptions,
    SingularMatrixError,
    StepFailureError,
    VarianceSpec,
    build_state,
    chaser_step,
    fit,
    initialize,
    make_theta,
    mat_identity,
    reciprocal_step,
    simulate_gaussian,
)
import mcglm.estfun
import mcglm.solver
from mcglm.cli import write_fit_outputs
from mcglm.estfun import GodambeResult, pearson_vector, quasi_score
from mcglm.simulate import SimSpec
from mcglm.solver import alpha_strategy

from helpers import gaussian_two_response, nonpd_instance, random_instance, rel_err, scatter
from test_covariance import car_inverse_model


def iid_normal(N, K, seed=0):
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


def poisson_model(N, K, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(N)] + [rng.standard_normal(N) for _ in range(K - 1)])
    resp = ResponseSpec(
        "y",
        LinkSpec("log"),
        VarianceSpec("tweedie_power", power_known=True),
        CovLinkSpec("identity"),
        X,
        MatrixPredictor((mat_identity(N),)),
        power_value=1.0,
    )
    return ModelSpec((resp,))


def poisson_irls_oracle(y, X, tol=1e-12, max_iter=100):
    """Independent log-link Poisson IRLS used as the regression oracle."""
    beta = np.zeros(X.shape[1])
    beta[0] = np.log(max(np.mean(y), 1e-8))
    for _ in range(max_iter):
        eta = X @ beta
        mu = np.exp(eta)
        W = mu
        z = eta + (y - mu) / mu
        XtW = X.T * W
        new = np.linalg.solve(XtW @ X, XtW @ z)
        if np.max(np.abs(new - beta)) < tol:
            beta = new
            break
        beta = new
    return beta


TIGHT = SolverOptions(tol_score=1e-12, tol_param=1e-12, max_iter=300)


class TestAlphaStrategy:
    def test_failure_escalates(self):
        assert alpha_strategy(0.0) == pytest.approx(0.01)
        assert alpha_strategy(0.05) == pytest.approx(0.06)

    def test_cap_then_hard_failure(self):
        a = alpha_strategy(0.995)
        assert a == 1.0
        with pytest.raises(ConvergenceError):
            alpha_strategy(a)


class TestStepAlgebra:
    def test_reciprocal_alpha_zero_bitwise_equals_chaser(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            model, y, theta = random_instance(rng, N=8, R=2)
            t1 = chaser_step(theta, model, y)
            t2 = reciprocal_step(theta, model, y, alpha=0.0)
            assert np.array_equal(t1.flat, t2.flat)

    def test_fit_takes_the_chaser_step(self):
        # fit runs the same step function: its second iterate is chaser_step's
        model, theta_true = gaussian_two_response(N=16, seed=7)
        y = simulate_gaussian(SimSpec(model, theta_true, 1, seed=8))[0]
        res = fit(model, y, SolverOptions(max_iter=2))
        expected = chaser_step(initialize(model, y), model, y).flat
        assert np.array_equal(res.trace[1].theta, expected)

    def test_pd_retries_reuse_the_lambda_terms(self, monkeypatch):
        # a retry changes only alpha: S_lambda is computed once per beta step
        model, y, _ = nonpd_instance()
        calls = []
        original = mcglm.solver.sensitivity_lambda

        def counted(state):
            calls.append(state)
            return original(state)

        monkeypatch.setattr(mcglm.solver, "sensitivity_lambda", counted)
        res = fit(model, y, SolverOptions(algorithm="reciprocal"))
        assert res.converged and res.n_alpha_escalations > 0
        assert len(calls) == res.n_iter - 1
        assert len({id(state) for state in calls}) == len(calls)

    def test_proposals_keep_the_beta_steps_mean_half(self, monkeypatch):
        # one mean evaluation for the start and one per beta step, none per lambda proposal
        model, y, _ = nonpd_instance()
        calls = []
        original = mcglm.estfun._mean_half

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(mcglm.estfun, "_mean_half", counted)
        res = fit(model, y, SolverOptions(algorithm="reciprocal"))
        assert res.converged and res.n_alpha_escalations > 0
        assert len(calls) == res.n_iter

    def test_chaser_fixed_point_iid_normal(self):
        # at beta = OLS and tau0 = RSS/(N-K) the corrected step is stationary
        N, K = 15, 3
        model = iid_normal(N, K, seed=1)
        X = model.responses[0].design
        rng = np.random.default_rng(2)
        y = X @ np.array([1.0, -0.5, 0.2]) + rng.standard_normal(N)
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        rss = float(np.sum((y - X @ beta) ** 2))
        lam = model.pack_lambda([], [1.0], [np.array([rss / (N - K)])])
        theta = make_theta(model, beta, lam)
        t1 = chaser_step(theta, model, y, correct=True)
        assert np.max(np.abs(t1.flat - theta.flat)) < 1e-10

    def test_chaser_uncorrected_tau_one_step(self):
        # from the OLS beta, one uncorrected lambda step lands on RSS/N
        N, K = 12, 2
        model = iid_normal(N, K, seed=3)
        X = model.responses[0].design
        rng = np.random.default_rng(4)
        y = rng.standard_normal(N)
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        rss = float(np.sum((y - X @ beta) ** 2))
        lam = model.pack_lambda([], [1.0], [np.array([0.7])])
        theta = make_theta(model, beta, lam)
        t1 = chaser_step(theta, model, y, correct=False)
        _, _, tau = model.split_lambda(t1.lam)
        assert tau[0][0] == pytest.approx(rss / N, rel=1e-12)

    def test_beta_step_is_gls_for_identity_link(self):
        # with identity link and fixed C the beta update solves the GLS
        # normal equations in one step regardless of the starting beta
        model, theta = gaussian_two_response(N=10, seed=5)
        rng = np.random.default_rng(6)
        y = rng.standard_normal(20)
        t1 = chaser_step(theta, model, y)
        state = build_state(model, y, theta)
        C_inv = scatter(state, "C_inv")
        D = state.D
        gls = np.linalg.solve(D.T @ C_inv @ D, D.T @ C_inv @ y)
        assert np.max(np.abs(t1.beta - gls)) < 1e-10


class TestInitialize:
    def test_gaussian_uses_ols(self):
        N, K = 14, 3
        model = iid_normal(N, K, seed=7)
        X = model.responses[0].design
        rng = np.random.default_rng(8)
        y = rng.standard_normal(N)
        theta0 = initialize(model, y)
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.max(np.abs(theta0.beta - ols)) < 1e-8
        _, _, tau = model.split_lambda(theta0.lam)
        resid = y - X @ ols
        assert tau[0][0] == pytest.approx(float(np.mean(resid ** 2)), rel=1e-8)

    def test_rho_and_extra_tau_start_at_zero(self):
        model, _ = gaussian_two_response(N=12, seed=9)
        y = np.random.default_rng(10).standard_normal(24)
        theta0 = initialize(model, y)
        rho, _, tau = model.split_lambda(theta0.lam)
        assert np.all(rho == 0.0)
        assert tau[0][1] == 0.0 and tau[1][1] == 0.0

    def test_power_start_values(self):
        rng = np.random.default_rng(11)
        N = 10
        X = np.ones((N, 1))
        responses = []
        for kind, expected in [("tweedie_power", 1.0), ("poisson_tweedie", 1.5)]:
            responses.append(
                ResponseSpec(
                    kind,
                    LinkSpec("log"),
                    VarianceSpec(kind, power_known=False),
                    CovLinkSpec("identity"),
                    X,
                    MatrixPredictor((mat_identity(N),)),
                    power_value=1.2,
                )
            )
        model = ModelSpec(tuple(responses))
        y = rng.poisson(3.0, size=2 * N).astype(float) + 0.5
        theta0 = initialize(model, y)
        _, p, _ = model.split_lambda(theta0.lam)
        assert p[0] == 1.0 and p[1] == 1.5

    def test_inverse_covlink_reciprocal_tau(self):
        N = 16
        X = np.ones((N, 1))
        mk = lambda cov: ModelSpec(
            (
                ResponseSpec(
                    "y",
                    LinkSpec("identity"),
                    VarianceSpec("constant"),
                    CovLinkSpec(cov),
                    X,
                    MatrixPredictor((mat_identity(N),)),
                ),
            )
        )
        y = np.random.default_rng(12).normal(0, 2.0, N)
        t_id = initialize(mk("identity"), y)
        t_inv = initialize(mk("inverse"), y)
        _, _, tau_id = mk("identity").split_lambda(t_id.lam)
        _, _, tau_inv = mk("inverse").split_lambda(t_inv.lam)
        assert tau_inv[0][0] == pytest.approx(1.0 / tau_id[0][0], rel=1e-10)

    def test_rank_deficient_design_names_its_beta_columns(self):
        # y1 repeats its constant column: beta columns 2 and 3 of the joint beta
        model, _ = gaussian_two_response(N=12, seed=9)
        X = model.responses[1].design
        y1 = dataclasses.replace(model.responses[1], design=np.column_stack([X[:, :1], X]))
        model = ModelSpec((model.responses[0], y1))
        y = np.random.default_rng(10).standard_normal(24)
        with pytest.raises(SingularMatrixError, match=r"rank deficient.*beta columns \[2, 3\]$"):
            initialize(model, y)


    @staticmethod
    def counted_steps(monkeypatch):
        # initialize checks the rank of D^T W D once per scoring step
        steps = []
        original = mcglm.solver._check_beta_rank
        monkeypatch.setattr(mcglm.solver, "_check_beta_rank", lambda M: steps.append(M) or original(M))
        return steps

    @pytest.mark.parametrize("R", [1, 2])
    def test_identity_constant_start_stops_after_two_steps(self, monkeypatch, R):
        # the first step is the least-squares fit; the second moves nothing and ends it
        model = iid_normal(30, 3, seed=23) if R == 1 else gaussian_two_response(N=30, seed=24)[0]
        y = np.random.default_rng(25).normal(3.0, 2.0, 30 * R)
        steps = self.counted_steps(monkeypatch)
        theta0 = initialize(model, y)
        assert len(steps) == 2
        ols = np.concatenate([
            np.linalg.lstsq(resp.design, y[r * 30 : (r + 1) * 30], rcond=None)[0]
            for r, resp in enumerate(model.responses)
        ])
        assert np.max(np.abs(theta0.beta - ols)) <= 1e-12

    def test_log_link_start_matches_ten_steps(self, monkeypatch):
        model = poisson_model(40, 3, seed=26)
        X = model.responses[0].design
        y = np.random.default_rng(27).poisson(np.exp(X @ [1.0, 0.4, -0.3])).astype(float)
        steps = self.counted_steps(monkeypatch)
        stopped = initialize(model, y)
        n_stopped = len(steps)
        assert n_stopped < mcglm.solver.IRLS_ITER
        monkeypatch.setattr(mcglm.solver, "IRLS_STEP_TOL", -1.0)
        ten = initialize(model, y)
        assert len(steps) - n_stopped == mcglm.solver.IRLS_ITER
        assert np.max(np.abs(stopped.flat - ten.flat)) <= 1e-10 * np.max(np.abs(ten.flat))


class TestRankCheck:
    """The rank test reads D^T W D scaled to unit diagonal, so units do not matter."""

    @staticmethod
    def line(N=40, c=1.0):
        rng = np.random.default_rng(28)
        x = rng.standard_normal(N)
        resp = ResponseSpec(
            "y", LinkSpec("identity"), VarianceSpec("constant"), CovLinkSpec("identity"),
            np.column_stack([np.ones(N), c * x]), MatrixPredictor((mat_identity(N),)),
        )
        return ModelSpec((resp,)), 2.0 + 0.7 * x + rng.standard_normal(N)

    @pytest.mark.parametrize("c", [1e6, 1e7])
    def test_a_column_in_large_units_fits(self, c):
        model, y = self.line(c=c)
        res, ref = fit(model, y), fit(self.line()[0], y)
        assert res.converged
        unit = np.array([1.0, c, 1.0])
        assert rel_err(res.theta_hat.flat * unit, ref.theta_hat.flat) < 1e-9
        assert rel_err(res.std_errors * unit, ref.std_errors) < 1e-9

    def test_responses_on_far_apart_scales_fit(self):
        # two Gaussian responses, one near 1e7 and the other near 0.1, both designs [1, x]
        N = 40
        model, _ = self.line(N)
        model = ModelSpec((model.responses[0], dataclasses.replace(model.responses[0], name="z")))
        rng = np.random.default_rng(29)
        x = model.responses[0].design[:, 1]
        y = np.concatenate([1 + 0.1 * x + 0.05 * rng.standard_normal(N),
                            1 + 0.3 * x + 0.2 * rng.standard_normal(N)])
        scale = np.repeat([1e7, 0.1], N)
        res, ref = fit(model, scale * y), fit(model, y)
        assert res.converged
        # beta in the responses' units, rho free of them, tau in their squares
        unit = np.array([1e7, 1e7, 0.1, 0.1, 1.0, 1e14, 1e-2])
        assert rel_err(res.theta_hat.flat / unit, ref.theta_hat.flat) < 1e-9
        assert rel_err(res.std_errors / unit, ref.std_errors) < 1e-9

    def test_a_zero_column_is_named(self):
        model, y = self.line()
        X = model.responses[0].design
        resp = dataclasses.replace(model.responses[0], design=np.column_stack([X, 0.0 * X[:, 0]]))
        with pytest.raises(SingularMatrixError, match=r"rank deficient.*beta columns \[2\]$"):
            initialize(ModelSpec((resp,)), y)


class TestFit:
    def test_iid_normal_closed_forms(self):
        N, K = 25, 3
        model = iid_normal(N, K, seed=13)
        X = model.responses[0].design
        rng = np.random.default_rng(14)
        y = X @ np.array([2.0, 1.0, -1.0]) + rng.standard_normal(N)
        res = fit(model, y, TIGHT)
        assert res.converged
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        rss = float(np.sum((y - X @ ols) ** 2))
        assert np.max(np.abs(res.theta_hat.beta - ols)) < 1e-10
        _, _, tau = model.split_lambda(res.theta_hat.lam)
        assert tau[0][0] == pytest.approx(rss / (N - K), rel=1e-10)

    def test_iid_normal_uncorrected_gives_mle(self):
        N, K = 20, 2
        model = iid_normal(N, K, seed=15)
        X = model.responses[0].design
        rng = np.random.default_rng(16)
        y = rng.standard_normal(N)
        opts = SolverOptions(
            tol_score=1e-12, tol_param=1e-12, max_iter=300, correct_pearson=False
        )
        res = fit(model, y, opts)
        assert res.converged
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        rss = float(np.sum((y - X @ ols) ** 2))
        _, _, tau = model.split_lambda(res.theta_hat.lam)
        assert tau[0][0] == pytest.approx(rss / N, rel=1e-10)

    def test_quasi_poisson_matches_irls_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            N, K = 30, 2
            model = poisson_model(N, K, seed=100 + trial)
            X = model.responses[0].design
            mu = np.exp(X @ np.array([1.0, 0.4]))
            y = rng.poisson(mu).astype(float)
            if np.all(y == 0):
                continue
            res = fit(model, y, TIGHT)
            assert res.converged
            oracle = poisson_irls_oracle(y, X)
            assert np.max(np.abs(res.theta_hat.beta - oracle)) < 1e-8

    def test_root_of_both_equations(self):
        model, theta_true = gaussian_two_response(N=16, seed=18)
        y = simulate_gaussian(SimSpec(model, theta_true, 1, seed=19))[0]
        res = fit(model, y, TIGHT)
        assert res.converged
        state = build_state(model, y, res.theta_hat)
        from mcglm.estfun import bias_correction

        assert np.max(np.abs(quasi_score(state))) < 1e-9
        assert np.max(np.abs(pearson_vector(state) + bias_correction(state))) < 1e-9

    def test_trace_and_metadata(self):
        N, K = 12, 2
        model = iid_normal(N, K, seed=20)
        y = np.random.default_rng(21).standard_normal(N)
        res = fit(model, y)
        assert isinstance(res, FitResult)
        assert res.n_iter == len(res.trace)
        assert res.trace[-1].score_norm <= res.trace[1].score_norm
        assert res.fitted.shape == (N,)
        assert not res.saturated
        assert res.n_alpha_escalations == 0

    def test_clipped_sandwich_variance_is_named(self, monkeypatch, tmp_path):
        model, theta_true = gaussian_two_response(N=16, seed=28)
        y = simulate_gaussian(SimSpec(model, theta_true, 1, seed=29))[0]
        original = mcglm.solver.build_godambe

        def negative_rho_variance(state):
            god = original(state)
            J_inv = god.J_inv.copy()
            J_inv[model.K, model.K] = -1e-3
            return GodambeResult(god.S_theta, god.V_theta, J_inv)

        monkeypatch.setattr(mcglm.solver, "build_godambe", negative_rho_variance)
        res = fit(model, y)
        assert res.std_errors[model.K] == 0.0
        name = model.parameter_names()[model.K]
        assert len(res.warnings) == 1 and name in res.warnings[0]
        write_fit_outputs(tmp_path, model, res)
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["warnings"] == list(res.warnings)

    def test_trace_splits_the_score_norm(self, tmp_path):
        model, theta_true = gaussian_two_response(N=16, seed=28)
        y = simulate_gaussian(SimSpec(model, theta_true, 1, seed=29))[0]
        res = fit(model, y)
        last = res.trace[-1]
        state = build_state(model, y, res.theta_hat)
        assert last.beta_score_norm == float(np.max(np.abs(quasi_score(state))))
        write_fit_outputs(tmp_path, model, res)
        doc = json.loads((tmp_path / "result.json").read_text())
        assert len(doc["trace"]) == res.n_iter
        for t, entry in zip(res.trace, doc["trace"]):
            assert t.score_norm == max(t.beta_score_norm, t.lambda_score_norm)
            assert entry == {
                "score_norm": t.score_norm,
                "beta_score_norm": t.beta_score_norm,
                "lambda_score_norm": t.lambda_score_norm,
                "alpha": t.alpha,
                "pd_retries": t.pd_retries,
                "beta_step_norm": t.beta_step_norm,
                "lambda_step_norm": t.lambda_step_norm,
            }

    def test_trace_records_the_alpha_each_step_used(self, tmp_path):
        model, y, _ = nonpd_instance()
        opts = SolverOptions(algorithm="reciprocal")
        res = fit(model, y, opts)
        assert res.converged and res.n_alpha_escalations > 0
        assert res.trace[0].alpha == 0.0
        steps = [round(t.alpha / opts.alpha_step) for t in res.trace]
        assert sum(steps) == res.n_alpha_escalations
        write_fit_outputs(tmp_path, model, res)
        doc = json.loads((tmp_path / "result.json").read_text())
        assert [entry["alpha"] for entry in doc["trace"]] == [t.alpha for t in res.trace]

    @pytest.mark.parametrize("max_iter", [3, 200])
    def test_trace_records_the_pd_retries_of_each_step(self, tmp_path, max_iter):
        model, y, _ = nonpd_instance()
        opts = SolverOptions(algorithm="reciprocal", max_iter=max_iter)
        res = fit(model, y, opts)
        assert res.converged == (max_iter == 200)
        retries = [t.pd_retries for t in res.trace]
        assert retries[0] == 0
        assert sum(retries) == res.n_alpha_escalations > 0
        assert retries == [round(t.alpha / opts.alpha_step) for t in res.trace]
        write_fit_outputs(tmp_path, model, res)
        doc = json.loads((tmp_path / "result.json").read_text())
        assert [entry["pd_retries"] for entry in doc["trace"]] == retries

    @pytest.mark.parametrize("case", ["chaser", "reciprocal-retries"])
    def test_trace_step_norms_are_the_theta_differences(self, tmp_path, case):
        if case == "chaser":
            model, theta_true = gaussian_two_response(N=16, seed=28)
            y = simulate_gaussian(SimSpec(model, theta_true, 1, seed=29))[0]
            res = fit(model, y)
        else:
            model, y, _ = nonpd_instance()
            res = fit(model, y, SolverOptions(algorithm="reciprocal"))
            assert res.n_alpha_escalations > 0
        assert res.converged
        assert res.trace[0].beta_step_norm == res.trace[0].lambda_step_norm == 0.0
        K = model.K
        for prev, t in zip(res.trace, res.trace[1:]):
            step = t.theta - prev.theta
            assert t.beta_step_norm == float(np.max(np.abs(step[:K])))
            assert t.lambda_step_norm == float(np.max(np.abs(step[K:])))
        last = res.trace[-1]
        assert max(last.beta_step_norm, last.lambda_step_norm) < SolverOptions().tol_param
        write_fit_outputs(tmp_path, model, res)
        doc = json.loads((tmp_path / "result.json").read_text())
        for t, entry in zip(res.trace, doc["trace"]):
            assert (entry["beta_step_norm"], entry["lambda_step_norm"]) == (
                t.beta_step_norm, t.lambda_step_norm,
            )

    def test_singular_lambda_variability_is_a_step_failure(self, monkeypatch):
        # only a damped step (alpha > 0) solves V_lambda; nonpd_instance escalates alpha
        model, y, _ = nonpd_instance()
        monkeypatch.setattr(
            mcglm.solver, "variability_lambda", lambda state, k4: np.zeros((state.Q, state.Q))
        )
        with pytest.raises(StepFailureError, match="singular lambda variability"):
            fit(model, y, SolverOptions(algorithm="reciprocal"))

    def test_max_iter_stops_at_the_last_recorded_iterate(self):
        # no step follows the record of iteration max_iter
        model, y, _ = nonpd_instance()
        res = fit(model, y, SolverOptions(algorithm="reciprocal", max_iter=3))
        assert not res.converged
        assert res.n_iter == len(res.trace) == 3
        assert np.array_equal(res.theta_hat.flat, res.trace[-1].theta)
        assert np.array_equal(res.fitted, build_state(model, y, res.theta_hat).mu)

    def test_no_warnings_without_clipping(self):
        model, theta_true = gaussian_two_response(N=16, seed=28)
        y = simulate_gaussian(SimSpec(model, theta_true, 1, seed=29))[0]
        assert fit(model, y).warnings == ()

    def test_max_iter_exhaustion_not_converged(self):
        model, theta_true = gaussian_two_response(N=16, seed=22)
        y = simulate_gaussian(SimSpec(model, theta_true, 1, seed=23))[0]
        res = fit(model, y, SolverOptions(tol_score=1e-14, tol_param=1e-15, max_iter=2))
        assert not res.converged
        assert res.n_iter == 2

    def test_reciprocal_same_root_as_chaser(self):
        model, theta_true = gaussian_two_response(N=16, seed=24)
        y = simulate_gaussian(SimSpec(model, theta_true, 1, seed=25))[0]
        res_c = fit(model, y, TIGHT)
        res_r = fit(
            model,
            y,
            SolverOptions(
                algorithm="reciprocal", tol_score=1e-12, tol_param=1e-12, max_iter=300
            ),
        )
        assert res_c.converged and res_r.converged
        assert np.max(np.abs(res_c.theta_hat.flat - res_r.theta_hat.flat)) < 1e-8

    def test_two_response_recovers_truth_roughly(self):
        model, theta_true = gaussian_two_response(N=60, seed=26)
        y = simulate_gaussian(SimSpec(model, theta_true, 1, seed=27))[0]
        res = fit(model, y, TIGHT)
        assert res.converged
        # point estimates within a few standard errors of the truth
        delta = np.abs(res.theta_hat.flat - theta_true.flat)
        assert np.all(delta < 6.0 * np.maximum(res.std_errors, 0.05))


def _two_response_data():
    model, theta = gaussian_two_response(N=40, seed=3)
    return model, simulate_gaussian(SimSpec(model, theta, 1, seed=1))[0]


def _car_inverse_data():
    model, _, y = car_inverse_model()
    return model, y


@pytest.mark.parametrize("data", [_two_response_data, _car_inverse_data])
def test_one_block_fit_calls_no_numpy_linalg_routine(monkeypatch, data):
    # every unit shares one block, so each factorization, inverse, solve and eigenvalue
    # problem of the fit is one matrix: mcglm.functions' one-call LAPACK wrappers take it
    model, y = data()

    def forbidden(*args, **kwargs):
        raise AssertionError("the fit called a numpy.linalg routine")

    for name in ("cholesky", "solve", "inv", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    res = fit(model, y, SolverOptions(algorithm="reciprocal"))
    assert res.converged
    assert np.all(np.isfinite(res.std_errors))


class TestSolverOptions:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(DomainError):
            SolverOptions(algorithm="newton")

    def test_rejects_bad_tolerances(self):
        with pytest.raises(DomainError):
            SolverOptions(tol_score=0.0)
        with pytest.raises(DomainError):
            SolverOptions(alpha_step=2.0, alpha_max=1.0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_max_iter_below_one(self, max_iter):
        with pytest.raises(DomainError, match="max_iter"):
            SolverOptions(max_iter=max_iter)
