import dataclasses

import numpy as np
import pytest

from mcglm import (
    CovLinkSpec,
    DomainError,
    JointCovariance,
    LinkSpec,
    MatrixPredictor,
    ModelSpec,
    ResponseSpec,
    SimSpec,
    SolverOptions,
    VarianceSpec,
    build_sigma_r,
    build_state,
    fit,
    generalized_kronecker,
    make_theta,
    mat_compound_symmetry,
    mat_identity,
    sigma_b_from_rho,
    simulate_gaussian,
)
import mcglm.covariance
import mcglm.estfun
from mcglm.covariance import (
    ResponseCovariance,
    _cached_property,
    chol_deriv,
    dC_dpar_r,
    dC_drho,
    dC_dscale,
    dSigma_dtau,
    phi_operator,
    scale_direction,
    variance_scale,
)
from mcglm.errors import FactorizationError
from mcglm.matpred import StructureMatrix

from helpers import (
    block_joint_inverse,
    car_components,
    gaussian_two_response,
    product_rule_dC,
    random_pd,
    random_symmetric,
    rel_err,
    weight_matrix,
)


def rc_from_sigma(sigma):
    L = np.linalg.cholesky(sigma)
    return ResponseCovariance(sigma=sigma, chol=L, omega=sigma)


class TestSigmaBFromRho:
    def test_two_responses(self):
        Sb = sigma_b_from_rho([0.5], 2)
        assert np.array_equal(Sb, np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_columnwise_convention(self):
        Sb = sigma_b_from_rho([0.1, 0.2, 0.3], 3)
        assert Sb[1, 0] == 0.1 and Sb[2, 0] == 0.2 and Sb[2, 1] == 0.3
        assert np.array_equal(Sb, Sb.T)

    def test_zero_gives_identity(self):
        assert np.array_equal(sigma_b_from_rho([0.0], 2), np.eye(2))


class TestBuildSigmaR:
    def test_iid_constant(self):
        rc = build_sigma_r(
            np.zeros(3),
            VarianceSpec("constant"),
            1.0,
            [2.0],
            MatrixPredictor((mat_identity(3),)),
            CovLinkSpec("identity"),
        )
        assert np.allclose(rc.sigma, 2.0 * np.eye(3))
        assert np.allclose(rc.chol @ rc.chol.T, rc.sigma, atol=1e-12)

    def test_tweedie_poisson_like(self):
        # K_r carries no scale; Sigma_r = S K_r S with S = diag(sqrt(mu))
        mu, var = np.array([2.0, 3.0]), VarianceSpec("tweedie_power")
        rc = build_sigma_r(
            mu, var, 1.0, [1.0], MatrixPredictor((mat_identity(2),)), CovLinkSpec("identity"),
        )
        assert np.array_equal(rc.sigma, np.eye(2))
        s = variance_scale(mu, var, 1.0)
        assert np.allclose(s[:, None] * rc.sigma * s[None, :], np.diag([2.0, 3.0]))

    def test_poisson_tweedie_adds_mean_diagonal(self):
        # K_r = Omega + diag(mu^{1-p}), so S K_r S = mu^p Omega + diag(mu)
        mu, var = np.array([2.0]), VarianceSpec("poisson_tweedie")
        rc = build_sigma_r(
            mu, var, 2.0, [1.0], MatrixPredictor((mat_identity(1),)), CovLinkSpec("identity"),
        )
        assert rc.sigma[0, 0] == pytest.approx(1.0 + 0.5)
        assert variance_scale(mu, var, 2.0)[0] ** 2 * rc.sigma[0, 0] == pytest.approx(2.0 + 4.0)

    def test_chol_diagonal_positive(self):
        rng = np.random.default_rng(0)
        pred = MatrixPredictor((mat_identity(4),))
        rc = build_sigma_r(
            rng.uniform(0.5, 2.0, 4),
            VarianceSpec("tweedie_power"),
            1.5,
            [1.3],
            pred,
            CovLinkSpec("identity"),
        )
        assert np.all(np.diag(rc.chol) > 0)


class TestGeneralizedKronecker:
    def test_identity_between_gives_block_diagonal(self):
        rng = np.random.default_rng(1)
        rcs = [rc_from_sigma(random_pd(rng, 3)) for _ in range(2)]
        jc = generalized_kronecker(rcs, np.eye(2))
        assert np.max(np.abs(jc.block(jc.C, 0, 1))) < 1e-10
        assert np.max(np.abs(jc.block(jc.C, 0, 0) - rcs[0].sigma)) < 1e-10

    def test_equal_sigmas_give_plain_kronecker(self):
        rng = np.random.default_rng(2)
        sigma = random_pd(rng, 4)
        Sb = sigma_b_from_rho([0.4, 0.2, -0.1], 3)
        jc = generalized_kronecker([rc_from_sigma(sigma)] * 3, Sb)
        assert np.max(np.abs(jc.C - np.kron(Sb, sigma))) < 1e-10

    def test_scalar_cross_term(self):
        jc = generalized_kronecker(
            [rc_from_sigma(np.array([[4.0]])), rc_from_sigma(np.array([[9.0]]))],
            np.array([[1.0, 0.5], [0.5, 1.0]]),
        )
        assert np.allclose(jc.C, np.array([[4.0, 3.0], [3.0, 9.0]]))

    def test_block_multiplication_oracle(self):
        rng = np.random.default_rng(3)
        rcs = [rc_from_sigma(random_pd(rng, 3)) for _ in range(3)]
        Sb = sigma_b_from_rho([0.3, 0.1, 0.2], 3)
        jc = generalized_kronecker(rcs, Sb)
        B = np.zeros((9, 9))
        for r in range(3):
            B[3 * r : 3 * r + 3, 3 * r : 3 * r + 3] = rcs[r].chol
        expected = B @ np.kron(Sb, np.eye(3)) @ B.T
        assert np.max(np.abs(jc.C - expected)) < 1e-9

    def test_inverse_contract(self):
        rng = np.random.default_rng(4)
        rcs = [rc_from_sigma(random_pd(rng, 4)) for _ in range(2)]
        jc = generalized_kronecker(rcs, sigma_b_from_rho([0.35], 2))
        assert np.max(np.abs(jc.C @ jc.C_inv - np.eye(8))) < 1e-8

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        rcs = [rc_from_sigma(random_pd(rng, 5)) for _ in range(2)]
        jc = generalized_kronecker(rcs, sigma_b_from_rho([0.2], 2))
        assert np.max(np.abs(jc.C - jc.C.T)) < 1e-12


class TestJointInverse:
    """For R > 1, C_inv of one shared block comes from C_chol = Bdiag(chol_r) (Lb kron I), of a stack block by block."""

    # per response, the unit axis of its stack: 1 (every unit shares the block) or 5
    AXES = {"shared": (1, 1, 1), "per_unit": (5, 5, 5), "mixed": (1, 5, 1)}

    @staticmethod
    def responses(R, axes, m=3, seed=30):
        rng = np.random.default_rng(seed)
        sigmas = [np.stack([random_pd(rng, m) for _ in range(n)]) for n in axes[:R]]
        return [rc_from_sigma(sigma) for sigma in sigmas]

    @pytest.mark.parametrize("axes", sorted(AXES))
    @pytest.mark.parametrize("R, rho", [(2, [0.45]), (3, [0.3, -0.2, 0.25])])
    def test_inverse_equals_the_block_formula(self, R, rho, axes):
        rcs = self.responses(R, self.AXES[axes])
        jc = generalized_kronecker(rcs, sigma_b_from_rho(rho, R))
        assert jc.C_inv.shape == (max(self.AXES[axes][:R]), 3 * R, 3 * R)
        assert rel_err(jc.C_inv, block_joint_inverse(jc)) < 1e-13
        assert np.array_equal(jc.C_inv, np.swapaxes(jc.C_inv, -1, -2))
        assert rel_err(jc.C_chol @ np.swapaxes(jc.C_chol, -1, -2), jc.C) < 1e-13
        assert np.array_equal(jc.C_chol, np.tril(jc.C_chol))

    @pytest.mark.parametrize("axes", sorted(AXES))
    @pytest.mark.parametrize("R, rho", [(2, [0.45]), (3, [0.3, -0.2, 0.25])])
    def test_directly_built_joint_reports_its_factor(self, R, rho, axes):
        Sb = sigma_b_from_rho(rho, R)
        rcs = tuple(self.responses(R, self.AXES[axes]))
        C_inv = generalized_kronecker(rcs, Sb).C_inv
        jc = JointCovariance(C_inv=C_inv, responses=rcs, Sb=Sb, Lb=np.linalg.cholesky(Sb))
        assert rel_err(jc.C_chol @ np.swapaxes(jc.C_chol, -1, -2), jc.C) < 1e-13
        assert rel_err(jc.C_chol @ np.swapaxes(jc.C_chol, -1, -2) @ jc.C_inv, np.eye(3 * R)) < 1e-12

    @pytest.mark.parametrize("axes", sorted(AXES))
    @pytest.mark.parametrize("R, rho", [(2, [1.2]), (3, [0.9, 0.9, -0.9])])
    def test_non_pd_rho_raises(self, R, rho, axes):
        rcs = self.responses(R, self.AXES[axes])
        with pytest.raises(FactorizationError):
            generalized_kronecker(rcs, sigma_b_from_rho(rho, R))


class TestPhiOperator:
    def test_identity(self):
        assert np.array_equal(phi_operator(np.eye(2)), 0.5 * np.eye(2))

    def test_strictly_lower_unchanged(self):
        M = np.array([[0.0, 0.0], [3.0, 0.0]])
        assert np.array_equal(phi_operator(M), M)

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        M = random_symmetric(rng, 5)
        P = phi_operator(M)
        assert np.max(np.abs(P + P.T - M)) < 1e-14


class TestCholDeriv:
    def test_identity_base(self):
        rng = np.random.default_rng(7)
        E = random_symmetric(rng, 3)
        assert np.allclose(chol_deriv(np.eye(3), np.eye(3), E), phi_operator(E), atol=1e-13)

    def test_scalar_sqrt_rule(self):
        a = np.array([4.0, 9.0, 0.25])
        L = np.diag(np.sqrt(a))
        dL = chol_deriv(L, np.linalg.inv(L), np.eye(3))
        assert np.allclose(np.diag(dL), 1.0 / (2.0 * np.sqrt(a)), atol=1e-13)

    def test_directional_fd(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(25):
            sigma = random_pd(rng, 5)
            direction = random_symmetric(rng, 5)
            L = np.linalg.cholesky(sigma)
            fd = (
                np.linalg.cholesky(sigma + h * direction)
                - np.linalg.cholesky(sigma - h * direction)
            ) / (2 * h)
            assert rel_err(chol_deriv(L, np.linalg.inv(L), direction), fd) < 1e-6

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            sigma = random_pd(rng, 6)
            direction = random_symmetric(rng, 6)
            L = np.linalg.cholesky(sigma)
            dL = chol_deriv(L, np.linalg.inv(L), direction)
            assert np.max(np.abs(dL @ L.T + L @ dL.T - direction)) < 1e-9


class TestDCdrho:
    def test_scalar_blocks(self):
        rcs = [rc_from_sigma(np.array([[4.0]])), rc_from_sigma(np.array([[9.0]]))]
        jc = generalized_kronecker(rcs, sigma_b_from_rho([0.5], 2))
        dC = dC_drho(jc, 0)
        assert np.allclose(dC, np.array([[0.0, 6.0], [6.0, 0.0]]))

    def test_diagonal_blocks_zero(self):
        rng = np.random.default_rng(10)
        rcs = [rc_from_sigma(random_pd(rng, 3)) for _ in range(3)]
        jc = generalized_kronecker(rcs, sigma_b_from_rho([0.1, 0.2, 0.3], 3))
        for i in range(3):
            dC = dC_drho(jc, i)
            for r in range(3):
                assert np.max(np.abs(jc.block(dC, r, r))) == 0.0

    def test_fd_oracle(self):
        rng = np.random.default_rng(11)
        rcs = [rc_from_sigma(random_pd(rng, 4)) for _ in range(3)]
        rho = np.array([0.2, -0.1, 0.15])
        h = 1e-6
        for i in range(3):
            jc = generalized_kronecker(rcs, sigma_b_from_rho(rho, 3))
            e = np.zeros(3)
            e[i] = h
            Cp = generalized_kronecker(rcs, sigma_b_from_rho(rho + e, 3)).C
            Cm = generalized_kronecker(rcs, sigma_b_from_rho(rho - e, 3)).C
            assert rel_err(dC_drho(jc, i), (Cp - Cm) / (2 * h)) < 1e-6


class TestDCdparR:
    def test_identity_between_block_diagonal(self):
        rng = np.random.default_rng(12)
        rcs = [rc_from_sigma(random_pd(rng, 3)) for _ in range(2)]
        jc = generalized_kronecker(rcs, np.eye(2))
        dS = random_symmetric(rng, 3)
        dC = dC_dpar_r(jc, 0, dS)
        assert np.max(np.abs(jc.block(dC, 0, 0) - dS)) < 1e-9
        assert np.max(np.abs(jc.block(dC, 1, 1))) < 1e-12

    def test_single_response_passthrough(self):
        rng = np.random.default_rng(13)
        sigma = random_pd(rng, 4)
        jc = generalized_kronecker([rc_from_sigma(sigma)], np.eye(1))
        dS = random_symmetric(rng, 4)
        assert np.array_equal(dC_dpar_r(jc, 0, dS), dS)

    @pytest.mark.parametrize("n_units", [None, 5])
    @pytest.mark.parametrize("R", [1, 2, 3])
    def test_matches_the_product_rule(self, R, n_units):
        # the diagonal block is dS itself; the product rule rebuilds it to rounding
        rng = np.random.default_rng(20 + R)

        def draw(make):
            if n_units is None:
                return make(rng, 4)
            return np.stack([make(rng, 4) for _ in range(n_units)])

        Sb = sigma_b_from_rho(rng.uniform(-0.3, 0.3, size=R * (R - 1) // 2), R)
        jc = generalized_kronecker([rc_from_sigma(draw(random_pd)) for _ in range(R)], Sb)
        for r in range(R):
            dS = draw(random_symmetric)
            dC = dC_dpar_r(jc, r, dS)
            assert np.array_equal(jc.block(dC, r, r), dS)
            assert np.array_equal(dC, np.swapaxes(dC, -1, -2))
            assert rel_err(dC, product_rule_dC(jc, r, dS)) <= 1e-12

    def test_fd_oracle_r3(self):
        rng = np.random.default_rng(14)
        sigmas = [random_pd(rng, 3) for _ in range(3)]
        Sb = sigma_b_from_rho([0.25, 0.1, -0.2], 3)
        h = 1e-6
        for r in range(3):
            direction = random_symmetric(rng, 3)
            jc = generalized_kronecker([rc_from_sigma(s) for s in sigmas], Sb)
            plus = [s + (h * direction if i == r else 0.0) for i, s in enumerate(sigmas)]
            minus = [s - (h * direction if i == r else 0.0) for i, s in enumerate(sigmas)]
            Cp = generalized_kronecker([rc_from_sigma(s) for s in plus], Sb).C
            Cm = generalized_kronecker([rc_from_sigma(s) for s in minus], Sb).C
            assert rel_err(dC_dpar_r(jc, r, direction), (Cp - Cm) / (2 * h)) < 1e-6


def car_inverse_model():
    """R = 1 6x8 CAR model under the inverse covariance link: (model, theta, one Gaussian draw)."""
    comps = car_components(6, 8)
    N = comps[0].dim
    resp = ResponseSpec(
        "y", LinkSpec("identity"), VarianceSpec("constant"), CovLinkSpec("inverse"),
        np.ones((N, 1)), MatrixPredictor(comps),
    )
    model = ModelSpec((resp,))
    tau = np.array([1.0, -0.4, 0.8, -0.24, 0.5, 0.1])
    theta = make_theta(model, np.array([1.0]), model.pack_lambda([], [1.0], [tau]))
    y = simulate_gaussian(SimSpec(model, theta, 1, seed=99))[0]
    return model, theta, y


class TestCholDerivUse:
    """Only the off-diagonal blocks of dC, present for R > 1, take a Cholesky derivative."""

    def counted_fit(self, monkeypatch, model, y, opts):
        calls = {"chol_deriv": 0, "dC_dpar_r": 0, "dSigma_dtau": 0}
        for module, name in [
            (mcglm.covariance, "chol_deriv"),
            (mcglm.estfun, "dC_dpar_r"),
            (mcglm.estfun, "dSigma_dtau"),
        ]:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        res = fit(model, y, opts)
        assert res.converged
        return calls

    def test_single_response_car_fit_forms_none(self, monkeypatch):
        # under the inverse link each tau's A_i is read off Z: no dC_i is formed at all
        model, _, y = car_inverse_model()
        opts = SolverOptions(algorithm="reciprocal", max_iter=500)
        calls = self.counted_fit(monkeypatch, model, y, opts)
        assert calls == {"chol_deriv": 0, "dC_dpar_r": 0, "dSigma_dtau": 0}

    def test_two_response_fit_forms_some(self, monkeypatch):
        model, theta = gaussian_two_response(N=16, seed=28)
        y = simulate_gaussian(SimSpec(model, theta, 1, seed=29))[0]
        calls = self.counted_fit(monkeypatch, model, y, SolverOptions())
        assert calls["dC_dpar_r"] > 0 and calls["chol_deriv"] > 0


class TestScaleUse:
    """A state evaluates V(mu) once per response for the stacked scales, which K_r does not hold.

    A free power's derivative evaluates it once more per unit size.
    """

    def counted_state(self, monkeypatch, model, theta, y):
        calls = []
        original = mcglm.covariance.variance_eval

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(mcglm.covariance, "variance_eval", counted)
        state = build_state(model, y, theta)
        assert len(state.covariance.A_units) == len(model.unit_groups)
        return len(calls)

    def test_single_response_car(self, monkeypatch):
        # inverse link, R = 1: every tau's A_i comes from A_dtau
        model, theta, y = car_inverse_model()
        assert len(model.unit_groups) == 1
        assert self.counted_state(monkeypatch, model, theta, y) == 1

    def test_two_response_identity_link(self, monkeypatch):
        # units of two sizes; response 2's estimated power goes through dC_dscale
        groups = np.array([0, 0, 1, 1, 1, 2, 2, 3, 3, 3])
        N = groups.size
        X = np.column_stack([np.ones(N), np.linspace(-1.0, 1.0, N)])
        pred = MatrixPredictor((mat_identity(N), mat_compound_symmetry(groups)))
        model = ModelSpec((
            ResponseSpec(
                "y1", LinkSpec("identity"), VarianceSpec("constant"), CovLinkSpec("identity"),
                X, pred,
            ),
            ResponseSpec(
                "y2", LinkSpec("log"), VarianceSpec("tweedie_power", power_known=False),
                CovLinkSpec("identity"), X, pred,
            ),
        ))
        lam = model.pack_lambda([0.3], [1.0, 1.2], [[1.0, 0.2], [0.5, 0.1]])
        theta = make_theta(model, np.array([1.0, 0.5, 0.3, -0.2]), lam)
        y = simulate_gaussian(SimSpec(model, theta, 1, seed=7))[0]
        assert len(model.unit_groups) == 2
        assert self.counted_state(monkeypatch, model, theta, y) == model.R + 2


def sigma_at(mu, var, p, tau, pred, cl):
    """Sigma_r = S K_r S, from build_sigma_r and variance_scale."""
    s = variance_scale(mu, var, p)
    return s[:, None] * build_sigma_r(mu, var, p, tau, pred, cl).sigma * s[None, :]


def dsigma_dscale(mu, var, p, tau, pred, cl, dmu=None):
    """dSigma_r in p, or along dmu, as S dC_dscale S for R = 1."""
    jc = generalized_kronecker([build_sigma_r(mu, var, p, tau, pred, cl)], np.eye(1))
    if dmu is None:
        e, f = scale_direction(var, mu, p)
    else:
        e, f = scale_direction(var, mu, p, dmu[:, None])
        e, f = e[:, 0], None if f is None else f[:, 0]
    s = variance_scale(mu, var, p)
    return s[:, None] * dC_dscale(jc, 0, e, f) * s[None, :]


class TestDSigma:
    """dSigma_r in a tau (dSigma_dtau), and in p or along mu through the scale (dC_dscale)."""

    def setup_method(self):
        self.pred = MatrixPredictor((mat_identity(3),))
        self.cl = CovLinkSpec("identity")

    def test_dp_zero_at_unit_mean(self):
        var = VarianceSpec("tweedie_power")
        dS = dsigma_dscale(np.ones(3), var, 1.3, [1.0], self.pred, self.cl)
        assert np.max(np.abs(dS)) < 1e-14

    def test_dp_scalar_oracle(self):
        mu = np.array([np.e])
        pred = MatrixPredictor((mat_identity(1),))
        omega = 1.7
        dS = dsigma_dscale(mu, VarianceSpec("tweedie_power"), 0.0, [omega], pred, self.cl)
        # d/dp of omega * mu^p at p=0 is omega * ln mu = omega
        assert dS[0, 0] == pytest.approx(omega, rel=1e-12)

    def test_dp_fd(self):
        rng = np.random.default_rng(15)
        h = 1e-6
        for kind in ("tweedie_power", "poisson_tweedie"):
            var = VarianceSpec(kind)
            for _ in range(10):
                mu = rng.uniform(0.5, 3.0, size=3)
                p = rng.uniform(0.8, 2.0)
                tau = [rng.uniform(0.5, 2.0)]
                f = lambda pp: sigma_at(mu, var, pp, tau, self.pred, self.cl)
                fd = (f(p + h) - f(p - h)) / (2 * h)
                assert rel_err(dsigma_dscale(mu, var, p, tau, self.pred, self.cl), fd) < 1e-6

    def test_dtau_identity_link_constant_variance(self):
        Z = random_symmetric(np.random.default_rng(16), 3)
        pred = MatrixPredictor((mat_identity(3), StructureMatrix.from_dense(Z)))
        var = VarianceSpec("constant")
        rc = build_sigma_r(np.ones(3), var, 1.0, [1.0, 0.1], pred, self.cl)
        dS = dSigma_dtau(rc, self.cl, pred.components[1].dense())
        assert np.allclose(dS, 0.5 * (Z + Z.T), atol=1e-12)

    def test_dtau_inverse_covlink_at_identity(self):
        Z = random_symmetric(np.random.default_rng(17), 3)
        Zs = StructureMatrix.from_dense(Z)
        pred = MatrixPredictor((mat_identity(3), Zs))
        var, cl = VarianceSpec("constant"), CovLinkSpec("inverse")
        rc = build_sigma_r(np.ones(3), var, 1.0, [1.0, 0.0], pred, cl)
        dS = dSigma_dtau(rc, cl, Zs.dense())
        assert np.allclose(dS, -Zs.dense(), atol=1e-12)

    def test_dtau_fd(self):
        rng = np.random.default_rng(18)
        h = 1e-6
        Z = random_symmetric(rng, 4)
        pred = MatrixPredictor((mat_identity(4), StructureMatrix.from_dense(Z)))
        for cl_kind in ("identity", "inverse"):
            cl = CovLinkSpec(cl_kind)
            mu = rng.uniform(0.5, 2.0, size=4)
            var = VarianceSpec("tweedie_power")
            tau = np.array([2.0, 0.15])
            for d in range(2):
                def f(t):
                    tt = tau.copy()
                    tt[d] = t
                    return build_sigma_r(mu, var, 1.4, tt, pred, cl).sigma

                fd = (f(tau[d] + h) - f(tau[d] - h)) / (2 * h)
                rc = build_sigma_r(mu, var, 1.4, tau, pred, cl)
                dS = dSigma_dtau(rc, cl, pred.components[d].dense())
                assert rel_err(dS, fd) < 1e-6

    def test_dmu_constant_variance_is_zero(self):
        var = VarianceSpec("constant")
        dS = dsigma_dscale(
            np.ones(3), var, 1.0, [1.0], self.pred, self.cl, dmu=np.array([1.0, 2.0, 3.0])
        )
        assert np.all(dS == 0.0)

    def test_dmu_fd(self):
        rng = np.random.default_rng(19)
        h = 1e-7
        for kind in ("tweedie_power", "poisson_tweedie", "binomial"):
            var = VarianceSpec(kind)
            mu = rng.uniform(0.3, 0.7 if kind == "binomial" else 3.0, size=3)
            dmu = rng.standard_normal(3)
            tau = [1.2]

            def f(t):
                return sigma_at(mu + t * dmu, var, 1.6, tau, self.pred, self.cl)

            fd = (f(h) - f(-h)) / (2 * h)
            dS = dsigma_dscale(mu, var, 1.6, tau, self.pred, self.cl, dmu=dmu)
            assert rel_err(dS, fd) < 1e-6

    @pytest.mark.parametrize("R", [2, 3])
    def test_poisson_tweedie_term_off_the_diagonal(self, R):
        # for R > 1 the diagonal mu^{1-p} of K_r moves the off-diagonal blocks of C too
        rng = np.random.default_rng(40 + R)
        m, var, cl = 3, VarianceSpec("poisson_tweedie"), self.cl
        pred = MatrixPredictor((mat_identity(m), mat_compound_symmetry([0, 0, 1])))
        mus = [rng.uniform(0.5, 3.0, size=m) for _ in range(R)]
        taus = [[rng.uniform(0.8, 1.5), 0.2] for _ in range(R)]
        Sb = sigma_b_from_rho(rng.uniform(-0.3, 0.3, size=R * (R - 1) // 2), R)

        def C_at(p0):
            p = [p0] + [1.4] * (R - 1)
            jc = generalized_kronecker(
                [build_sigma_r(mu, var, pp, t, pred, cl) for mu, pp, t in zip(mus, p, taus)], Sb
            )
            s = np.concatenate([variance_scale(mu, var, pp) for mu, pp in zip(mus, p)])
            return jc, s

        h, p0 = 1e-6, 1.3
        (jp, sp), (jm, sm) = C_at(p0 + h), C_at(p0 - h)
        fd = (sp[:, None] * jp.C * sp[None, :] - sm[:, None] * jm.C * sm[None, :]) / (2 * h)
        jc, s = C_at(p0)
        e, f = scale_direction(var, mus[0], p0)
        dC = s[:, None] * dC_dscale(jc, 0, e, f) * s[None, :]
        assert rel_err(dC, fd) < 1e-6
        off = dC_dscale(jc, 0, 0.0 * e, f)[m:, :m]
        assert np.max(np.abs(off)) > 1e-3

class TestWeightMatrix:
    def test_identity_c(self):
        dC = random_symmetric(np.random.default_rng(20), 3)
        assert np.allclose(weight_matrix(np.eye(3), dC), dC)

    def test_scaled_identity(self):
        W = weight_matrix(0.5 * np.eye(2), np.eye(2))
        assert np.allclose(W, 0.25 * np.eye(2))

    def test_negative_fd_of_inverse(self):
        rng = np.random.default_rng(21)
        h = 1e-6
        C = random_pd(rng, 4)
        dC = random_symmetric(rng, 4)
        C_inv = np.linalg.inv(C)
        fd = (np.linalg.inv(C + h * dC) - np.linalg.inv(C - h * dC)) / (2 * h)
        assert rel_err(weight_matrix(C_inv, dC), -fd) < 1e-6


def test_sigma_b_length_check():
    with pytest.raises(DomainError):
        sigma_b_from_rho([0.1, 0.2], 2)


class TestCachedProperty:
    """covariance._cached_property: functools.cached_property without the lock."""

    @staticmethod
    def counted():
        calls = []

        @dataclasses.dataclass(frozen=True)
        class Box:
            x: float

            @_cached_property
            def doubled(self):
                """Twice x."""
                calls.append(self)
                return 2.0 * self.x

        return Box, calls

    def test_computes_once_per_instance_and_keeps_the_value_in_dict(self):
        Box, calls = self.counted()
        a, b = Box(1.0), Box(3.0)
        assert "doubled" not in vars(a)
        assert (a.doubled, a.doubled, b.doubled) == (2.0, 2.0, 6.0)
        assert calls == [a, b]
        assert vars(a)["doubled"] == 2.0

    def test_class_access_returns_the_descriptor_with_its_docstring(self):
        Box, _ = self.counted()
        prop = Box.doubled
        assert isinstance(prop, _cached_property) and prop is vars(Box)["doubled"]
        assert prop.__doc__ == "Twice x."
        assert prop.func(Box(2.0)) == 4.0

    def test_a_value_put_in_dict_is_read_without_computing(self):
        Box, calls = self.counted()
        a = Box(1.0)
        a.__dict__["doubled"] = -1.0
        assert a.doubled == -1.0 and calls == []
        rc = ResponseCovariance(np.eye(2), np.eye(2), chol=np.eye(2))
        assert vars(rc)["chol"] is rc.chol
