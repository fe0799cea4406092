"""The beta step keeps the covariance when no response's variance depends on mu."""

from functools import cached_property

import numpy as np
import pytest

import mcglm.covariance
import mcglm.estfun
from mcglm import (
    CovLinkSpec,
    LinkSpec,
    MatrixPredictor,
    ModelSpec,
    ResponseSpec,
    SolverOptions,
    VarianceSpec,
    build_godambe,
    build_state,
    fit,
    make_theta,
    mat_identity,
    mat_kronecker,
    mat_neighborhood,
    simulate_gaussian,
)
from mcglm.estfun import (
    bias_correction,
    empirical_k4,
    pearson_vector,
    quasi_score,
    sensitivity_beta,
    sensitivity_lambda,
    variability_lambda,
)
from mcglm.covariance import build_sigma_r, generalized_kronecker, sigma_b_from_rho
from mcglm.estfun import _MEAN_HALF, _RESIDUAL_FREE, EstimatingState, StateCovariance
from mcglm.estfun import build_covariance
from mcglm.model import ThetaPartition
from mcglm.simulate import SimSpec
from mcglm.solver import _beta_step

from helpers import car_components, gaussian_two_response, nonpd_instance, random_instance
from test_covariance import car_inverse_model
from test_units import CASES


def paired_r2():
    model, theta = gaussian_two_response(N=12, seed=3)
    y = simulate_gaussian(SimSpec(model, theta, 1, seed=4))[0]
    return model, y, theta


def car_inverse(T=3, S=4):
    Wt, Dt = mat_neighborhood([(i, i + 1) for i in range(T - 1)], T)
    Ws, Ds = mat_neighborhood([(i, i + 1) for i in range(S - 1)], S)
    comps = (
        mat_kronecker(Dt, mat_identity(S)), mat_kronecker(Wt, mat_identity(S)),
        mat_kronecker(mat_identity(T), Ds), mat_kronecker(mat_identity(T), Ws),
    )
    N = T * S
    resp = ResponseSpec(
        "y", LinkSpec("identity"), VarianceSpec("constant"), CovLinkSpec("inverse"),
        np.column_stack([np.ones(N), np.arange(N) / N]), MatrixPredictor(comps),
    )
    model = ModelSpec((resp,))
    lam = model.pack_lambda([], [1.0], [np.array([1.0, -0.3, 0.8, -0.2])])
    theta = make_theta(model, np.array([1.0, 0.5]), lam)
    y = simulate_gaussian(SimSpec(model, theta, 1, seed=5))[0]
    return model, y, theta


def r3_constant():
    setups = [("constant", "identity", True), ("constant", "inverse", True)]
    return random_instance(np.random.default_rng(11), N=9, R=3, setups=setups)


def mean_dependent(kind):
    setups = {
        "tweedie": [("tweedie_power", "identity", False)],
        "poisson_tweedie": [("poisson_tweedie", "identity", False)],
        "mixed": [("constant", "identity", True), ("tweedie_power", "identity", True)],
    }[kind]
    rng = np.random.default_rng(12)
    while True:
        model, y, theta = random_instance(rng, N=8, R=2, setups=setups)
        if any(r.variance.kind != "constant" for r in model.responses):
            return model, y, theta


def binomial():
    N = 10
    rng = np.random.default_rng(13)
    resp = ResponseSpec(
        "y", LinkSpec("logit"), VarianceSpec("binomial"), CovLinkSpec("identity"),
        np.column_stack([np.ones(N), rng.standard_normal(N)]),
        MatrixPredictor((mat_identity(N),)),
    )
    model = ModelSpec((resp,))
    theta = make_theta(model, np.array([0.2, -0.3]), model.pack_lambda([], [1.0], [[0.8]]))
    return model, rng.uniform(0.1, 0.9, N), theta


def outputs(state):
    k4 = empirical_k4(state.residual / state.scale, state.covariance.variance)
    god = build_godambe(state)
    return [
        quasi_score(state),
        sensitivity_beta(state),
        pearson_vector(state),
        bias_correction(state),
        sensitivity_lambda(state),
        variability_lambda(state, k4),
        god.S_theta,
        god.V_theta,
        god.J_inv,
    ]


def stepped(model, y, theta):
    """The pre-step state (its dC_i and A_i formed, as fit forms them) and the post-beta state."""
    state = build_state(model, y, theta)
    pearson_vector(state)
    sensitivity_lambda(state)
    return state, _beta_step(state)


@pytest.mark.parametrize("case", [paired_r2, car_inverse, r3_constant])
def test_constant_variance_keeps_the_covariance(case):
    model, y, theta = case()
    assert all(r.variance.kind == "constant" for r in model.responses)
    state, state_b = stepped(model, y, theta)
    assert state_b.covariance is state.covariance
    assert not np.array_equal(state_b.theta.beta, state.theta.beta)
    rebuilt = build_state(model, y, state_b.theta)
    assert np.array_equal(state_b.theta.flat, rebuilt.theta.flat)
    for a, b in zip(outputs(state_b), outputs(rebuilt)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "case",
    [
        lambda: mean_dependent("tweedie"),
        lambda: mean_dependent("poisson_tweedie"),
        lambda: mean_dependent("mixed"),
        binomial,
    ],
    ids=["tweedie", "poisson_tweedie", "mixed", "binomial"],
)
def test_mean_dependent_variance_rebuilds_the_covariance(case):
    # C = S C_Omega S: the beta step rebuilds the scales; C_Omega and its inverse are
    # kept unless poisson_tweedie's diagonal of K_r moves with mu
    model, y, theta = case()
    state, state_b = stepped(model, y, theta)
    assert not np.array_equal(state_b.scale, state.scale)
    kept = not any(r.variance.kind == "poisson_tweedie" for r in model.responses)
    assert (state_b.covariance.groups is state.covariance.groups) == kept
    rebuilt = build_state(model, y, state_b.theta)
    for a, b in zip(outputs(state_b), outputs(rebuilt)):
        assert np.array_equal(a, b)


def counted_fit(monkeypatch, model, y, binding=(mcglm.estfun, "build_covariance")):
    calls = []
    original = getattr(*binding)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(*binding, counted)
    res = fit(model, y, SolverOptions(algorithm="reciprocal"))
    assert res.converged
    return res, len(calls)


def test_constant_variance_fit_builds_once_per_proposal(monkeypatch):
    model, y, _ = nonpd_instance()
    res, n = counted_fit(monkeypatch, model, y)
    assert res.n_alpha_escalations > 0
    assert n == 1 + (res.n_iter - 1) + res.n_alpha_escalations


def count_model(kind):
    N = 30
    rng = np.random.default_rng(14)
    X = np.column_stack([np.ones(N), rng.standard_normal(N)])
    resp = ResponseSpec(
        "y", LinkSpec("log"), VarianceSpec(kind, power_known=True),
        CovLinkSpec("identity"), X, MatrixPredictor((mat_identity(N),)), power_value=1.0,
    )
    return ModelSpec((resp,)), rng.poisson(np.exp(1.0 + 0.3 * X[:, 1])).astype(float)


def test_tweedie_fit_builds_once_per_proposal(monkeypatch):
    # the beta step changes only the scales, so it keeps C_Omega
    res, n = counted_fit(monkeypatch, *count_model("tweedie_power"))
    assert n == 1 + (res.n_iter - 1) + res.n_alpha_escalations


def test_poisson_tweedie_fit_also_builds_after_each_beta_step(monkeypatch):
    # its diagonal mu^{1-p} of K_r moves with beta, so C_Omega is rebuilt
    res, n = counted_fit(monkeypatch, *count_model("poisson_tweedie"))
    assert n == 1 + 2 * (res.n_iter - 1) + res.n_alpha_escalations


def test_tweedie_car_fit_assembles_U_once_per_proposal(monkeypatch):
    # 6 x 8 CAR, log link, inverse covariance link, tweedie_power p = 1.3: U depends on
    # tau alone, so no beta step assembles it again
    comps = car_components(6, 8)
    N = comps[0].dim
    X = np.column_stack([np.ones(N), np.arange(N) / N])
    resp = ResponseSpec(
        "y", LinkSpec("log"), VarianceSpec("tweedie_power"), CovLinkSpec("inverse"),
        X, MatrixPredictor(comps), power_value=1.3,
    )
    model = ModelSpec((resp,))
    tau = np.array([1.0, -0.4, 0.8, -0.24, 0.5, 0.1])
    theta = make_theta(model, np.array([1.0, 0.5]), model.pack_lambda([], [1.3], [tau]))
    y = simulate_gaussian(SimSpec(model, theta, 1, seed=99))[0]
    res, n = counted_fit(monkeypatch, model, y, binding=(mcglm.covariance, "assemble_U"))
    assert res.n_alpha_escalations > 0
    assert n == 1 + (res.n_iter - 1) + res.n_alpha_escalations


def test_rejected_proposals_form_no_A(monkeypatch):
    # R = 1 CAR, inverse link: each accepted state forms its A_i in one A_dtau call, and
    # neither a rejected lambda proposal nor the constant-variance beta step forms any
    model, _, y = car_inverse_model()
    res, n = counted_fit(monkeypatch, model, y, binding=(mcglm.estfun, "A_dtau"))
    assert res.n_alpha_escalations > 0
    assert n == res.n_iter


def test_constant_variance_beta_step_reuses_A(monkeypatch):
    # R = 2: one dC_drho and one dC_dpar_r per response for each accepted lambda
    model, theta = gaussian_two_response(N=40, seed=3)
    y = simulate_gaussian(SimSpec(model, theta, 1, seed=1))[0]
    calls = []
    original = mcglm.estfun.dC_dpar_r

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(mcglm.estfun, "dC_dpar_r", counted)
    res, n = counted_fit(monkeypatch, model, y, binding=(mcglm.estfun, "dC_drho"))
    assert n == res.n_iter
    assert len(calls) == 2 * res.n_iter


# identity link, constant variance: shared blocks and per-unit blocks, R = 1, 2 and 3
CARRYING = {
    "paired_r2": paired_r2,
    "car_inverse": car_inverse,
    "r3_constant": r3_constant,
    "precision_shared": CASES["precision_shared"],
    "one_unit_differs": CASES["one_unit_differs"],
    "shared_next_to_unshared": CASES["shared_next_to_unshared"],
}


@pytest.mark.parametrize("case", sorted(CARRYING))
def test_beta_step_carries_the_residual_free_sums(case):
    model, y, theta = CARRYING[case]()
    state = build_state(model, y, theta)
    bias_correction(state)  # the record forms J_beta, G_units and b, as fit does
    state_b = _beta_step(state)
    assert state_b.D is state.D and state_b.covariance is state.covariance
    for name in _RESIDUAL_FREE:
        assert getattr(state_b, name) is getattr(state, name)
    fresh = build_state(model, y, state_b.theta)
    assert np.array_equal(state_b.J_beta, fresh.J_beta)
    assert np.array_equal(state_b.bias, fresh.bias)
    for carried, built in zip(state_b.G_units + state_b.D_units, fresh.G_units + fresh.D_units):
        assert np.array_equal(carried, built)
    assert not np.array_equal(state_b.psi_beta, state.psi_beta)


def identity_link(kind, power_known):
    N = 12
    rng = np.random.default_rng(21)
    resp = ResponseSpec(
        "y", LinkSpec("identity"), VarianceSpec(kind, power_known=power_known),
        CovLinkSpec("identity"), np.column_stack([np.ones(N), rng.uniform(0, 1, N)]),
        MatrixPredictor((mat_identity(N),)), power_value=1.3,
    )
    model = ModelSpec((resp,))
    theta = make_theta(model, np.array([3.0, 0.5]), model.pack_lambda([], [1.3], [[0.8]]))
    return model, rng.uniform(2.0, 5.0, N), theta


def log_link_constant():
    N = 12
    rng = np.random.default_rng(22)
    resp = ResponseSpec(
        "y", LinkSpec("log"), VarianceSpec("constant"), CovLinkSpec("identity"),
        np.column_stack([np.ones(N), rng.standard_normal(N)]), MatrixPredictor((mat_identity(N),)),
    )
    model = ModelSpec((resp,))
    theta = make_theta(model, np.array([1.0, 0.2]), model.pack_lambda([], [1.0], [[0.8]]))
    return model, rng.uniform(1.0, 5.0, N), theta


@pytest.mark.parametrize(
    "case",
    [
        log_link_constant,
        lambda: identity_link("tweedie_power", False),
        lambda: identity_link("tweedie_power", True),
        lambda: identity_link("poisson_tweedie", True),
    ],
    ids=["log_link", "free_power", "known_power", "poisson_tweedie"],
)
def test_a_new_gradient_scale_or_covariance_carries_nothing(case):
    model, y, theta = case()
    state = build_state(model, y, theta)
    bias_correction(state)
    state_b = _beta_step(state)
    assert not set(_RESIDUAL_FREE) & set(vars(state_b))
    fresh = build_state(model, y, state_b.theta)
    assert np.array_equal(bias_correction(state_b), bias_correction(fresh))


def count_property(monkeypatch, cls, name):
    """Count the evaluations of the cached_property ``cls.name``."""
    calls = []
    original = vars(cls)[name].func

    def counted(self):
        calls.append(self)
        return original(self)

    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return calls


def test_chaser_forms_each_residual_free_sum_once_per_covariance(monkeypatch):
    # every accepted covariance is recorded once, and the beta step keeps it
    model, y, _ = paired_r2()
    bias = count_property(monkeypatch, EstimatingState, "bias")
    J_beta = count_property(monkeypatch, EstimatingState, "J_beta")
    trace = count_property(monkeypatch, StateCovariance, "pearson_trace")
    S_lambda = count_property(monkeypatch, StateCovariance, "S_lambda")
    res = fit(model, y)
    assert res.converged and res.n_alpha_escalations == 0
    assert len(bias) == len(J_beta) == len(trace) == len(S_lambda) == res.n_iter


@pytest.mark.parametrize("case", [paired_r2, car_inverse])
def test_fit_forms_each_records_quadratic_form_and_flat_theta_once(monkeypatch, case):
    # r^T W_i r is formed once by each record's state and each post-beta state, and the
    # Godambe cross variability reads the last record's; each recorded theta is
    # flattened once, for its record and the step that left it
    model, y, _ = case()
    quad = count_property(monkeypatch, EstimatingState, "quad")
    flat = count_property(monkeypatch, ThetaPartition, "flat")
    res = fit(model, y, SolverOptions(algorithm="reciprocal"))
    assert res.converged
    assert len(quad) == 2 * res.n_iter - 1
    assert len(flat) == res.n_iter


# with_lambda keeps mu, D and the residual, and without a free power the scales
LAMBDA_CASES = {"paired_r2": paired_r2, "car_inverse": car_inverse, **CASES}


@pytest.mark.parametrize("case", sorted(LAMBDA_CASES))
def test_lambda_step_hands_on_the_mean_half_stacks(case):
    model, y, theta = LAMBDA_CASES[case]()
    state = build_state(model, y, theta)
    pearson_vector(state)
    bias_correction(state)  # the lambda step forms r_units and D_units, as fit does
    new = state.with_lambda(1.01 * theta.lam)
    free = any(resp.power_free for resp in model.responses)  # a free power carries neither
    for name in _MEAN_HALF:
        assert (getattr(new, name) is getattr(state, name)) != free
    fresh = build_state(model, y, new.theta)
    for carried, built in zip(new.D_units + new.r_units, fresh.D_units + fresh.r_units):
        assert np.array_equal(carried, built)
    assert np.array_equal(pearson_vector(new), pearson_vector(fresh))


@pytest.mark.parametrize(
    "case", ["car_inverse", "car_single_block", "interleaved", "one_unit_differs",
             "poisson_tweedie_free_power", "precision_shared", "tweedie_inverse", "unequal_sizes"]
)
def test_single_response_covariance_matches_the_sigma_b_route(case):
    # R = 1: build_covariance takes a constant [[1]] for Sigma_b where it called sigma_b_from_rho
    model, y, theta = LAMBDA_CASES[case]()
    assert model.R == 1
    mu = build_state(model, y, theta).mu
    cov = build_covariance(model, mu, theta.lam)
    _, p, tau = model.split_lambda(theta.lam)
    resp = model.responses[0]
    for grp, joint in zip(model.unit_groups, cov.groups):
        rc = build_sigma_r(mu[grp.index], resp.variance, p[0], tau[0], grp.predictors[0],
                           resp.covlink)
        old = generalized_kronecker([rc], sigma_b_from_rho([], 1))
        assert np.array_equal(joint.C_inv, old.C_inv)
        assert np.array_equal(joint.Sb, np.eye(1)) and np.array_equal(joint.Lb, np.ones((1, 1)))


def test_a_single_block_A_units_is_minus_Z_Omega():
    model, y, theta = car_inverse()
    cov = build_state(model, y, theta).covariance
    Z, omega = model.unit_groups[0].predictors[0].blocks, cov.groups[0].responses[0].omega
    assert np.array_equal(cov.A_units[0], -(Z @ omega))
