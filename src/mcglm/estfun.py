"""Quasi-score and Pearson estimating functions and the Godambe calculus.

The central object is an EstimatingState: the full evaluation of the
model at one theta (means, residuals, mean gradient, joint covariance
and, formed on first use, its derivative dC_i in each lambda). The
lambda blocks are traces tr(W_i M) with W_i = C^{-1} dC_i C^{-1}; they
and the beta blocks are computed from u = C^{-1} r, G = C^{-1} D and
A_i = C^{-1} dC_i, so W_i itself is never formed.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .covariance import (
    build_sigma_r,
    dC_dpar_r,
    dC_drho,
    dSigma_dmu_dir,
    dSigma_dp,
    dSigma_dtau,
    generalized_kronecker,
    sigma_b_from_rho,
)
from .errors import SingularMatrixError
from .functions import link_inverse, link_inverse_deriv


@dataclass(frozen=True)
class EstimatingState:
    """Model evaluated at one theta: everything the estimating functions need.

    dC[i], the derivative of C in the i-th lambda, u = C^{-1} r,
    G = C^{-1} D and A[i] = C^{-1} dC_i are computed on first use, so a
    state that is only factorized (a rejected proposal, a simulation)
    forms none of them.
    """

    model: object
    theta: object
    y: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)          # NR stacked means
    residual: np.ndarray = field(repr=False)    # y - mu
    D: np.ndarray = field(repr=False)           # NR x K mean gradient
    dmu_deta: tuple = field(repr=False)         # per-response derivative vectors
    assembly: object = None

    @property
    def K(self):
        return self.D.shape[1]

    @property
    def Q(self):
        return self.model.Q

    @cached_property
    def dC(self):
        model, assembly = self.model, self.assembly
        N = model.N
        _, p, _ = model.split_lambda(self.theta.lam)
        out = []
        for role, idx, d in model.lambda_index_map():
            if role == "rho":
                out.append(dC_drho(assembly, idx))
                continue
            resp = model.responses[idx]
            mu_r = self.mu[idx * N : (idx + 1) * N]
            rc = assembly.responses[idx]
            if role == "power":
                dS = dSigma_dp(mu_r, resp.variance, p[idx], rc)
            else:
                Z = resp.predictor.components[d]
                dS = dSigma_dtau(mu_r, resp.variance, p[idx], rc, resp.covlink, Z)
            out.append(dC_dpar_r(assembly, idx, dS))
        return tuple(out)

    @cached_property
    def u(self):
        return self.assembly.C_inv @ self.residual

    @cached_property
    def G(self):
        return self.assembly.C_inv @ self.D

    @cached_property
    def A(self):
        return tuple(self.assembly.C_inv @ dC for dC in self.dC)


def build_state(model, y, theta):
    """Evaluate the means, the mean gradient and the factorized joint covariance at theta.

    The derivatives dC_i are left to EstimatingState.dC, which forms
    them only when an estimating function first asks for them. Raises
    FactorizationError on non-PD covariance.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    N, R, K = model.N, model.R, model.K
    if y.size != N * R:
        raise ValueError(f"stacked response has length {y.size}, expected {N * R}")
    rho, p, tau = model.split_lambda(theta.lam)
    slices = model.beta_slices()

    mu = np.empty(N * R)
    dmu_deta = []
    D = np.zeros((N * R, K))
    resp_cov = []
    for r, resp in enumerate(model.responses):
        beta_r = theta.beta[slices[r]]
        eta = resp.design @ beta_r
        mu_r = link_inverse(resp.link, eta)
        d_r = link_inverse_deriv(resp.link, eta)
        mu[r * N : (r + 1) * N] = mu_r
        dmu_deta.append(d_r)
        D[r * N : (r + 1) * N, slices[r]] = d_r[:, None] * resp.design
        resp_cov.append(
            build_sigma_r(mu_r, resp.variance, p[r], tau[r], resp.predictor, resp.covlink)
        )
    Sb = sigma_b_from_rho(rho, R)
    assembly = generalized_kronecker(resp_cov, Sb)

    return EstimatingState(
        model=model,
        theta=theta,
        y=y,
        mu=mu,
        residual=y - mu,
        D=D,
        dmu_deta=tuple(dmu_deta),
        assembly=assembly,
    )


def dC_dbeta(state, j):
    """Derivative of C in the j-th regression coefficient (chain rule via mu)."""
    model = state.model
    N = model.N
    slices = model.beta_slices()
    owner = next(r for r, sl in enumerate(slices) if sl.start <= j < sl.stop)
    resp = model.responses[owner]
    local = j - slices[owner].start
    _, p, _ = model.split_lambda(state.theta.lam)
    mu_r = state.mu[owner * N : (owner + 1) * N]
    dmu = state.dmu_deta[owner] * resp.design[:, local]
    rc = state.assembly.responses[owner]
    dS = dSigma_dmu_dir(mu_r, resp.variance, p[owner], rc, dmu)
    return dC_dpar_r(state.assembly, owner, dS)


def quasi_score(state):
    """psi_beta = D^T C^{-1} (y - mu) = D^T u."""
    return state.D.T @ state.u


def _check_beta_rank(M):
    # flag the columns loading on the null direction when D is rank deficient
    w, v = np.linalg.eigh(M)
    if w[-1] <= 0 or w[0] / w[-1] < 1e-12:
        load = np.abs(v[:, 0])
        cols = np.flatnonzero(load > 0.5 * load.max())
        raise SingularMatrixError(
            f"design is rank deficient; null direction loads on beta columns {cols.tolist()}"
        )


def sensitivity_beta(state):
    """S_beta = -D^T C^{-1} D = -D^T G."""
    M = state.D.T @ state.G
    M = 0.5 * (M + M.T)
    _check_beta_rank(M)
    return -M


def pearson_vector(state):
    """psi_lambda_i = tr(W_i (r r^T - C)) = u^T dC_i u - tr(C^{-1} dC_i)."""
    u, C_inv = state.u, state.assembly.C_inv
    return np.array([float(u @ dC @ u - np.sum(C_inv * dC)) for dC in state.dC])


def sensitivity_lambda(state):
    """S_lambda[i, j] = -tr(W_i C W_j C) = -tr(A_i A_j)."""
    A = state.A
    S = np.empty((state.Q, state.Q))
    for i in range(state.Q):
        for j in range(i, state.Q):
            S[i, j] = S[j, i] = -float(np.sum(A[i] * A[j].T))
    return S


def variability_lambda(state, k4):
    """V_lambda with fourth-cumulant adjustment; k4 = 0 gives -2 S_lambda."""
    k4 = np.asarray(k4, dtype=float)
    C_inv = state.assembly.C_inv
    diag = [np.sum(A * C_inv, axis=1) for A in state.A]  # diag(W_i)
    V = -2.0 * sensitivity_lambda(state)
    for i in range(state.Q):
        for j in range(i, state.Q):
            V[i, j] = V[j, i] = V[i, j] + float(np.sum(k4 * diag[i] * diag[j]))
    return V


def empirical_k4(residual, C):
    """Empirical fourth cumulants r_l^4 - 3 C_ll^2, elementwise."""
    r = np.asarray(residual, dtype=float)
    return r ** 4 - 3.0 * np.diag(C) ** 2


def cross_sensitivity_lb(state):
    """S_lambda,beta[i, j] = -tr(W_i C W_beta_j C) = -tr(A_i C^{-1} dC_beta_j).

    C does not depend on the beta of a constant-variance response, so
    those columns stay zero without forming dC_beta_j.
    """
    model = state.model
    S = np.zeros((state.Q, state.K))
    for resp, sl in zip(model.responses, model.beta_slices()):
        if resp.variance.kind == "constant":
            continue
        for j in range(sl.start, sl.stop):
            Bt = (state.assembly.C_inv @ dC_dbeta(state, j)).T
            for i, A in enumerate(state.A):
                S[i, j] = -float(np.sum(A * Bt))
    return S


def cross_variability_lb(state):
    """Plug-in cross variability: (r^T W_i r) * (D^T C^{-1} r)_j, r^T W_i r = u^T dC_i u.

    This is the empirical-third-moment contraction of the triple sum
    with the expectation dropped; the sums over (l, m) and k factorize.
    """
    u = state.u
    quad = np.array([float(u @ dC @ u) for dC in state.dC])
    score = quasi_score(state)
    return np.outer(quad, score)


@dataclass(frozen=True)
class GodambeResult:
    """Joint sensitivity, variability and the sandwich J^{-1} = S^{-1} V S^{-T}."""

    S_theta: np.ndarray = field(repr=False)
    V_theta: np.ndarray = field(repr=False)
    J_inv: np.ndarray = field(repr=False)

    @property
    def std_errors(self):
        return np.sqrt(np.clip(np.diag(self.J_inv), 0.0, None))


def godambe(S_theta, V_theta):
    """Sandwich information J^{-1} = S^{-1} V S^{-T}."""
    S_theta = np.asarray(S_theta, dtype=float)
    V_theta = np.asarray(V_theta, dtype=float)
    try:
        Sinv = np.linalg.inv(S_theta)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(0.5 * (S_theta + S_theta.T))
        null = np.flatnonzero(np.abs(w) < 1e-12 * np.abs(w).max())
        raise SingularMatrixError(
            f"joint sensitivity is singular; null directions {null.tolist()}"
        )
    J_inv = Sinv @ V_theta @ Sinv.T
    J_inv = 0.5 * (J_inv + J_inv.T)
    return GodambeResult(S_theta=S_theta, V_theta=V_theta, J_inv=J_inv)


def bias_correction(state):
    """Bias correction b_i = tr(D^T W_i D J_beta^{-1}), with D^T W_i D = G^T dC_i G."""
    G = state.G
    J_beta = state.D.T @ G
    if J_beta.size == 0:
        return np.zeros(state.Q)
    try:
        J_inv = np.linalg.inv(J_beta)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("J_beta is singular in the bias correction")
    return np.array([float(np.sum((G.T @ dC @ G) * J_inv.T)) for dC in state.dC])


def build_godambe(state):
    """Assemble the full joint S_theta / V_theta and return the sandwich.

    The beta-lambda cross-sensitivity block is identically zero
    (insensitivity of the quasi-score); the lambda-beta block and the
    cross variability use the analytic trace and the empirical
    third-moment plug-in respectively.
    """
    K, Q = state.K, state.Q
    S = np.zeros((K + Q, K + Q))
    V = np.zeros((K + Q, K + Q))
    S_b = sensitivity_beta(state)
    S[:K, :K] = S_b
    S[K:, :K] = cross_sensitivity_lb(state)
    S[K:, K:] = sensitivity_lambda(state)
    V[:K, :K] = -S_b
    k4 = empirical_k4(state.residual, state.assembly.C)
    V[K:, K:] = variability_lambda(state, k4)
    V_lb = cross_variability_lb(state)
    V[K:, :K] = V_lb
    V[:K, K:] = V_lb.T
    return godambe(S, V)
