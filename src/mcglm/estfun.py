"""Quasi-score and Pearson estimating functions and the Godambe calculus.

The central object is an EstimatingState: the full evaluation of the
model at one theta. Its mean half holds the means, residuals, mean
gradient and link-saturation flag; its covariance half, a StateCovariance, holds the joint
covariance and, formed on first use, A_i = C^{-1} dC_i in each lambda.
When no response's variance depends on mu, C does not depend on beta,
and states that differ only in beta share one covariance half
(EstimatingState.with_beta). C, C^{-1} and every dC_i are block
diagonal over the model's independent units, so each quantity is
computed batched over the unit blocks of every unit size and summed
over the units. When every unit of a size has the same structure
blocks and no variance depends on mu, C, C^{-1} and every A_i keep one
block for all of them (a unit axis of 1), which broadcasts against the
per-unit r, D, u and G. The lambda blocks are traces tr(W_i M) with
W_i = C^{-1} dC_i C^{-1}; they and the beta blocks are computed from r,
D, u = C^{-1} r, G = C^{-1} D and A_i, the only derivative they read:
u^T dC_i u = r^T A_i u, tr(C^{-1} dC_i) = tr(A_i) and
G^T dC_i G = D^T A_i G. So W_i is never formed, and when C^{-1} is a
precision (R = 1 under the inverse covariance link) no tau's dC_i is
formed either.

Units that share one block are summed before they meet A_i: the
Pearson quadratic form is the inner product of A_i with sum_u r_u u_u^T
and the bias correction that of A_i with sum_u D_u J_beta^{-T} G_u^T,
one m x m sum per unit size whatever the number of units, and u is one
product of all the residual rows with the shared C^{-1}. Where each
unit has its own block, the products stay per unit: the sum would cost
as much and add temporaries. Each response's tau derivatives are built
in one call on the stack of its component blocks
(MatrixPredictor.blocks), with a leading axis over the components.
"""
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .covariance import (
    A_dtau,
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
class StateCovariance:
    """The covariance half of an EstimatingState: C at one (mu, lambda).

    ``groups`` holds one factorized JointCovariance per size of unit, as
    ``model.unit_groups``: (n_units, R m, R m) stacks whose rows and
    columns sit at ``index`` in the stacked N R vector, or (1, R m, R m)
    when every unit shares one block (``shared_units``). ``variance`` and
    ``A_units`` (the (Q, n_units, R m, R m) stacks of the unit blocks of
    every A_i = C^{-1} dC_i) are computed on first use, so a covariance
    that is only factorized (a rejected proposal, a simulation) forms
    neither, and states that share this object share them. A_i is the
    only lambda derivative held: the derivative checks read dC_i as C A_i.
    """

    model: object
    mu: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    groups: tuple = field(repr=False)

    @cached_property
    def index(self):
        return tuple(grp.joint for grp in self.model.unit_groups)

    @cached_property
    def shared_units(self):
        """Per unit size, how many units each block of its stacks stands for.

        All of them when the units share one block (a unit axis of 1),
        else 1. A sum over units of a covariance-only term is this count
        times the sum over the stack.
        """
        return tuple(idx.shape[0] // g.C_inv.shape[0] for idx, g in zip(self.index, self.groups))

    @cached_property
    def variance(self):
        """diag(C), the marginal variances of the stacked responses."""
        out = np.empty(self.model.N * self.model.R)
        for idx, g in zip(self.index, self.groups):
            diags = [np.diagonal(rc.sigma, axis1=-2, axis2=-1) for rc in g.responses]
            out[idx] = np.concatenate(np.broadcast_arrays(*diags), axis=-1)
        return out

    @cached_property
    def A_units(self):
        """A_i = C^{-1} dC_i; each response's tau derivatives are built in one stacked call.

        The call takes the response's stacked component blocks (a leading
        axis of D+1): A_dtau when the joint inverse is a precision, else
        dSigma_dtau and dC_dpar_r. A rho or power dC_i is built on its
        own, and every dC_i of a unit size meets C^{-1} in one product.
        """
        model = self.model
        lam_map = model.lambda_index_map()
        out = []
        for grp, joint in zip(model.unit_groups, self.groups):
            A = np.empty((model.Q,) + joint.C_inv.shape)
            precise = joint.R == 1 and joint.responses[0].precision is not None
            pos, dC, taus = [], [], [[] for _ in model.responses]
            for i, (role, idx, _) in enumerate(lam_map):
                if role == "tau":
                    taus[idx].append(i)
                    continue
                if role == "rho":
                    dC_i = dC_drho(joint, idx)
                else:
                    mu, var = self.mu[idx * model.N + grp.index], model.responses[idx].variance
                    dS = dSigma_dp(mu, var, self.lam[i], joint.responses[idx])
                    dC_i = dC_dpar_r(joint, idx, dS)
                pos.append(i)
                dC.append(dC_i[None])
            for r, (resp, rc) in enumerate(zip(model.responses, joint.responses)):
                Z = grp.predictors[r].blocks
                if precise:
                    A[taus[r]] = A_dtau(rc, Z)
                else:
                    pos += taus[r]
                    dC.append(dC_dpar_r(joint, r, dSigma_dtau(rc, resp.covlink, Z)))
            if dC:
                A[pos] = joint.C_inv @ np.concatenate(dC)
            out.append(A)
        return tuple(out)


@dataclass(frozen=True)
class EstimatingState:
    """Model evaluated at one theta: everything the estimating functions need.

    The mean half (mu, the residual, the mean gradient D and whether any
    inverse link saturated there) is held here;
    the covariance half is a StateCovariance. The ``*_units`` attributes
    hold one entry per size of unit: the rows of each unit of D, of the
    residual r, of u = C^{-1} r and of G = C^{-1} D, computed on first use,
    as are J_beta = D^T G and the quasi-score psi_beta = D^T u, which the
    iteration record and the beta step both read.
    """

    model: object
    theta: object
    y: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)          # NR stacked means
    residual: np.ndarray = field(repr=False)    # y - mu
    D: np.ndarray = field(repr=False)           # NR x K mean gradient
    saturated: bool
    covariance: StateCovariance = field(repr=False)

    @property
    def K(self):
        return self.D.shape[1]

    @property
    def Q(self):
        return self.model.Q

    @cached_property
    def D_units(self):
        return tuple(self.D[idx] for idx in self.covariance.index)

    @cached_property
    def r_units(self):
        return tuple(self.residual[idx] for idx in self.covariance.index)

    @cached_property
    def u_units(self):
        return tuple(
            # C^{-1} is exactly symmetric, so a shared block multiplies all rows at once
            r @ g.C_inv[0] if n > 1 else (g.C_inv @ r[..., None])[..., 0]
            for n, g, r in zip(self.covariance.shared_units, self.covariance.groups, self.r_units)
        )

    @cached_property
    def G_units(self):
        return tuple(g.C_inv @ D for g, D in zip(self.covariance.groups, self.D_units))

    @cached_property
    def J_beta(self):
        """J_beta = D^T C^{-1} D = D^T G, summed over units."""
        K = self.K
        return sum(
            D.reshape(-1, K).T @ G.reshape(-1, K) for D, G in zip(self.D_units, self.G_units)
        )

    @cached_property
    def psi_beta(self):
        """The quasi-score psi_beta = D^T C^{-1} (y - mu) = D^T u, summed over units."""
        K = self.K
        return sum(D.reshape(-1, K).T @ u.ravel() for D, u in zip(self.D_units, self.u_units))

    def with_beta(self, beta):
        """The state at a new beta, its mean half evaluated again.

        C depends on beta only through the variance functions, so when no
        response's variance depends on mu the new state shares this
        state's covariance, caches included. Otherwise the covariance is
        rebuilt, which raises FactorizationError when it is not PD.
        """
        model = self.model
        theta = self.theta.with_beta(beta)
        mu, D, saturated = _mean_half(model, theta.beta)
        covariance = self.covariance
        if any(resp.variance.depends_on_mu for resp in model.responses):
            covariance = build_covariance(model, mu, theta.lam)
        return replace(
            self, theta=theta, mu=mu, residual=self.y - mu, D=D, saturated=saturated,
            covariance=covariance,
        )

    def with_lambda(self, lam):
        """The state at new covariance parameters: the mean half is kept and C is built again.

        Raises FactorizationError when the new covariance is not PD.
        """
        theta = self.theta.with_lambda(lam)
        return replace(
            self, theta=theta, covariance=build_covariance(self.model, self.mu, theta.lam)
        )


def _mean_half(model, beta):
    """The stacked means, the mean gradient D and whether any inverse link saturated, at beta.

    The one place the fit and the simulators evaluate g^{-1}(X beta).
    """
    N, K = model.N, model.K
    slices = model.beta_slices()
    mu = np.empty(N * model.R)
    D = np.zeros((N * model.R, K))
    saturated = False
    for r, resp in enumerate(model.responses):
        eta = resp.design @ beta[slices[r]]
        mu[r * N : (r + 1) * N], sat = link_inverse(resp.link, eta, return_saturation=True)
        saturated = saturated or sat
        d_r = link_inverse_deriv(resp.link, eta)
        D[r * N : (r + 1) * N, slices[r]] = d_r[:, None] * resp.design
    return mu, D, saturated


def build_covariance(model, mu, lam):
    """Factorize the joint covariance at the means mu and covariance parameters lam.

    The joint covariance is built batched over the model's units, one
    JointCovariance per unit size. Raises FactorizationError on non-PD
    covariance.
    """
    rho, p, tau = model.split_lambda(lam)
    N = model.N
    Sb = sigma_b_from_rho(rho, model.R)
    joint = []
    for grp in model.unit_groups:
        resp_cov = [
            build_sigma_r(
                mu[r * N + grp.index], resp.variance, p[r], tau[r], grp.predictors[r],
                resp.covlink,
            )
            for r, resp in enumerate(model.responses)
        ]
        joint.append(generalized_kronecker(resp_cov, Sb))
    return StateCovariance(model=model, mu=mu, lam=lam, groups=tuple(joint))


def build_state(model, y, theta):
    """Evaluate the means, the mean gradient and the factorized joint covariance at theta.

    The derivatives are left to StateCovariance.A_units, which forms
    them only when an estimating function first asks for them.
    Raises FactorizationError on non-PD covariance.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != model.N * model.R:
        raise ValueError(f"stacked response has length {y.size}, expected {model.N * model.R}")
    mu, D, saturated = _mean_half(model, theta.beta)
    return EstimatingState(
        model=model,
        theta=theta,
        y=y,
        mu=mu,
        residual=y - mu,
        D=D,
        saturated=saturated,
        covariance=build_covariance(model, mu, theta.lam),
    )


def dC_dbeta(state, j):
    """Derivative of C in the j-th regression coefficient (chain rule via mu).

    The mean direction is column j of D. One stack of unit blocks per
    unit size, as StateCovariance.A_units.
    """
    model = state.model
    _, owner, _ = model.layout[j]
    resp = model.responses[owner]
    _, p, _ = model.split_lambda(state.theta.lam)
    out = []
    for grp, joint in zip(model.unit_groups, state.covariance.groups):
        rows = owner * model.N + grp.index
        dS = dSigma_dmu_dir(
            state.mu[rows], resp.variance, p[owner], joint.responses[owner], state.D[rows, j]
        )
        out.append(dC_dpar_r(joint, owner, dS))
    return tuple(out)


def _flat(X):
    """(Q, ...) -> (Q, n): each leading entry as one row."""
    return X.reshape(X.shape[0], -1)


def _T(X):
    return np.swapaxes(X, -1, -2)


def _units_last(X):
    """(n_units, m, K) -> (m, n_units K): each unit's columns side by side."""
    return np.swapaxes(X, 0, 1).reshape(X.shape[1], -1)


def _quad(state):
    """r^T W_i r = u^T dC_i u = r^T A_i u for every i, summed over units.

    Units that share one block sum first: sum_u r_u^T A_i u_u is the
    inner product of A_i with sum_u r_u u_u^T.
    """
    cov = state.covariance
    return sum(
        _flat(A) @ (r.T @ u).ravel() if n > 1 else _flat(A @ u[..., None]) @ r.ravel()
        for n, r, u, A in zip(cov.shared_units, state.r_units, state.u_units, cov.A_units)
    )


def quasi_score(state):
    """psi_beta = D^T C^{-1} (y - mu) = D^T u, kept by the state."""
    return state.psi_beta


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
    """S_beta = -D^T C^{-1} D = -J_beta."""
    M = state.J_beta
    M = 0.5 * (M + M.T)
    _check_beta_rank(M)
    return -M


def pearson_vector(state):
    """psi_lambda_i = tr(W_i (r r^T - C)) = u^T dC_i u - tr(A_i)."""
    cov = state.covariance
    trace = sum(
        n * np.trace(A, axis1=-2, axis2=-1).sum(axis=1)
        for n, A in zip(cov.shared_units, cov.A_units)
    )
    return _quad(state) - trace


def sensitivity_lambda(state):
    """S_lambda[i, j] = -tr(W_i C W_j C) = -tr(A_i A_j)."""
    cov = state.covariance
    S = -sum(n * (_flat(A) @ _flat(_T(A)).T) for n, A in zip(cov.shared_units, cov.A_units))
    return 0.5 * (S + S.T)


def variability_lambda(state, k4):
    """V_lambda with fourth-cumulant adjustment; k4 = 0 gives -2 S_lambda.

    k4 is indexed like the stacked responses; diag(W_i) is the row sums
    of A_i o C^{-1}. Units that share one block share diag(W_i), so their
    k4 is summed over the units first.
    """
    k4 = np.asarray(k4, dtype=float)
    V = -2.0 * sensitivity_lambda(state)
    cov = state.covariance
    for idx, g, A, n in zip(cov.index, cov.groups, cov.A_units, cov.shared_units):
        w = _flat(np.einsum("iuab,uab->iua", A, g.C_inv))
        k = k4[idx].reshape(-1, n, idx.shape[1]).sum(axis=1)
        V = V + (w * k.ravel()) @ w.T
    return V


def empirical_k4(residual, variance):
    """Empirical fourth cumulants r_l^4 - 3 C_ll^2, elementwise; variance is diag(C)."""
    r = np.asarray(residual, dtype=float)
    return r ** 4 - 3.0 * np.asarray(variance, dtype=float) ** 2


def cross_sensitivity_lb(state):
    """S_lambda,beta[i, j] = -tr(W_i C W_beta_j C) = -tr(A_i C^{-1} dC_beta_j).

    C does not depend on the beta of a constant-variance response, so
    those columns stay zero without forming dC_beta_j.
    """
    model, cov = state.model, state.covariance
    S = np.zeros((state.Q, state.K))
    for resp, sl in zip(model.responses, model.beta_slices()):
        if not resp.variance.depends_on_mu:
            continue
        for j in range(sl.start, sl.stop):
            S[:, j] = -sum(
                _flat(A) @ _T(g.C_inv @ dCb).ravel()
                for A, g, dCb in zip(cov.A_units, cov.groups, dC_dbeta(state, j))
            )
    return S


def cross_variability_lb(state):
    """Plug-in cross variability: (r^T W_i r) * (D^T C^{-1} r)_j, r^T W_i r = u^T dC_i u.

    This is the empirical-third-moment contraction of the triple sum
    with the expectation dropped; the sums over (l, m) and k factorize.
    """
    return np.outer(_quad(state), quasi_score(state))


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
    """Bias correction b_i = tr(D^T W_i D J_beta^{-1}), with D^T W_i D = D^T A_i G.

    Units that share one block sum first: b_i is the inner product of
    A_i with sum_u D_u J_beta^{-T} G_u^T.
    """
    J_beta, K = state.J_beta, state.K
    if J_beta.size == 0:
        return np.zeros(state.Q)
    try:
        J_inv = np.linalg.inv(J_beta)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("J_beta is singular in the bias correction")
    b = np.zeros(state.Q)
    cov = state.covariance
    for n, D, G, A in zip(cov.shared_units, state.D_units, state.G_units, cov.A_units):
        if n > 1:
            DJ = (D.reshape(-1, K) @ J_inv.T).reshape(D.shape)
            B = _units_last(DJ) @ _units_last(G).T
            b += _flat(A) @ B.ravel()
        else:
            b += _flat(np.sum(_T(D) @ (A @ G), axis=1)) @ J_inv.T.ravel()
    return b


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
    k4 = empirical_k4(state.residual, state.covariance.variance)
    V[K:, K:] = variability_lambda(state, k4)
    V_lb = cross_variability_lb(state)
    V[K:, :K] = V_lb
    V[:K, K:] = V_lb.T
    return godambe(S, V)
