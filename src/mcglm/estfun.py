"""Quasi-score and Pearson estimating functions and the Godambe calculus.

The central object is an EstimatingState: the full evaluation of the
model at one theta. Its mean half holds the means, scales s =
sqrt(V(mu)), residuals, mean gradient and link-saturation flag; its
covariance half, a StateCovariance, holds the correlation C_Omega of
C = S C_Omega S and, formed on first use, A_i = C_Omega^{-1} dC_Omega,i
in each lambda, stacked in theta's order by one walk of the model's
layout (StateCovariance.A_units). Every estimating function reads
C_Omega, the standardized residual r = (y - mu) / s and gradient D / s, and
k4 = empirical_k4 of that r and diag(C_Omega); each trace keeps its
C-space value. Only poisson_tweedie's diagonal of K_r ties C_Omega to
beta, so otherwise states that differ only in beta share it
(EstimatingState.with_beta). Everything is block diagonal over the
model's independent units and computed batched over the blocks of every
unit size: one when all its units share C_Omega and every A_i (a unit
axis of 1), else one per unit. The state reads r, D, u = C_Omega^{-1} r
and G = C_Omega^{-1} D block-major (StateCovariance.stacks), the units
of a block side by side in the last axis, so a sum over the units that
share a block is one batched product with it, whether they are all the
units or one. The lambda blocks are traces tr(W_i M) with
W_i = C^{-1} dC_i C^{-1}, read through A_i alone:
u^T dC_i u = r^T A_i u, tr(C^{-1} dC_i) = tr(A_i) and
G^T dC_i G = D^T A_i G, so W_i is never formed; a trace of A_i alone
counts each block once per unit it stands for.
"""
from dataclasses import dataclass, field

import numpy as np

from .covariance import (
    _ONE,
    _T,
    _cached_property,
    _diag,
    A_dtau,
    build_sigma_r,
    dC_dpar_r,
    dC_drho,
    dC_dscale,
    dSigma_dtau,
    generalized_kronecker,
    scale_direction,
    sigma_b_from_rho,
    variance_scale,
)
from .errors import SingularMatrixError
from .functions import link_inverse, link_inverse_deriv, solve, symmetric_eigenvalues


@dataclass(frozen=True)
class StateCovariance:
    """The covariance half of an EstimatingState: C_Omega at one (mu, lambda).

    ``groups`` holds one factorized JointCovariance of C_Omega per size
    of unit, as ``model.unit_groups``: (n_units, R m, R m) stacks whose
    rows and columns sit at the group's ``joint`` in the stacked N R
    vector, or (1, R m, R m) when every unit shares one block.
    ``stacks`` lays the same positions out block-major for the
    estimating functions.
    ``variance``, ``A_units`` (the (Q, blocks, R m, R m) stacks of
    every A_i) and the residual-free sums of A_i alone, the Pearson
    trace and S_lambda, are computed on first use, so a covariance that
    is only factorized (a rejected proposal, a simulation) forms none of
    them, and states that share this object share them. Only a free
    power's A_i reads mu.
    """

    model: object
    mu: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    groups: tuple = field(repr=False)

    @_cached_property
    def stacks(self):
        """Per unit size, the group's ``joint`` block-major: (blocks, R m, units per block).

        ``blocks`` is the unit axis of A_units: n_units when some power is
        free (its A_i reads each unit's scale), else that of C_Omega^{-1}.
        A vector read through a stack has the units of one block side by
        side in its last axis.
        """
        free = any(resp.power_free for resp in self.model.responses)
        return tuple(
            idx.reshape(len(idx) if free else len(g.C_inv), -1, idx.shape[1]).transpose(0, 2, 1)
            for idx, g in zip((grp.joint for grp in self.model.unit_groups), self.groups)
        )

    @_cached_property
    def variance(self):
        """diag(C_Omega), the marginal variances of the standardized responses."""
        out = np.empty(self.model.N * self.model.R)
        for grp, g in zip(self.model.unit_groups, self.groups):
            diags = [np.diagonal(rc.sigma, axis1=-2, axis2=-1) for rc in g.responses]
            out[grp.joint] = np.concatenate(np.broadcast_arrays(*diags), axis=-1)
        return out

    @_cached_property
    def A_units(self):
        """A_i = C_Omega^{-1} dC_Omega,i, one row block per entry of lambda_index_map.

        Each unit size walks theta's layout once: a rho gives dC_drho, a
        free power dC_dscale at each unit's mu, and a response's first
        tau all of its taus from one call on its stacked components (a
        leading axis of D+1): A_dtau when C_Omega^{-1} is U, else
        dC_dpar_r(dSigma_dtau). Consecutive dC stacks with one unit axis
        take one C_Omega^{-1} product together. The blocks are
        concatenated with their unit axes broadcast, since a free
        power's rows are per unit; a walk that yields one block (one
        response's taus alone) returns it as it is.
        """
        model = self.model
        out = []
        for grp, joint in zip(model.unit_groups, self.groups):
            blocks = []  # A_i stacks, and lists of dC stacks awaiting one product
            for i, (role, r, d) in enumerate(model.lambda_index_map()):
                if role == "rho":
                    dC = dC_drho(joint, r)[None]
                elif role == "power":
                    mu, var = self.mu[r * model.N + grp.index], model.responses[r].variance
                    dC = dC_dscale(joint, r, *scale_direction(var, mu, self.lam[i]))[None]
                elif d == 0:
                    resp, rc, Z = model.responses[r], joint.responses[r], grp.predictors[r].blocks
                    if joint.R == 1 and resp.covlink.kind == "inverse" and rc.sigma is rc.omega:
                        blocks.append(A_dtau(rc, Z))
                        continue
                    dC = dC_dpar_r(joint, r, dSigma_dtau(rc, resp.covlink, Z))
                else:
                    continue
                run = blocks[-1] if blocks and isinstance(blocks[-1], list) else None
                if run and run[0].shape[1:] == dC.shape[1:]:
                    run.append(dC)
                else:
                    blocks.append([dC])
            blocks = [joint.C_inv @ _stacked(b) if isinstance(b, list) else b for b in blocks]
            units = np.broadcast_shapes(*(A.shape[1:] for A in blocks))
            out.append(_stacked([
                A if A.shape[1:] == units else np.broadcast_to(A, A.shape[:1] + units)
                for A in blocks
            ]))
        return tuple(out)

    @_cached_property
    def pearson_trace(self):
        """tr(C^{-1} dC_i) = tr(A_i) for every i, summed over units."""
        return sum(
            idx.shape[-1] * np.trace(A, axis1=-2, axis2=-1).sum(axis=1)
            for idx, A in zip(self.stacks, self.A_units)
        )

    @_cached_property
    def S_lambda(self):
        """S_lambda[i, j] = -tr(A_i A_j), summed over units; read-only."""
        S = -sum(
            idx.shape[-1] * (_flat(A) @ _flat(_T(A)).T) for idx, A in zip(self.stacks, self.A_units)
        )
        return _frozen(0.5 * (S + S.T))


@dataclass(frozen=True)
class EstimatingState:
    """Model evaluated at one theta: everything the estimating functions need.

    The mean half (mu, the residual, the mean gradient D, the scales and
    whether any inverse link saturated there) is held here; the
    covariance half is a StateCovariance. The ``*_units`` attributes hold
    one entry per size of unit, laid out as its ``stacks``: D / s (its K
    columns of a unit side by side), r = (y - mu) / s, u and G, computed
    on first use, as are J_beta = D^T G, the quasi-score psi_beta =
    D^T u, which the iteration record and the beta step both read, and
    the bias correction. D_units, G_units, J_beta and the bias
    correction do not read the residual: with_beta hands them on. D_units
    and r_units read nothing of the covariance: with_lambda hands them on
    while the scales stay.
    """

    model: object
    theta: object
    y: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)          # NR stacked means
    residual: np.ndarray = field(repr=False)    # y - mu
    D: np.ndarray = field(repr=False)           # NR x K mean gradient
    scale: np.ndarray = field(repr=False)       # NR stacked sqrt(V(mu))
    saturated: bool
    covariance: StateCovariance = field(repr=False)

    @property
    def K(self):
        return self.D.shape[1]

    @property
    def Q(self):
        return self.model.Q

    @_cached_property
    def D_units(self):
        D = self.D / self.scale[:, None]
        return tuple(D[idx].reshape(idx.shape[:2] + (-1,)) for idx in self.covariance.stacks)

    @_cached_property
    def r_units(self):
        return tuple((self.residual / self.scale)[idx] for idx in self.covariance.stacks)

    @_cached_property
    def u_units(self):
        return tuple(g.C_inv @ r for g, r in zip(self.covariance.groups, self.r_units))

    @_cached_property
    def G_units(self):
        return tuple(g.C_inv @ D for g, D in zip(self.covariance.groups, self.D_units))

    @_cached_property
    def J_beta(self):
        """J_beta = D^T C^{-1} D = D^T G, summed over units."""
        K = self.K
        return sum(
            D.reshape(-1, K).T @ G.reshape(-1, K) for D, G in zip(self.D_units, self.G_units)
        )

    @_cached_property
    def bias(self):
        """Bias correction b_i = tr(D^T W_i D J_beta^{-1}) = <A_i G, D J_beta^{-T}>; read-only."""
        try:
            J_inv = solve(self.J_beta, np.eye(self.K))
        except np.linalg.LinAlgError:
            raise SingularMatrixError("J_beta is singular in the bias correction")
        b = np.zeros(self.Q)
        for D, G, A in zip(self.D_units, self.G_units, self.covariance.A_units):
            b += _flat(A @ G) @ (D.reshape(-1, self.K) @ J_inv.T).ravel()
        return _frozen(b)

    @_cached_property
    def psi_beta(self):
        """The quasi-score psi_beta = D^T C^{-1} (y - mu) = D^T u, summed over units."""
        K = self.K
        return sum(D.reshape(-1, K).T @ u.ravel() for D, u in zip(self.D_units, self.u_units))

    @_cached_property
    def beta_slopes(self):
        """scale_direction's (e, f) along each column of D, N R x K; f is 0 off poisson_tweedie."""
        N, (_, p, _) = self.model.N, self.model.split_lambda(self.theta.lam)
        rows = [slice(r * N, (r + 1) * N) for r in range(self.model.R)]
        ef = [scale_direction(resp.variance, self.mu[i], p[r], self.D[i])
              for r, (resp, i) in enumerate(zip(self.model.responses, rows))]
        f = [0.0 * e if f is None else f for e, f in ef]
        return np.concatenate([e for e, _ in ef]), np.concatenate(f)

    def scaled(self, blocks, right=True):
        """S X S for C_Omega-space stacks X per unit size (C, dC), or S X (C's factor)."""
        return tuple(
            self.scale[idx][..., :, None] * X * (self.scale[idx][..., None, :] if right else 1.0)
            for idx, X in zip((grp.joint for grp in self.model.unit_groups), blocks)
        )

    def with_beta(self, beta):
        """The state at a new beta, its mean half evaluated again.

        Only poisson_tweedie's diagonal ties C_Omega to beta, so without it
        the new state keeps C_Omega (and its caches, unless a free power's
        A_i reads the new means); otherwise it is rebuilt, which raises
        FactorizationError when it is not PD. When D, the scales and the
        covariance are the very objects this state holds (an identity link
        and a constant variance), the new state also takes this one's
        residual-free caches.
        """
        model = self.model
        theta = self.theta.with_beta(beta)
        mu, D, saturated = _mean_half(model, theta.beta)
        kinds = {resp.variance.kind for resp in model.responses}
        covariance = self.covariance
        scale = self.scale if kinds == {"constant"} else _scales(model, mu, theta.lam)
        if "poisson_tweedie" in kinds:
            covariance = build_covariance(model, mu, theta.lam)
        elif any(resp.power_free for resp in model.responses):
            # a power's A_i reads the new scales
            covariance = StateCovariance(model, mu, covariance.lam, covariance.groups)
        new = EstimatingState(model=model, theta=theta, y=self.y, mu=mu, residual=self.y - mu,
                              D=D, scale=scale, saturated=saturated, covariance=covariance)
        if D is self.D and scale is self.scale and covariance is self.covariance:
            _hand_on(self, new, _RESIDUAL_FREE)
        return new

    def with_lambda(self, lam):
        """The state at new covariance parameters: the means are kept and C is built again.

        Without a free power the scales are kept too, so the new state
        takes this one's D / s and r = (y - mu) / s, which read nothing
        else: at the same means the new covariance lays them out by equal
        stacks.
        Raises FactorizationError when the new covariance is not PD.
        """
        model, theta = self.model, self.theta.with_lambda(lam)
        free = any(resp.power_free for resp in model.responses)
        new = EstimatingState(
            model=model, theta=theta, y=self.y, mu=self.mu, residual=self.residual, D=self.D,
            scale=_scales(model, self.mu, theta.lam) if free else self.scale,
            saturated=self.saturated, covariance=build_covariance(model, self.mu, theta.lam),
        )
        if not free:
            _hand_on(self, new, _MEAN_HALF)
        return new


_RESIDUAL_FREE = ("D_units", "G_units", "J_beta", "bias")
_MEAN_HALF = ("D_units", "r_units")


def _hand_on(old, new, names):
    """Give ``new`` the values ``old`` has already cached under ``names``."""
    new.__dict__.update({k: v for k, v in vars(old).items() if k in names})


def _stacked(arrays):
    """The arrays concatenated along their first axis; one array is returned as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _frozen(a):
    a.setflags(write=False)
    return a


def _mean_half(model, beta):
    """The stacked means, the mean gradient D and whether any inverse link saturated, at beta.

    The one place the fit, its starting values (solver.initialize) and
    the simulators evaluate g^{-1}(X beta). When every link is the
    identity, D is the model's read-only block design, one object for
    every beta.
    """
    N, slices = model.N, model.beta_slices()
    mu = np.empty(N * model.R)
    D = model.identity_gradient
    fill = D is None
    if fill:
        D = np.zeros((N * model.R, model.K))
    saturated = False
    for r, resp in enumerate(model.responses):
        eta = resp.design @ beta[slices[r]]
        mu[r * N : (r + 1) * N], sat = link_inverse(resp.link, eta, return_saturation=True)
        saturated = saturated or sat
        if fill:
            d_r = link_inverse_deriv(resp.link, eta)
            D[r * N : (r + 1) * N, slices[r]] = d_r[:, None] * resp.design
    return mu, D, saturated


def _scales(model, mu, lam):
    """The stacked scales s = sqrt(V(mu)) at the powers of lam (variance_scale)."""
    N, (_, p, _) = model.N, model.split_lambda(lam)
    return np.concatenate([variance_scale(mu[r * N : (r + 1) * N], resp.variance, p[r])
                           for r, resp in enumerate(model.responses)])


def build_covariance(model, mu, lam):
    """Factorize the joint correlation C_Omega at the covariance parameters lam.

    mu is read only by poisson_tweedie, the one variance handed its
    units' means. One JointCovariance per unit size; raises
    FactorizationError on non-PD covariance.
    """
    rho, p, tau = model.split_lambda(lam)
    N = model.N
    Sb = _ONE if model.R == 1 else sigma_b_from_rho(rho, model.R)
    joint = []
    for grp in model.unit_groups:
        resp_cov = [
            build_sigma_r(
                mu[r * N + grp.index] if resp.variance.kind == "poisson_tweedie" else None,
                resp.variance, p[r], tau[r], grp.predictors[r], resp.covlink,
            )
            for r, resp in enumerate(model.responses)
        ]
        joint.append(generalized_kronecker(resp_cov, Sb))
    return StateCovariance(model=model, mu=mu, lam=lam, groups=tuple(joint))


def build_state(model, y, theta):
    """Evaluate the means, the mean gradient, the scales and the factorized C_Omega at theta.

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
        scale=_scales(model, mu, theta.lam),
        saturated=saturated,
        covariance=build_covariance(model, mu, theta.lam),
    )


def _flat(X):
    """(Q, ...) -> (Q, n): each leading entry as one row."""
    return X.reshape(X.shape[0], -1)


def _quad(state):
    """r^T W_i r = u^T dC_i u = r^T A_i u for every i, summed over units."""
    A_units = state.covariance.A_units
    return sum(_flat(A @ u) @ r.ravel() for A, r, u in zip(A_units, state.r_units, state.u_units))


def quasi_score(state):
    """psi_beta = D^T C^{-1} (y - mu) = D^T u, kept by the state."""
    return state.psi_beta


def _check_beta_rank(M):
    """Raise SingularMatrixError naming the beta columns of a null direction of M = D^T W D.

    The eigenvalue ratio is read on d M d, d = diag(M)^{-1/2}, so a
    column's units do not matter; a zero diagonal entry is itself a
    null direction, its column.
    """
    diag = np.diagonal(M)
    cols = np.flatnonzero(~(diag > 0))
    if not cols.size:
        d = 1.0 / np.sqrt(diag)
        M = d[:, None] * M * d
        w = symmetric_eigenvalues(M)
        if w[0] / w[-1] >= 1e-12:
            return
        load = np.abs(np.linalg.eigh(M)[1][:, 0])
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
    """psi_lambda_i = tr(W_i (r r^T - C)) = u^T dC_i u - tr(A_i); the trace is the covariance's."""
    return _quad(state) - state.covariance.pearson_trace


def sensitivity_lambda(state):
    """S_lambda[i, j] = -tr(W_i C W_j C) = -tr(A_i A_j), kept by the covariance (read-only)."""
    return state.covariance.S_lambda


def variability_lambda(state, k4):
    """V_lambda with fourth-cumulant adjustment; k4 = 0 gives -2 S_lambda.

    k4 holds the standardized k4_l / s_l^4, indexed like the stacked
    responses; diag(W_i) is the row sums of A_i o C_Omega^{-1}. Units
    that share one block share diag(W_i), so their k4 is summed first.
    """
    k4 = np.asarray(k4, dtype=float)
    V = -2.0 * sensitivity_lambda(state)
    cov = state.covariance
    for idx, g, A in zip(cov.stacks, cov.groups, cov.A_units):
        w = _flat(np.einsum("iuab,uab->iua", A, np.broadcast_to(g.C_inv, A.shape[1:])))
        V = V + (w * k4[idx].sum(-1).ravel()) @ w.T
    return V


def empirical_k4(residual, variance):
    """Empirical fourth cumulants r_l^4 - 3 C_ll^2, elementwise; variance is diag(C)."""
    r = np.asarray(residual, dtype=float)
    return r ** 4 - 3.0 * np.asarray(variance, dtype=float) ** 2


def cross_sensitivity_lb(state):
    """S_lambda,beta[i, j] = -tr(W_i C W_beta_j C) = -tr(A_i C_Omega^{-1} dC_Omega,j).

    dC_Omega,j is dC_dscale along beta_slopes, E_j C_Omega + C_Omega E_j
    + dC_dpar_r(diag f_j), and dC_Omega,i C_Omega^{-1} = A_i^T, so the
    E_j part is -2 diag(A_i) . e_j for every column at once. Only a
    poisson_tweedie response has f (not diagonal for R > 1): one stacked
    product per response.
    """
    model, cov, K = state.model, state.covariance, state.K
    e, f = state.beta_slopes
    S = np.zeros((state.Q, K))
    for idx, grp, g, A in zip(cov.stacks, model.unit_groups, cov.groups, cov.A_units):
        E = e[idx].sum(axis=2).reshape(-1, K)  # summed over the units that share a block
        S -= 2.0 * _flat(np.diagonal(A, axis1=-2, axis2=-1)) @ E
        for r, resp in enumerate(model.responses):
            if resp.variance.kind == "poisson_tweedie":
                F = np.moveaxis(f[r * model.N + grp.index], -1, 0)  # (K, n_units, m)
                dC = dC_dpar_r(g, r, _diag(F))
                S -= _flat(A) @ _flat(_T(g.C_inv @ dC)).T
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
        Sinv = solve(S_theta, np.eye(len(S_theta)))
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
    """Bias correction b_i = tr(D^T W_i D J_beta^{-1}), kept by the state (read-only)."""
    return state.bias


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
    k4 = empirical_k4(state.residual / state.scale, state.covariance.variance)
    V[K:, K:] = variability_lambda(state, k4)
    V_lb = cross_variability_lb(state)
    V[K:, :K] = V_lb
    V[:K, K:] = V_lb.T
    return godambe(S, V)
