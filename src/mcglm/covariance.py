"""Joint covariance assembly and its derivatives.

Builds the per-response covariances Sigma_r, couples them through the
between-response correlation via the generalized Kronecker product, and
provides every analytic derivative of the joint covariance C that the
estimating-function calculus needs. Under the inverse covariance link,
Sigma_r^{-1} is read off the precision U_r (build_sigma_r), and for
R = 1 so is each tau's A = C^{-1} dC (A_dtau). The Sigma_r derivatives
read the Omega_r = h^{-1}(U_r) and the scale S = diag(sqrt(V(mu))) held
by each ResponseCovariance, so neither is evaluated again. In a
parameter of Sigma_r, the diagonal block (r, r) of dC is dSigma_r
itself; only the off-diagonal blocks, present for R > 1, go through the
Cholesky-factor derivative, and each is written with its exact
transpose.

Every function takes one matrix per response or, batched, a stack
(n_units, m, m) of the blocks of independent units of one size; the
joint blocks are then (n_units, R m, R m), response by response within
a unit. A stack whose units all share one block keeps it alone,
(1, m, m), and broadcasts against the per-unit stacks. The tau
derivatives (dSigma_dtau, dC_dpar_r, A_dtau) also take the stacked
components of one response, (D+1, n_units, m, m), and return one
derivative per component along that leading axis.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .functions import (
    VarianceSpec,
    cholesky_inverse,
    cholesky_lower,
    covlink_apply_inverse,
    covlink_deriv,
    triangular_inverse,
    variance_deriv_mu,
    variance_deriv_p,
    variance_eval,
)
from .matpred import assemble_U
from .model import rho_index_pairs


def _T(M):
    return np.swapaxes(M, -1, -2)


def _sym(M):
    return 0.5 * (M + _T(M))


def _scaled(a, M, b):
    """diag(a) M diag(b), the form of Sigma_r = diag(s) Omega diag(s) and its derivatives."""
    return a[..., :, None] * M * b[..., None, :]


def _diag(v):
    return v[..., :, None] * np.eye(v.shape[-1])


class ResponseCovariance:
    """Sigma_r = S Omega_r S, Omega_r = h^{-1}(U_r), its lower Cholesky factor and its inverse.

    ``scale`` is the diagonal of S = diag(sqrt(V(mu))), ones when not
    given. ``precision``, when given, is Sigma_r^{-1} read straight off
    U_r (see build_sigma_r), and ``inverse`` is then that matrix;
    otherwise the inverse comes from the factor. A factor not given is
    formed on first use: only simulation, R > 1 and the Cholesky-factor
    derivative need it.
    """

    def __init__(self, sigma, omega, chol=None, precision=None, scale=None):
        self.sigma = sigma
        self.omega = omega
        self.scale = np.ones(sigma.shape[:-1]) if scale is None else scale
        self.precision = precision
        if chol is not None:
            self.chol = chol

    @property
    def dim(self):
        return self.sigma.shape[-1]

    @cached_property
    def chol(self):
        return cholesky_lower(self.sigma)

    @cached_property
    def chol_inv(self):
        return triangular_inverse(self.chol)

    @cached_property
    def inverse(self):
        if self.precision is not None:
            return self.precision
        return _sym(_T(self.chol_inv) @ self.chol_inv)


@dataclass(frozen=True)
class JointCovariance:
    """Joint covariance C = Bdiag(chol_r) (Sigma_b kron I) Bdiag(chol_r)^T.

    Its lower Cholesky factor is Bdiag(chol_r) (Lb kron I), with Lb the
    factor of Sigma_b, and block (r, s) of its inverse is
    (Sigma_b^{-1})_rs chol_r^{-T} chol_s^{-1}, so no joint factorization
    is taken. C and its factor are formed on first use.
    """

    C_inv: np.ndarray = field(repr=False)
    responses: tuple
    Sb: np.ndarray = field(repr=False)
    Lb: np.ndarray = field(repr=False)

    @property
    def N(self):
        return self.responses[0].dim

    @property
    def R(self):
        return len(self.responses)

    def block(self, M, r, s):
        N = self.N
        return M[..., r * N : (r + 1) * N, s * N : (s + 1) * N]

    @cached_property
    def C(self):
        """Block (r, s) is Sb[r, s] chol_r chol_s^T; the diagonal blocks are Sigma_r exactly."""
        C = np.empty(self.C_inv.shape)
        rcs = self.responses
        for r in range(self.R):
            for s in range(r, self.R):
                if r == s:
                    block = rcs[r].sigma
                else:
                    block = self.Sb[r, s] * (rcs[r].chol @ _T(rcs[s].chol))
                self.block(C, r, s)[...] = block
                if s != r:
                    self.block(C, s, r)[...] = _T(block)
        return C

    @cached_property
    def C_chol(self):
        """Block (r, s <= r) is Lb[r, s] chol_r; for R = 1 that is chol_1 itself."""
        L = np.zeros(self.C_inv.shape)
        for r in range(self.R):
            for s in range(r + 1):
                self.block(L, r, s)[...] = self.Lb[r, s] * self.responses[r].chol
        return L


def sigma_b_from_rho(rho, R):
    """Unit-diagonal symmetric matrix with the lower triangle filled column-wise."""
    rho = np.asarray(rho, dtype=float)
    pairs = rho_index_pairs(R)
    if rho.size != len(pairs):
        raise DomainError(f"rho has length {rho.size}, expected {len(pairs)}")
    Sb = np.eye(R)
    for value, (r, c) in zip(rho, pairs):
        Sb[r, c] = value
        Sb[c, r] = value
    return Sb


def build_sigma_r(mu, var, p, tau, pred, cl):
    """Per-response covariance Sigma_r = V^{1/2} Omega V^{1/2} (+ diag(mu) for poisson_tweedie).

    Under the inverse covariance link and without the poisson_tweedie
    diag(mu) term, Sigma_r^{-1} = S^{-1} U_r S^{-1} with S = diag(sqrt(V(mu))),
    and while every V(mu) > 0 the factor of U_r behind Omega_r is the whole
    positive-definiteness check, so Sigma_r is not factorized. Otherwise
    its factor is taken here, as the check.

    A variance that does not depend on mu gives one scale row for all
    units, (1, m) for a stack of unit means (n_units, m); Sigma_r and its
    factor then have the unit axis of U, which is 1 when every unit of
    the predictor has the same blocks.
    """
    mu = np.asarray(mu, dtype=float)
    if not var.depends_on_mu:
        mu = mu[:1]
    U = assemble_U(tau, pred)
    omega = covlink_apply_inverse(cl, U)
    s = np.sqrt(variance_eval(var, mu, p))
    sigma = _scaled(s, omega, s)
    if var.kind == "poisson_tweedie":
        sigma = sigma + _diag(mu)
    sigma = _sym(sigma)
    if cl.kind == "inverse" and var.kind != "poisson_tweedie" and np.all(s > 0.0):
        precision = _sym(_scaled(1.0 / s, U, 1.0 / s))
        return ResponseCovariance(sigma=sigma, omega=omega, precision=precision, scale=s)
    return ResponseCovariance(sigma=sigma, chol=cholesky_lower(sigma), omega=omega, scale=s)


def generalized_kronecker(responses, Sb):
    """Couple per-response Cholesky factors through the between correlation.

    The joint factor and inverse come from the per-response factors and
    the factor of Sigma_b, which raises FactorizationError exactly when C
    is not positive definite though every Sigma_r is. A 1 x 1 Sigma_b is
    [1], its own factor, so for R = 1 the joint factor is chol_1 itself
    and the joint inverse is Sigma_1^{-1}, which needs no factor when it
    is a precision.
    """
    responses = tuple(responses)
    R = len(responses)
    Sb = np.asarray(Sb, dtype=float)
    if Sb.shape != (R, R):
        raise DomainError(f"Sigma_b has shape {Sb.shape}, expected ({R},{R})")
    dims = {rc.dim for rc in responses}
    if len(dims) != 1:
        raise DomainError("per-response covariances must share one dimension")
    if R == 1:
        return JointCovariance(
            C_inv=responses[0].inverse, responses=responses, Sb=Sb, Lb=np.ones((1, 1))
        )
    Lb = cholesky_lower(Sb)
    Sb_inv = cholesky_inverse(Lb)
    N = responses[0].dim
    units = np.broadcast_shapes(*(rc.sigma.shape[:-2] for rc in responses))
    C_inv = np.empty(units + (N * R, N * R))
    for r in range(R):
        for s in range(r, R):
            block = Sb_inv[r, s] * (_T(responses[r].chol_inv) @ responses[s].chol_inv)
            C_inv[..., r * N : (r + 1) * N, s * N : (s + 1) * N] = block
            if s > r:
                C_inv[..., s * N : (s + 1) * N, r * N : (r + 1) * N] = _T(block)
    return JointCovariance(C_inv=_sym(C_inv), responses=responses, Sb=Sb, Lb=Lb)


def phi_operator(M):
    """Lower-triangle projection with half diagonal; Phi(M) + Phi(M)^T = M for symmetric M."""
    M = np.asarray(M, dtype=float)
    return np.tril(M, -1) + 0.5 * _diag(np.diagonal(M, axis1=-2, axis2=-1))


def chol_deriv(chol, chol_inv, dSigma):
    """Derivative of the lower Cholesky factor along a symmetric direction.

    Returns dL = L Phi(L^{-1} dSigma L^{-T}), which satisfies the
    reconstruction identity dL L^T + L dL^T = dSigma; chol_inv is L^{-1}.
    """
    inner = chol_inv @ np.asarray(dSigma, dtype=float) @ _T(chol_inv)
    return chol @ phi_operator(inner)


def dC_drho(assembly, i):
    """Derivative of C in the i-th between-correlation parameter."""
    pairs = rho_index_pairs(assembly.R)
    if not 0 <= i < len(pairs):
        raise DomainError(f"rho index {i} out of range")
    a, b = pairs[i]
    dC = np.zeros(assembly.C_inv.shape)
    block = assembly.responses[a].chol @ _T(assembly.responses[b].chol)
    assembly.block(dC, a, b)[...] = block
    assembly.block(dC, b, a)[...] = _T(block)
    return dC


def dC_dpar_r(assembly, r, dSigma_r):
    """Derivative of C in any parameter touching only Sigma_r.

    dSigma_r is the symmetric derivative of Sigma_r in that parameter.
    Sigma_b has a unit diagonal, so block (r, r) is dSigma_r itself; only
    the off-diagonal blocks (r, s) = Sb[r, s] dL_r chol_s^T and their
    transposes need the Cholesky-factor derivative dL_r, which is not
    formed for R = 1. Each block is written with its exact transpose, so
    the result is symmetric without a final symmetrization. Leading axes
    of dSigma_r beyond the unit axis carry over to dC.
    """
    units = np.broadcast_shapes(dSigma_r.shape[:-2], assembly.C_inv.shape[:-2])
    dC = np.zeros(units + assembly.C_inv.shape[-2:])
    assembly.block(dC, r, r)[...] = dSigma_r
    if assembly.R > 1:
        rc = assembly.responses[r]
        dL = chol_deriv(rc.chol, rc.chol_inv, dSigma_r)
        for s in range(assembly.R):
            if s != r:
                block = assembly.Sb[r, s] * (dL @ _T(assembly.responses[s].chol))
                assembly.block(dC, r, s)[...] = block
                assembly.block(dC, s, r)[...] = _T(block)
    return dC


def _scale_rule(rc, dv):
    """dS Omega S + S Omega dS with dS = dV / 2S: dSigma_r along a change dv of V(mu).

    Entries (i, j) and (j, i) add the same two products, so the result
    is exactly symmetric.
    """
    half = _scaled(0.5 * dv / rc.scale, rc.omega, rc.scale)
    return half + _T(half)


def dSigma_dp(mu, var, p, rc):
    """Derivative of Sigma_r in the power parameter, from the stored Omega and S of rc."""
    return _scale_rule(rc, variance_deriv_p(var, mu, p))


def dSigma_dtau(rc, cl, Z):
    """Derivative of Sigma_r in the matrix-predictor coefficient of the dense component Z.

    dOmega comes from the stored Omega of rc (Z, or -Omega Z Omega under
    the inverse covariance link), so nothing is rebuilt or inverted.
    """
    return _sym(_scaled(rc.scale, covlink_deriv(cl, rc.omega, Z), rc.scale))


def dSigma_dmu_dir(mu, var, p, rc, dmu):
    """Derivative of Sigma_r along a mean direction dmu (chain rule for beta).

    Omega does not depend on mu, so only S moves, along dV = V'(mu) dmu
    of the power component of V; the poisson_tweedie diag(mu) term
    contributes diag(dmu) directly.
    """
    if not var.depends_on_mu:
        return np.zeros(rc.sigma.shape)
    power = VarianceSpec("tweedie_power") if var.kind == "poisson_tweedie" else var
    out = _scale_rule(rc, variance_deriv_mu(power, mu, p) * dmu)
    if var.kind == "poisson_tweedie":
        out = out + _diag(dmu)
    return out


def A_dtau(rc, Z):
    """A = C^{-1} dC in the coefficient of the dense component Z, from the precision.

    For R = 1 with rc.precision = S^{-1} U S^{-1}, dC = -S Omega Z Omega S
    and U Omega = I, so A = -S^{-1} (Z Omega) S: one product, no dC. A
    stack of components Z gives one A per component.
    """
    return _scaled(-1.0 / rc.scale, Z @ rc.omega, rc.scale)
