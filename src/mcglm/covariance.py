"""Joint covariance assembly and its derivatives.

Builds the per-response covariances Sigma_r, couples them through the
between-response correlation via the generalized Kronecker product, and
provides every analytic derivative of the joint covariance C that the
estimating-function calculus needs. The Sigma_r derivatives read the
Omega_r = h^{-1}(U_r) held by each ResponseCovariance. All derivative
assemblies are explicitly symmetrized to suppress floating-point
asymmetry.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DomainError
from .functions import (
    cholesky_inverse,
    cholesky_lower,
    covlink_apply_inverse,
    covlink_deriv,
    variance_eval,
    variance_deriv_p,
)
from .matpred import assemble_U
from .model import rho_index_pairs


def _sym(M):
    return 0.5 * (M + M.T)


def _scaled(a, M, b):
    """diag(a) M diag(b), the form of Sigma_r = diag(s) Omega diag(s) and its derivatives."""
    return a[:, None] * M * b[None, :]


@dataclass(frozen=True)
class ResponseCovariance:
    """Sigma_r with its lower Cholesky factor and Omega_r = h^{-1}(U_r)."""

    sigma: np.ndarray = field(repr=False)
    chol: np.ndarray = field(repr=False)
    omega: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.sigma.shape[0]


@dataclass(frozen=True)
class JointCovariance:
    """Joint covariance C = Bdiag(chol_r) (Sigma_b kron I) Bdiag(chol_r)^T."""

    C: np.ndarray = field(repr=False)
    C_chol: np.ndarray = field(repr=False)
    C_inv: np.ndarray = field(repr=False)
    responses: tuple
    Sb: np.ndarray = field(repr=False)

    @property
    def N(self):
        return self.responses[0].dim

    @property
    def R(self):
        return len(self.responses)

    def block(self, M, r, s):
        N = self.N
        return M[r * N : (r + 1) * N, s * N : (s + 1) * N]


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
    """Per-response covariance Sigma_r = V^{1/2} Omega V^{1/2} (+ diag(mu) for poisson_tweedie)."""
    mu = np.asarray(mu, dtype=float)
    omega = covlink_apply_inverse(cl, assemble_U(tau, pred))
    s = np.sqrt(variance_eval(var, mu, p))
    sigma = _scaled(s, omega, s)
    if var.kind == "poisson_tweedie":
        sigma = sigma + np.diag(mu)
    sigma = _sym(sigma)
    chol = cholesky_lower(sigma)
    return ResponseCovariance(sigma=sigma, chol=chol, omega=omega)


def generalized_kronecker(responses, Sb):
    """Couple per-response Cholesky factors through the between correlation.

    Block (r, s) of the result is Sb[r, s] * chol_r chol_s^T, so the
    diagonal blocks reproduce Sigma_r exactly.
    """
    responses = tuple(responses)
    R = len(responses)
    Sb = np.asarray(Sb, dtype=float)
    if Sb.shape != (R, R):
        raise DomainError(f"Sigma_b has shape {Sb.shape}, expected ({R},{R})")
    dims = {rc.dim for rc in responses}
    if len(dims) != 1:
        raise DomainError("per-response covariances must share one dimension")
    N = responses[0].dim
    C = np.empty((N * R, N * R))
    for r in range(R):
        for s in range(r, R):
            if r == s:
                block = responses[r].sigma
            else:
                block = Sb[r, s] * (responses[r].chol @ responses[s].chol.T)
            C[r * N : (r + 1) * N, s * N : (s + 1) * N] = block
            if s != r:
                C[s * N : (s + 1) * N, r * N : (r + 1) * N] = block.T
    C = _sym(C)
    C_chol = cholesky_lower(C)
    C_inv = cholesky_inverse(C_chol)
    return JointCovariance(C=C, C_chol=C_chol, C_inv=C_inv, responses=responses, Sb=Sb)


def phi_operator(M):
    """Lower-triangle projection with half diagonal; Phi(M) + Phi(M)^T = M for symmetric M."""
    M = np.asarray(M, dtype=float)
    return np.tril(M, -1) + 0.5 * np.diag(np.diag(M))


def chol_deriv(chol, dSigma):
    """Derivative of the lower Cholesky factor along a symmetric direction.

    Returns dL = L Phi(L^{-1} dSigma L^{-T}), which satisfies the
    reconstruction identity dL L^T + L dL^T = dSigma.
    """
    L = np.asarray(chol, dtype=float)
    inner = solve_triangular(L, np.asarray(dSigma, dtype=float), lower=True)
    inner = solve_triangular(L, inner.T, lower=True).T
    return L @ phi_operator(inner)


def dC_drho(assembly, i):
    """Derivative of C in the i-th between-correlation parameter."""
    pairs = rho_index_pairs(assembly.R)
    if not 0 <= i < len(pairs):
        raise DomainError(f"rho index {i} out of range")
    a, b = pairs[i]
    N, R = assembly.N, assembly.R
    dC = np.zeros((N * R, N * R))
    La = assembly.responses[a].chol
    Lb = assembly.responses[b].chol
    block = La @ Lb.T
    dC[a * N : (a + 1) * N, b * N : (b + 1) * N] = block
    dC[b * N : (b + 1) * N, a * N : (a + 1) * N] = block.T
    return dC


def dC_dpar_r(assembly, r, dSigma_r):
    """Derivative of C in any parameter touching only Sigma_r.

    dSigma_r is the symmetric derivative of Sigma_r in that parameter;
    the Cholesky-factor derivative is propagated through the product
    rule of the generalized Kronecker product.
    """
    N, R = assembly.N, assembly.R
    dL = chol_deriv(assembly.responses[r].chol, dSigma_r)
    Sb = assembly.Sb
    dC = np.zeros((N * R, N * R))
    for s in range(R):
        Ls = assembly.responses[s].chol
        block = Sb[r, s] * (dL @ Ls.T)
        dC[r * N : (r + 1) * N, s * N : (s + 1) * N] += block
        dC[s * N : (s + 1) * N, r * N : (r + 1) * N] += block.T
    return _sym(dC)


def dSigma_dp(mu, var, p, rc):
    """Derivative of Sigma_r in the power parameter, read from the stored Omega of rc."""
    mu = np.asarray(mu, dtype=float)
    s = np.sqrt(variance_eval(var, mu, p))
    half = _scaled(0.5 * variance_deriv_p(var, mu, p) / s, rc.omega, s)
    return _sym(half + half.T)


def dSigma_dtau(mu, var, p, rc, cl, Z):
    """Derivative of Sigma_r in the matrix-predictor coefficient of component Z.

    dOmega comes from the stored Omega of rc (Z, or -Omega Z Omega under
    the inverse covariance link), so nothing is rebuilt or inverted.
    """
    s = np.sqrt(variance_eval(var, np.asarray(mu, dtype=float), p))
    return _sym(_scaled(s, covlink_deriv(cl, rc.omega, Z), s))


def dSigma_dmu_dir(mu, var, p, rc, dmu):
    """Derivative of Sigma_r along a mean direction dmu (chain rule for beta).

    Omega does not depend on mu, so the stored Omega of rc is reused.
    For poisson_tweedie only the power component enters the sandwich;
    the diag(mu) term contributes diag(dmu) directly.
    """
    mu = np.asarray(mu, dtype=float)
    dmu = np.asarray(dmu, dtype=float)
    if var.kind == "constant":
        return np.zeros((mu.size, mu.size))
    if var.kind == "binomial":
        dv = (1.0 - 2.0 * mu) * dmu
    else:  # power component of tweedie_power / poisson_tweedie
        dv = p * mu ** (p - 1.0) * dmu
    s = np.sqrt(variance_eval(var, mu, p))
    half = _scaled(0.5 * dv / s, rc.omega, s)
    out = half + half.T
    if var.kind == "poisson_tweedie":
        out = out + np.diag(dmu)
    return _sym(out)


def weight_matrix(C_inv, dC):
    """W = C^{-1} dC C^{-1}, the negated derivative of C^{-1}."""
    return _sym(C_inv @ dC @ C_inv)
