"""Link, variance and covariance-link functions with their derivatives.

Everything here is a pure function of its inputs; the specs are small
frozen dataclasses so they can be shared freely.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg.lapack import dgesv, dpotrf, dpotri, dsyevd, dtrtri

from .errors import DomainError, FactorizationError

LINK_KINDS = ("identity", "log", "logit")
VARIANCE_KINDS = ("constant", "tweedie_power", "poisson_tweedie", "binomial")
COVLINK_KINDS = ("identity", "inverse")

# |eta| clamp for the logit link; avoids exact 0/1 fitted values that
# break the binomial variance.
LOGIT_ETA_BOUND = 30.0
# exp overflow guard for the log link.
LOG_ETA_BOUND = 700.0


@dataclass(frozen=True)
class LinkSpec:
    """Mean link function g; kind in {identity, log, logit}."""

    kind: str

    def __post_init__(self):
        if self.kind not in LINK_KINDS:
            raise DomainError(f"unknown link kind {self.kind!r}")


@dataclass(frozen=True)
class VarianceSpec:
    """Variance function; kind in {constant, tweedie_power, poisson_tweedie, binomial}.

    ``power_known`` marks whether the power parameter is fixed by the user
    or estimated; it is ignored by kinds without a power parameter.
    """

    kind: str
    power_known: bool = True

    def __post_init__(self):
        if self.kind not in VARIANCE_KINDS:
            raise DomainError(f"unknown variance kind {self.kind!r}")

    @property
    def has_power(self):
        return self.kind in ("tweedie_power", "poisson_tweedie")


@dataclass(frozen=True)
class CovLinkSpec:
    """Covariance link function h; kind in {identity, inverse}."""

    kind: str

    def __post_init__(self):
        if self.kind not in COVLINK_KINDS:
            raise DomainError(f"unknown covariance link kind {self.kind!r}")


def link_inverse(link, eta, return_saturation=False):
    """Inverse link mu = g^{-1}(eta), elementwise.

    The log and logit links saturate at large |eta| instead of
    overflowing; pass ``return_saturation=True`` to also get a flag
    telling whether any entry was clamped.
    """
    eta = np.asarray(eta, dtype=float)
    saturated = False
    if link.kind == "identity":
        mu = eta.copy()
    elif link.kind == "log":
        saturated = bool(np.any(np.abs(eta) > LOG_ETA_BOUND))
        mu = np.exp(np.clip(eta, -LOG_ETA_BOUND, LOG_ETA_BOUND))
    else:  # logit
        saturated = bool(np.any(np.abs(eta) > LOGIT_ETA_BOUND))
        e = np.clip(eta, -LOGIT_ETA_BOUND, LOGIT_ETA_BOUND)
        mu = 1.0 / (1.0 + np.exp(-e))
    if return_saturation:
        return mu, saturated
    return mu


def link_inverse_deriv(link, eta):
    """Elementwise derivative d mu / d eta of the inverse link."""
    eta = np.asarray(eta, dtype=float)
    if link.kind == "identity":
        return np.ones_like(eta)
    if link.kind == "log":
        return np.exp(np.clip(eta, -LOG_ETA_BOUND, LOG_ETA_BOUND))
    mu = link_inverse(link, eta)
    return mu * (1.0 - mu)


def _check_mu_domain(var, mu):
    if var.kind in ("tweedie_power", "poisson_tweedie"):
        if np.any(mu <= 0.0):
            raise DomainError(f"{var.kind} variance requires mu > 0")
    elif var.kind == "binomial":
        if np.any(mu <= 0.0) or np.any(mu >= 1.0):
            raise DomainError("binomial variance requires 0 < mu < 1")


def variance_eval(var, mu, p=None):
    """Evaluate the variance function, elementwise.

    For the poisson_tweedie kind only the mu^p component is returned
    (as by variance_deriv_p and variance_deriv_mu); the additive diag(mu)
    term is injected at covariance assembly so that p- and
    tau-derivatives touch only the dispersion term.
    """
    mu = np.asarray(mu, dtype=float)
    _check_mu_domain(var, mu)
    if var.kind == "constant":
        return np.ones_like(mu)
    if var.kind == "binomial":
        return mu * (1.0 - mu)
    # an overflow to inf is reported by variance_scale as FactorizationError
    with np.errstate(over="ignore"):
        return mu ** p


def variance_deriv_p(var, mu, p):
    """Derivative of the power component of the variance w.r.t. p."""
    if not var.has_power:
        raise DomainError(f"variance kind {var.kind!r} has no power parameter")
    mu = np.asarray(mu, dtype=float)
    _check_mu_domain(var, mu)
    return mu ** p * np.log(mu)


def variance_deriv_mu(var, mu, p=None):
    """Derivative of the variance function w.r.t. mu, elementwise (of mu^p for poisson_tweedie)."""
    mu = np.asarray(mu, dtype=float)
    _check_mu_domain(var, mu)
    if var.kind == "constant":
        return np.zeros_like(mu)
    if var.kind == "binomial":
        return 1.0 - 2.0 * mu
    return p * mu ** (p - 1.0)


def _one_matrix(M):
    """M as one (m, m) matrix when it holds only one, else None (a stack of several)."""
    return M.reshape(M.shape[-2:]) if M.size == M.shape[-1] ** 2 else None


def _pivot_error(info, what="matrix is not positive definite"):
    return FactorizationError(f"{what} (pivot {info})", pivot=info)


def cholesky_lower(M):
    """Lower Cholesky factor of a matrix, or of every matrix in a stack (..., m, m).

    One matrix takes one LAPACK dpotrf call, whose info is the pivot; a
    stack of several takes numpy's batched factorization. Raises
    FactorizationError with the 1-based pivot of the first matrix that
    is not positive definite.
    """
    M = np.asarray(M, dtype=float)
    one = _one_matrix(M)
    if one is not None:
        L, info = dpotrf(one, lower=1)
        if info > 0:
            raise _pivot_error(info)
        return L.reshape(M.shape)
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        pass
    for Mk in M.reshape(-1, *M.shape[-2:]):  # failure path: find the pivot
        info = dpotrf(Mk, lower=1)[1]
        if info > 0:
            raise _pivot_error(info)
    raise FactorizationError("matrix is not positive definite")


def triangular_inverse(L):
    """Inverse of a lower-triangular matrix, or of every matrix in a stack.

    One matrix takes one LAPACK dtrtri call. A stack of several takes
    one batched general inverse after a scan of the diagonals. Against
    a dtrtri loop (one BLAS thread, shared 2-core Xeon) that wins only
    on small blocks, with the crossover between 6 x 6 and 8 x 8: 100
    blocks of 4 x 4 took 133 against 151 us, 100 of 8 x 8 350 against
    308 us, 1000 of 10 x 10 5250 against 2316 us and 10 of 48 x 48 1049
    against 234 us. Raises FactorizationError with the 1-based position
    of the first zero diagonal entry of the first singular matrix.
    """
    L = np.asarray(L, dtype=float)
    one = _one_matrix(L)
    if one is not None:
        Li, info = dtrtri(one, lower=1)
        if info > 0:
            raise _pivot_error(info, "Cholesky factor is singular")
        return Li.reshape(L.shape)
    zero = (np.diagonal(L, axis1=-2, axis2=-1) == 0.0).reshape(-1, L.shape[-1])
    singular = zero.any(axis=1)
    if singular.any():
        pivot = int(np.argmax(zero[np.argmax(singular)])) + 1
        raise _pivot_error(pivot, "Cholesky factor is singular")
    return np.tril(np.linalg.inv(L))


@cache
def _strict_upper(m):
    """The m x m mask of the entries above the diagonal."""
    mask = np.triu(np.ones((m, m), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def cholesky_inverse(L):
    """Inverse of L L^T from its lower Cholesky factor L (or a stack of factors), exactly symmetric.

    One factor takes one LAPACK dpotri call, whose lower triangle is
    mirrored into the upper; a stack goes through triangular_inverse.
    """
    L = np.asarray(L, dtype=float)
    one = _one_matrix(L)
    if one is not None:
        inv, info = dpotri(one, lower=1)
        if info > 0:
            raise _pivot_error(info, "Cholesky factor is singular")
        np.copyto(inv, inv.T, where=_strict_upper(inv.shape[0]))
        return inv.T.reshape(L.shape)  # exactly symmetric: the transpose is its C-ordered view
    Li = triangular_inverse(L)
    inv = np.swapaxes(Li, -1, -2) @ Li
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def symmetric_inverse(M):
    """Inverse of a symmetric positive definite matrix (or stack) via Cholesky."""
    return cholesky_inverse(cholesky_lower(M))


def solve(A, b):
    """x with A x = b for one square matrix A and a vector or matrix b, by one LAPACK dgesv call.

    Raises np.linalg.LinAlgError when A is exactly singular, as np.linalg.solve does.
    """
    x, info = dgesv(A, b)[2:]
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix (zero pivot {info})")
    return x


def symmetric_eigenvalues(M):
    """Eigenvalues of one symmetric matrix, ascending, by one LAPACK dsyevd call (lower triangle)."""
    w, _, info = dsyevd(M, compute_v=0, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    return w


def covlink_apply_inverse(cl, U):
    """Omega = h^{-1}(U): the matrix the covariance link maps to U."""
    if cl.kind == "identity":
        return U.copy()
    return symmetric_inverse(U)


def covlink_deriv(cl, omega, Z):
    """Directional derivative of Omega = h^{-1}(U) along a dense structure matrix Z.

    Z under the identity link (returned as is, not copied), -Omega Z Omega
    under the inverse link; omega is the value h^{-1}(U) already computed,
    so nothing is inverted. Z and omega may be stacks of unit blocks.
    """
    if cl.kind == "identity":
        return Z
    out = -omega @ Z @ omega
    return 0.5 * (out + np.swapaxes(out, -1, -2))
