"""Joint covariance assembly and its derivatives.

Sigma_r = S_r K_r S_r with the diagonal scale S_r = diag(sqrt(V(mu)))
and the correlation block K_r = Omega_r = h^{-1}(U_r) (plus
diag(mu^{1-p}) for poisson_tweedie), so the factor of Sigma_r is S_r
L_K and the generalized Kronecker product is C = S C_Omega S. Everything
here is built on C_Omega: under the inverse covariance link K_r^{-1} is
U_r itself, and for R = 1 so is C_Omega^{-1} (A_dtau). A tau or rho
moves C_Omega; a power or a beta moves the scale (dC_dscale). In a
parameter of K_r, the diagonal block (r, r) of dC_Omega is dK_r itself;
only the off-diagonal blocks, present for R > 1, go through the
Cholesky-factor derivative. C_Omega and every dC_Omega are filled by
one block writer (_joint), which writes each off-diagonal block's
mirror as its exact transpose. For R > 1, C_Omega^{-1} of one block
shared by every unit comes from C_Omega's joint factor; a stack of
per-unit blocks is inverted block by block.

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
from functools import cache

import numpy as np

from .errors import DomainError, FactorizationError
from .functions import (
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
from .model import _cached_property, rho_index_pairs


def _T(M):
    return M.swapaxes(-1, -2)


def _sym(M):
    return 0.5 * (M + _T(M))


def _diag(v):
    return v[..., :, None] * np.eye(v.shape[-1])


def _joint(shape, blocks):
    """Symmetric matrix of ``shape``, zero but for ``blocks`` {(r, s): block of rows r, columns s}.

    An off-diagonal block is also written at (s, r), as its exact transpose.
    """
    out = np.zeros(shape)
    for (r, s), block in blocks.items():
        N = block.shape[-1]
        out[..., r * N : (r + 1) * N, s * N : (s + 1) * N] = block
        if s != r:
            out[..., s * N : (s + 1) * N, r * N : (r + 1) * N] = _T(block)
    return out


class ResponseCovariance:
    """K_r (``sigma``, Sigma_r at unit scale), Omega_r = h^{-1}(U_r), K_r's factor and inverse.

    ``inverse``, when given, is K_r^{-1} = U_r (see build_sigma_r);
    otherwise it comes from the factor. A factor not given is formed on
    first use: only simulation, R > 1 and the Cholesky-factor derivative
    need it.
    """

    def __init__(self, sigma, omega, chol=None, inverse=None):
        self.sigma = sigma
        self.omega = omega
        if chol is not None:
            self.chol = chol
        if inverse is not None:
            self.inverse = inverse

    @property
    def dim(self):
        return self.sigma.shape[-1]

    @_cached_property
    def chol(self):
        return cholesky_lower(self.sigma)

    @_cached_property
    def chol_inv(self):
        return triangular_inverse(self.chol)

    @_cached_property
    def inverse(self):
        return cholesky_inverse(self.chol)


def _joint_factor(responses, Lb, shape):
    """Bdiag(chol_r) (Lb kron I) of ``shape``: block (r, s <= r) is Lb[r, s] chol_r."""
    L = np.zeros(shape)
    N = responses[0].dim
    for r, rc in enumerate(responses):
        for s in range(r + 1):
            L[..., r * N : (r + 1) * N, s * N : (s + 1) * N] = Lb[r, s] * rc.chol
    return L


@dataclass(frozen=True)
class JointCovariance:
    """Joint correlation C_Omega = Bdiag(chol_r) (Sigma_b kron I) Bdiag(chol_r)^T of the K_r.

    Its lower Cholesky factor is C_chol = Bdiag(chol_r) (Lb kron I), with
    Lb the factor of Sigma_b; for R = 1 that is chol_1 itself.
    generalized_kronecker gives C_inv (see there). C and its factor are
    formed on first use.
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

    @_cached_property
    def C(self):
        """Block (r, s) is Sb[r, s] chol_r chol_s^T; the diagonal blocks are K_r exactly."""
        rcs = self.responses
        return _joint(self.C_inv.shape, {
            (r, s): rcs[r].sigma if r == s else self.Sb[r, s] * (rcs[r].chol @ _T(rcs[s].chol))
            for r in range(self.R) for s in range(r, self.R)
        })

    @_cached_property
    def C_chol(self):
        return _joint_factor(self.responses, self.Lb, self.C_inv.shape)


_ONE = np.ones((1, 1))  # Sigma_b and its factor for R = 1, read-only
_ONE.setflags(write=False)


@cache
def _rho_positions(R):
    """The rows and the columns of rho_index_pairs(R), as two read-only index arrays."""
    positions = np.array(rho_index_pairs(R), dtype=int).reshape(-1, 2).T
    positions.setflags(write=False)
    return positions


def sigma_b_from_rho(rho, R):
    """Unit-diagonal symmetric matrix with the lower triangle filled column-wise."""
    rho = np.asarray(rho, dtype=float)
    rows, cols = _rho_positions(R)
    if rho.size != rows.size:
        raise DomainError(f"rho has length {rho.size}, expected {rows.size}")
    Sb = np.eye(R)
    Sb[rows, cols] = rho
    Sb[cols, rows] = rho
    return Sb


def build_sigma_r(mu, var, p, tau, pred, cl):
    """Per-response correlation block K_r = Omega_r (+ diag(mu^{1-p}) for poisson_tweedie).

    Sigma_r = S K_r S (variance_scale); mu is read only by
    poisson_tweedie. Under the inverse covariance link and without that
    term, K_r^{-1} is U_r itself and the factor of U_r behind Omega_r is
    the whole positive-definiteness check, so K_r is not factorized.
    Otherwise its factor is taken here, as the check. K_r has the unit
    axis of U (1 when every unit has the same blocks), unless
    poisson_tweedie's diagonal gives each unit its own.
    """
    U = assemble_U(tau, pred)
    omega = covlink_apply_inverse(cl, U)
    if var.kind == "poisson_tweedie":
        K = omega + _diag(np.asarray(mu, dtype=float) ** (1.0 - p))
        return ResponseCovariance(sigma=K, omega=omega, chol=cholesky_lower(K))
    if cl.kind == "inverse":
        return ResponseCovariance(sigma=omega, omega=omega, inverse=U)
    return ResponseCovariance(sigma=omega, omega=omega, chol=cholesky_lower(omega))


def variance_scale(mu, var, p):
    """The scales s = sqrt(V(mu)) of Sigma_r = S K_r S (mu^p alone for poisson_tweedie).

    A scale of 0 (mu^p underflows) or inf makes C = S C_Omega S singular
    though C_Omega is PD, so it raises FactorizationError.
    """
    s = np.sqrt(variance_eval(var, mu, p))
    bad = np.flatnonzero(~((s > 0.0) & (s < np.inf))) + 1
    if bad.size:
        raise FactorizationError(f"variance scale 0 or inf (pivot {bad[0]})", pivot=int(bad[0]))
    return s


def generalized_kronecker(responses, Sb):
    """Couple per-response Cholesky factors through the between correlation.

    The joint inverse comes from the per-response factors and the
    factor Lb of Sigma_b, which raises FactorizationError exactly when C
    is not positive definite though every K_r is. One block shared by
    every unit is inverted from its joint factor Bdiag(chol_r) (Lb kron
    I) by one LAPACK dpotri. A stack of per-unit blocks is inverted block
    by block, (r, s) being (Sigma_b^{-1})_rs chol_r^{-T} chol_s^{-1}:
    its m-sized batched products beat a batched inverse of the R m-sized
    factors (see triangular_inverse). A 1 x 1 Sigma_b is [1], its own
    factor, so for R = 1 the joint factor is chol_1 itself and the joint
    inverse is K_1^{-1}, which needs no factor when it is U_1; Sb is
    then kept as given, unread and unchecked.
    """
    responses = tuple(responses)
    if len(responses) == 1:
        return JointCovariance(C_inv=responses[0].inverse, responses=responses, Sb=Sb, Lb=_ONE)
    R = len(responses)
    Sb = np.asarray(Sb, dtype=float)
    if Sb.shape != (R, R):
        raise DomainError(f"Sigma_b has shape {Sb.shape}, expected ({R},{R})")
    dims = {rc.dim for rc in responses}
    if len(dims) != 1:
        raise DomainError("per-response covariances must share one dimension")
    Lb = cholesky_lower(Sb)
    N = dims.pop()
    # each K_r's unit axis is 1 or the count of units, so the largest is their broadcast
    units = max(rc.sigma.shape[:-2] for rc in responses)
    if units in ((), (1,)):
        C_inv = cholesky_inverse(_joint_factor(responses, Lb, units + (N * R, N * R)))
    else:
        Sb_inv = cholesky_inverse(Lb)
        C_inv = _sym(_joint(units + (N * R, N * R), {
            (r, s): Sb_inv[r, s] * (_T(responses[r].chol_inv) @ responses[s].chol_inv)
            for r in range(R) for s in range(r, R)
        }))
    return JointCovariance(C_inv=C_inv, responses=responses, Sb=Sb, Lb=Lb)


@cache
def _phi_weight(m):
    """The m x m weights of phi_operator: ones below the diagonal, 0.5 on it, zeros above."""
    W = np.tril(np.ones((m, m)), -1) + 0.5 * np.eye(m)
    W.flags.writeable = False
    return W


def phi_operator(M):
    """Lower-triangle projection with half diagonal; Phi(M) + Phi(M)^T = M for symmetric M."""
    M = np.asarray(M, dtype=float)
    return M * _phi_weight(M.shape[-1])


def chol_deriv(chol, chol_inv, dSigma):
    """Derivative of the lower Cholesky factor along a symmetric direction.

    Returns dL = L Phi(L^{-1} dSigma L^{-T}), which satisfies the
    reconstruction identity dL L^T + L dL^T = dSigma; chol_inv is L^{-1}.
    """
    inner = chol_inv @ np.asarray(dSigma, dtype=float) @ _T(chol_inv)
    return chol @ phi_operator(inner)


def dC_drho(assembly, i):
    """Derivative of C_Omega in the i-th between-correlation parameter."""
    pairs = rho_index_pairs(assembly.R)
    if not 0 <= i < len(pairs):
        raise DomainError(f"rho index {i} out of range")
    a, b = pairs[i]
    rcs = assembly.responses
    return _joint(assembly.C_inv.shape, {(a, b): rcs[a].chol @ _T(rcs[b].chol)})


def dC_dpar_r(assembly, r, dSigma_r):
    """Derivative of C_Omega in any parameter touching only K_r.

    dSigma_r is the symmetric derivative of K_r in that parameter.
    Sigma_b has a unit diagonal, so block (r, r) is dSigma_r itself; only
    the off-diagonal blocks (r, s) = Sb[r, s] dL_r chol_s^T and their
    transposes need the Cholesky-factor derivative dL_r, which is not
    formed for R = 1. Each block is written with its exact transpose, so
    the result is symmetric without a final symmetrization. Leading axes
    of dSigma_r beyond the unit axis carry over to dC; its unit axis is 1
    or that of C_Omega.
    """
    lead = dSigma_r.shape[: dSigma_r.ndim - assembly.C_inv.ndim]
    blocks, rcs = {(r, r): dSigma_r}, assembly.responses
    if assembly.R > 1:
        dL = chol_deriv(rcs[r].chol, rcs[r].chol_inv, dSigma_r)
        blocks.update({(r, s): assembly.Sb[r, s] * (dL @ _T(rcs[s].chol))
                       for s in range(assembly.R) if s != r})
    return _joint(lead + assembly.C_inv.shape, blocks)


def dSigma_dtau(rc, cl, Z):
    """Derivative of K_r in the coefficient of the dense component Z, from rc's stored Omega.

    It is Z, or -Omega Z Omega under the inverse covariance link; nothing is inverted.
    """
    return covlink_deriv(cl, rc.omega, Z)


def scale_direction(var, mu, p, dmu=None):
    """(e, f) of one response in p, or along mean directions dmu (one per trailing column).

    e = dV / 2V is the relative change ds / s of the scale (log(mu) / 2
    in p); f is the change of poisson_tweedie's diagonal mu^{1-p} of K_r,
    None for every other variance.
    """
    mu, pt = np.asarray(mu, dtype=float), var.kind == "poisson_tweedie"
    v = variance_eval(var, mu, p)
    if dmu is None:
        return 0.5 * variance_deriv_p(var, mu, p) / v, (-np.log(mu) * mu / v if pt else None)
    slope = 0.5 * variance_deriv_mu(var, mu, p) / v
    return slope[..., None] * dmu, (((1.0 - p) / v)[..., None] * dmu if pt else None)


def dC_dscale(assembly, r, e, f=None):
    """dC_Omega = E C_Omega + C_Omega E (+ dC_dpar_r(diag f)) along a change of response r's scale.

    C = S C_Omega S, so ds = e s (scale_direction; E = diag(e) on response
    r's rows) moves C by S dC_Omega S; f, given for poisson_tweedie, moves
    K_r. e and f are (n_units, m), and so is the result's unit axis.
    """
    N = assembly.N
    E = np.zeros(np.shape(e)[:-1] + (assembly.R * N,))
    E[..., r * N : (r + 1) * N] = e
    C = assembly.C
    dC = E[..., :, None] * C + C * E[..., None, :]
    if f is not None:
        dC += dC_dpar_r(assembly, r, _diag(f))
    return dC


def A_dtau(rc, Z):
    """A = C_Omega^{-1} dC_Omega in the coefficient of the dense component Z, for R = 1.

    Under the inverse link C_Omega^{-1} = U and dC_Omega = -Omega Z Omega, so
    A = -Z Omega: one product, no dC; a stack of components gives one A each.
    """
    return -(Z @ rc.omega)
