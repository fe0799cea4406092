"""Finite-difference verification of the analytic covariance derivatives."""

import numpy as np

from . import estfun
from .errors import FactorizationError
from .model import make_theta

FD_STEP = 1e-6


def _fd_dC(model, y, theta, offset):
    """Central differences in theta.flat[offset] of the joint blocks of every unit size."""
    def C_at(flat):
        th = make_theta(model, flat[: model.K], flat[model.K :])
        state = estfun.build_state(model, y, th)
        return state.scaled(g.C for g in state.covariance.groups)

    flat = theta.flat
    e = np.zeros_like(flat)
    e[offset] = FD_STEP
    plus, minus = C_at(flat + e), C_at(flat - e)
    return [(p - m) / (2.0 * FD_STEP) for p, m in zip(plus, minus)]


def _rel_err(analytic, fd):
    """Worst absolute error over every unit block, relative to the largest difference."""
    scale = max(max(float(np.max(np.abs(d))) for d in fd), 1e-8)
    return max(float(np.max(np.abs(a - d))) for a, d in zip(analytic, fd)) / scale


def derivative_report(model, y, theta):
    """Worst relative error of each analytic dC family vs central differences.

    Each derivative is checked as the estimating functions read it, in
    C = S C_Omega S: a lambda dC_i as S C_Omega A_i S (StateCovariance.A_units),
    a beta dC_j as S dC_dscale S along column j of beta_slopes. Both sides
    are the unit blocks of every unit size; C is zero between units, and
    so are its derivatives and their differences. Returns
    {family: worst_rel_err}; families absent from the model are omitted.
    """
    state = estfun.build_state(model, y, theta)
    cov = state.covariance
    e, f = state.beta_slopes
    worst = {}
    for offset, (family, r, _) in enumerate(model.layout):
        if family == "beta":
            pt = model.responses[r].variance.kind == "poisson_tweedie"
            rows = (r * model.N + grp.index for grp in model.unit_groups)
            dC = [estfun.dC_dscale(g, r, e[i, offset], f[i, offset] if pt else None)
                  for g, i in zip(cov.groups, rows)]
        else:
            dC = [g.C @ A[offset - model.K] for g, A in zip(cov.groups, cov.A_units)]
        err = _rel_err(state.scaled(dC), _fd_dC(model, y, theta, offset))
        worst[family] = max(worst.get(family, 0.0), err)
    return worst


def derivative_probe(model, y, draw_theta):
    """Run derivative_report at a random admissible theta.

    ``draw_theta`` is called with an attempt index and returns a
    ThetaPartition; a non-PD probe point is redrawn, up to 10 draws in
    all, before FactorizationError propagates.
    """
    last = None
    for attempt in range(10):
        try:
            return derivative_report(model, y, draw_theta(attempt))
        except FactorizationError as exc:
            last = exc
    raise last
