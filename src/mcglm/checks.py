"""Finite-difference verification of the analytic covariance derivatives."""

import numpy as np

from .errors import FactorizationError
from .estfun import build_state, dC_dbeta
from .model import make_theta


def _fd_dC(model, y, theta, offset, h):
    """Central differences in theta.flat[offset] of the joint blocks of every unit size."""
    def C_at(flat):
        th = make_theta(model, flat[: model.K], flat[model.K :])
        return [g.C for g in build_state(model, y, th).covariance.groups]

    flat = theta.flat
    e = np.zeros_like(flat)
    e[offset] = 1.0
    plus, minus = C_at(flat + h * e), C_at(flat - h * e)
    return [(p - m) / (2.0 * h) for p, m in zip(plus, minus)]


def _rel_err(analytic, fd):
    """Worst absolute error over every unit block, relative to the largest difference."""
    scale = max(max(float(np.max(np.abs(d))) for d in fd), 1e-8)
    return max(float(np.max(np.abs(a - d))) for a, d in zip(analytic, fd)) / scale


def derivative_report(model, y, theta, h=1e-6, corrupt=None):
    """Worst relative error of each analytic dC family vs central differences.

    Both sides are the unit blocks of every unit size; C is zero between
    units, and so are its derivatives and their differences. Returns
    {family: worst_rel_err}; families absent from the model are
    omitted. ``corrupt`` names a family whose analytic derivative is
    deliberately perturbed (negative-control hook).
    """
    state = build_state(model, y, theta)
    worst = {}

    def record(family, analytic, fd):
        if corrupt == family:
            analytic = [a * (1.0 + 1e-3) + 1e-3 for a in analytic]
        err = _rel_err(analytic, fd)
        worst[family] = max(worst.get(family, 0.0), err)

    for pos, (family, _, _) in enumerate(model.lambda_index_map()):
        fd = _fd_dC(model, y, theta, model.K + pos, h)
        record(family, [b[pos] for b in state.covariance.dC_units], fd)
    for j in range(model.K):
        fd = _fd_dC(model, y, theta, j, h)
        record("beta", dC_dbeta(state, j), fd)
    return worst


def derivative_probe(model, y, draw_theta, max_redraws=10, h=1e-6, corrupt=None):
    """Run derivative_report at a random admissible theta.

    ``draw_theta`` is called with an attempt index and returns a
    ThetaPartition; non-PD probe points are redrawn up to
    ``max_redraws`` times before FactorizationError propagates.
    """
    last = None
    for attempt in range(max_redraws):
        theta = draw_theta(attempt)
        try:
            return derivative_report(model, y, theta, h=h, corrupt=corrupt)
        except FactorizationError as exc:
            last = exc
    raise last
