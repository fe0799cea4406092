"""Finite-difference verification of the analytic covariance derivatives."""

import numpy as np

from .errors import FactorizationError
from .estfun import build_state, dC_dbeta
from .model import make_theta

FAMILIES = ("rho", "power", "tau", "beta")


def _fd_dC(model, y, theta, kind, index, h):
    def C_at(flat):
        th = make_theta(model, flat[: model.K], flat[model.K :])
        return build_state(model, y, th).assembly.C

    flat = theta.flat
    e = np.zeros_like(flat)
    if kind == "beta":
        e[index] = 1.0
    else:
        e[model.K + index] = 1.0
    return (C_at(flat + h * e) - C_at(flat - h * e)) / (2.0 * h)


def _rel_err(analytic, fd):
    scale = max(float(np.max(np.abs(fd))), 1e-8)
    return float(np.max(np.abs(analytic - fd))) / scale


def derivative_report(model, y, theta, h=1e-6, corrupt=None):
    """Worst relative error of each analytic dC family vs central differences.

    Returns {family: worst_rel_err}; families absent from the model are
    omitted. ``corrupt`` names a family whose analytic derivative is
    deliberately perturbed (negative-control hook).
    """
    state = build_state(model, y, theta)
    worst = {}

    def record(family, analytic, fd):
        if corrupt == family:
            analytic = analytic * (1.0 + 1e-3) + 1e-3
        err = _rel_err(analytic, fd)
        worst[family] = max(worst.get(family, 0.0), err)

    for pos, (role, _, _) in enumerate(model.lambda_index_map()):
        family = {"rho": "rho", "power": "power", "tau": "tau"}[role]
        fd = _fd_dC(model, y, theta, "lambda", pos, h)
        record(family, state.dC[pos], fd)
    for j in range(model.K):
        fd = _fd_dC(model, y, theta, "beta", j, h)
        record("beta", state.assembly.dense(dC_dbeta(state, j)), fd)
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
