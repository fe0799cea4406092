"""Synthetic data with exact first and second moments.

The Gaussian generator is the workhorse: the model is second-moment
specified, so Y = M + L z (L = S L_Omega, the Cholesky factor of
C = S C_Omega S) reproduces the
joint mean and covariance exactly. L is block diagonal over the model's
independent units, so each unit's slice of z is multiplied by its own
block. Count generators exist only to exercise the overdispersed
marginal variance, not any joint law.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .estfun import build_state


@dataclass(frozen=True)
class SimSpec:
    model: object
    theta_true: object
    n_replicates: int
    seed: int

    def __post_init__(self):
        if self.n_replicates < 1:
            raise DomainError(f"n_replicates must be >= 1, got {self.n_replicates}")


def simulate_gaussian(spec):
    """Replicates of M + L z with z standard normal; rows are replicates.

    Per-replicate generators are spawned from one seed sequence, so the
    output is reproducible and replicates stay independent regardless
    of how many are drawn.
    """
    model = spec.model
    state = build_state(model, np.zeros(model.N * model.R), spec.theta_true)
    mean, factors = state.mu, state.scaled((g.C_chol for g in state.covariance.groups), False)
    n = mean.size
    out = np.empty((spec.n_replicates, n))
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_replicates)
    for i, child in enumerate(children):
        z = np.random.default_rng(child).standard_normal(n)
        for idx, L in zip((grp.joint for grp in model.unit_groups), factors):
            out[i, idx] = mean[idx] + (L @ z[idx][..., None])[..., 0]
    return out


def simulate_counts_marginal(mu, p, tau0, kind="poisson_tweedie", seed=0):
    """Independent counts with mean mu and variance mu + tau0 * mu^p.

    p = 1 uses Poisson clustering (Neyman Type A), p = 2 gamma mixing
    (negative binomial). Other powers have no simple mixing
    construction and are rejected.
    """
    if kind != "poisson_tweedie":
        raise DomainError(f"unsupported count kind {kind!r}")
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if np.any(mu <= 0) or tau0 <= 0:
        raise DomainError("require mu > 0 and tau0 > 0")
    rng = np.random.default_rng(seed)
    if p == 1:
        clusters = rng.poisson(mu / tau0)
        return rng.poisson(tau0 * clusters)
    if p == 2:
        lam = rng.gamma(shape=1.0 / tau0, scale=tau0 * mu)
        return rng.poisson(lam)
    raise DomainError(f"unsupported power {p} for count simulation")
