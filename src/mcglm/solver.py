"""Newton-scoring solver: chaser and reciprocal (step-damped) iterations.

The beta update is a quasi-score Newton step; the lambda update solves
the (optionally bias-corrected) Pearson equations. When a proposal
leads to a non-positive-definite covariance, the reciprocal variant
damps the lambda step by a tuning constant that is escalated in small
increments and reset to zero after every successful step.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    FactorizationError,
    StepFailureError,
)
from .estfun import (
    _check_beta_rank,
    _mean_half,
    bias_correction,
    build_godambe,
    build_state,
    empirical_k4,
    pearson_vector,
    quasi_score,
    sensitivity_beta,
    sensitivity_lambda,
    variability_lambda,
)
from .functions import solve, variance_eval
from .model import make_theta


@dataclass(frozen=True)
class SolverOptions:
    algorithm: str = "chaser"          # chaser | reciprocal
    tol_score: float = 1e-6            # max-abs estimating function
    tol_param: float = 1e-8            # max-abs parameter change
    max_iter: int = 200
    alpha_step: float = 0.01
    alpha_max: float = 1.0
    correct_pearson: bool = True

    def __post_init__(self):
        if self.algorithm not in ("chaser", "reciprocal"):
            raise DomainError(f"unknown algorithm {self.algorithm!r}")
        if self.tol_score <= 0 or self.tol_param <= 0:
            raise DomainError("tolerances must be positive")
        if not 0.0 < self.alpha_step <= self.alpha_max:
            raise DomainError("require 0 < alpha_step <= alpha_max")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class IterationRecord:
    """One iteration: theta, the max-abs scores and steps, and alpha.

    ``beta_score_norm`` and ``lambda_score_norm`` are the max-abs
    quasi-score and Pearson values at theta. ``beta_step_norm`` and
    ``lambda_step_norm`` are the max-abs beta and lambda changes of the
    step that reached theta, ``alpha`` the tuning constant of its lambda
    step and ``pd_retries`` the number of times that step escalated it
    after a non-PD proposal (all 0 for the starting values).
    ``score_norm`` and ``step_norm`` are the larger of the two score
    norms and of the two step norms, the values the convergence test
    reads.
    """

    theta: np.ndarray
    beta_score_norm: float
    lambda_score_norm: float
    alpha: float
    pd_retries: int
    beta_step_norm: float
    lambda_step_norm: float

    @property
    def score_norm(self):
        return max(self.beta_score_norm, self.lambda_score_norm)

    @property
    def step_norm(self):
        return max(self.beta_step_norm, self.lambda_step_norm)


@dataclass(frozen=True)
class FitResult:
    theta_hat: object
    godambe: object
    std_errors: np.ndarray
    trace: tuple
    converged: bool
    n_iter: int
    n_alpha_escalations: int
    fitted: np.ndarray = field(default=None, repr=False)
    saturated: bool = False
    warnings: tuple = ()


def _corrected_pearson(state, correct):
    psi = pearson_vector(state)
    if correct:
        psi = psi + bias_correction(state)
    return psi


def _beta_step(state):
    """Quasi-score Newton step in beta; returns the state at the new beta.

    EstimatingState.with_beta keeps the covariance when it does not
    depend on beta and raises FactorizationError when a rebuilt one is
    not PD.
    """
    S_b = sensitivity_beta(state)
    return state.with_beta(state.theta.beta - solve(S_b, quasi_score(state)))


class _LambdaStep:
    """Damped Pearson steps in lambda at one post-beta state.

    psi and S_lambda are computed once; V_lambda^{-1} S_lambda the first
    time a damped step (alpha > 0) asks for it. A PD-failure retry
    changes only alpha, so it re-solves only M(alpha).
    """

    def __init__(self, state, correct):
        self.state = state
        self.psi = _corrected_pearson(state, correct)
        self.S_l = sensitivity_lambda(state)

    @cached_property
    def VinvS(self):
        state = self.state
        k4 = empirical_k4(state.residual / state.scale, state.covariance.variance)
        try:
            return solve(variability_lambda(state, k4), self.S_l)
        except np.linalg.LinAlgError as exc:
            raise StepFailureError(f"singular lambda variability: {exc}")

    def lam(self, alpha):
        """The new lambda for tuning constant alpha."""
        psi, S_l = self.psi, self.S_l
        M = S_l if alpha == 0.0 else alpha * float(psi @ psi) * self.VinvS + S_l
        try:
            step = solve(M, psi)
        except np.linalg.LinAlgError as exc:
            raise StepFailureError(f"singular lambda-step matrix: {exc}")
        return self.state.theta.lam - step


def chaser_step(theta, model, y, correct=True):
    """One modified-chaser update: beta first, then lambda at the new beta."""
    return reciprocal_step(theta, model, y, alpha=0.0, correct=correct)


def reciprocal_step(theta, model, y, alpha, correct=True):
    """One damped update; alpha = 0 reduces exactly to the chaser step.

    fit takes the same two steps, so this is the update fit runs.
    """
    state_b = _beta_step(build_state(model, y, theta))
    return state_b.theta.with_lambda(_LambdaStep(state_b, correct).lam(alpha))


def alpha_strategy(previous_alpha, eps=0.01, alpha_max=1.0):
    """Escalate the tuning constant by eps after a non-PD proposal; raise once at alpha_max."""
    if previous_alpha >= alpha_max:
        raise ConvergenceError(
            "tuning constant reached its cap without a positive-definite "
            "proposal; consider rescaling the data or different starting values"
        )
    return min(previous_alpha + eps, alpha_max)


IRLS_ITER = 10  # the most scoring steps the starting fit takes
IRLS_STEP_TOL = 1e-10  # it stops once max|step| <= IRLS_STEP_TOL * max(1, max|beta|)


def initialize(model, y):
    """Starting values from independent per-response quasi-GLM fits.

    Up to IRLS_ITER Fisher-scoring steps beta += (D^T W D)^{-1} D^T W
    (y - mu), with the iid working weights W = 1 / V(mu) at the starting
    power (plus mu for poisson_tweedie), are taken for all responses at
    once on the mean half: D is block diagonal over responses, so each
    is that response's own IRLS step. They stop once a step vanishes
    against beta (IRLS_STEP_TOL), or after the first step when every
    link is the identity and every variance constant: that step is the
    least-squares fit. Each response's first constant design column
    starts at the link-scale mean of its response, and a rank-deficient
    design raises SingularMatrixError naming the beta columns. tau_0
    comes from the mean squared Pearson residual (its reciprocal under
    the inverse covariance link), remaining tau are zero, rho is zero,
    and the power starts at 1 (tweedie) or 1.5 (poisson_tweedie).
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    N, resps, slices = model.N, model.responses, model.beta_slices()
    pts = [resp.variance.kind == "poisson_tweedie" for resp in resps]
    p0 = [(1.5 if t else 1.0) if resp.power_free else resp.power_value
          for resp, t in zip(resps, pts)]
    pt = np.repeat(pts, N)
    rows = [slice(r * N, (r + 1) * N) for r in range(model.R)]

    def variance(mu):
        return np.concatenate([variance_eval(resp.variance, mu[i], p)
                               for resp, i, p in zip(resps, rows, p0)])

    exact = model.identity_gradient is not None and model.variance_kinds == {"constant"}
    beta = np.zeros(model.K)
    for resp, i, b in zip(resps, rows, slices):
        # crude mean start on the link scale
        X, ybar = resp.design, float(np.mean(y[i]))
        const = np.flatnonzero(np.all(X == X[:1, :], axis=0) & (X[0] != 0))
        if const.size:
            if resp.link.kind == "log":
                ybar = np.log(max(ybar, 1e-8))
            elif resp.link.kind == "logit":
                ybar = min(max(ybar, 1e-6), 1 - 1e-6)
                ybar = np.log(ybar / (1 - ybar))
            beta[b.start + const[0]] = ybar / X[0, const[0]]
    for _ in range(IRLS_ITER):
        mu, D, _ = _mean_half(model, beta)
        WD = D / (variance(mu) + pt * mu)[:, None]
        M = D.T @ WD
        _check_beta_rank(M)
        step = solve(M, WD.T @ (y - mu))
        beta = beta + step
        if exact or _max_abs(step) <= IRLS_STEP_TOL * max(1.0, _max_abs(beta)):
            break
    if not np.all(np.isfinite(beta)):
        raise StepFailureError("degenerate starting fit: non-finite beta")
    mu = _mean_half(model, beta)[0]
    pearson = ((y - mu) ** 2 - pt * mu) / variance(mu)
    taus = [np.zeros(resp.predictor.D_plus_1) for resp in resps]
    for tau, resp, i, t in zip(taus, resps, rows, pts):
        tau0 = max(float(np.mean(pearson[i])), 1e-2 if t else 1e-10)
        tau[0] = 1.0 / tau0 if resp.covlink.kind == "inverse" else tau0
    return make_theta(model, beta, model.pack_lambda(np.zeros(model.n_rho), np.array(p0), taus))


def _max_abs(x):
    return float(np.abs(x).max()) if x.size else 0.0


def _record_norms(psi_beta, psi_lambda, step):
    """The max-abs of psi_beta, psi_lambda and the beta and lambda halves of step, in one pass.

    Every part is non-empty: K >= 1 and Q >= 1.
    """
    K, Q = psi_beta.size, psi_lambda.size
    parts = np.abs(np.concatenate((psi_beta, psi_lambda, step)))
    return np.maximum.reduceat(parts, (0, K, K + Q, 2 * K + Q)).tolist()


def _next_state(state, opts):
    """The beta step, then lambda steps at alpha 0, 0 + eps, ... until one is PD.

    Returns the accepted state, the alpha its proposal used and the
    number of escalations; the chaser raises StepFailureError at the
    first non-PD proposal instead. A proposal keeps the beta step's
    beta, so only its covariance is built.
    """
    try:
        state_b = _beta_step(state)
    except FactorizationError as exc:
        raise StepFailureError(f"non-PD covariance after beta step: {exc}") from exc
    lambda_step = _LambdaStep(state_b, opts.correct_pearson)
    alpha, escalations = 0.0, 0
    while True:
        try:
            new_state = state_b.with_lambda(lambda_step.lam(alpha))
        except FactorizationError as exc:
            if opts.algorithm == "chaser":
                raise StepFailureError(
                    f"chaser proposal gives non-PD covariance: {exc}"
                ) from exc
            alpha = alpha_strategy(alpha, eps=opts.alpha_step, alpha_max=opts.alpha_max)
            escalations += 1
            continue
        return new_state, alpha, escalations


def fit(model, y, opts=None):
    """Iterate to a joint root of the quasi-score and Pearson functions.

    Convergence requires both the max-abs estimating function and the
    max-abs parameter change to fall below their tolerances. No step is
    taken after the record of iteration max_iter, so the estimate, the
    fitted means and the Godambe sandwich always belong to the last
    recorded iterate.
    """
    if opts is None:
        opts = SolverOptions()
    y = np.asarray(y, dtype=float).reshape(-1)
    theta = initialize(model, y)
    trace = []
    alpha, retries = 0.0, 0
    step = np.zeros(theta.flat.size)
    converged = False
    state = build_state(model, y, theta)

    for n_iter in range(1, opts.max_iter + 1):
        beta_score, lambda_score, beta_step, lambda_step = _record_norms(
            quasi_score(state), _corrected_pearson(state, opts.correct_pearson), step
        )
        record = IterationRecord(
            theta.flat, beta_score, lambda_score, alpha, retries, beta_step, lambda_step
        )
        trace.append(record)
        if n_iter > 1 and record.score_norm < opts.tol_score and record.step_norm < opts.tol_param:
            converged = True
            break
        if n_iter == opts.max_iter:
            break

        state, alpha, retries = _next_state(state, opts)
        step = state.theta.flat - theta.flat
        theta = state.theta

    god = build_godambe(state)
    variances = np.diag(god.J_inv)
    names = model.parameter_names()
    warnings = tuple(
        f"sandwich variance of {names[i]} is negative ({variances[i]:.3g}); "
        "its standard error is reported as 0"
        for i in np.flatnonzero(variances < 0.0)
    )
    return FitResult(
        theta_hat=theta,
        godambe=god,
        std_errors=god.std_errors,
        trace=tuple(trace),
        converged=converged,
        n_iter=n_iter,
        n_alpha_escalations=sum(t.pd_retries for t in trace),
        fitted=state.mu.copy(),
        saturated=state.saturated,
        warnings=warnings,
    )
