"""Shared fixtures-in-code for the test suite: random instances and oracles."""

import numpy as np

from mcglm import (
    CovLinkSpec,
    LinkSpec,
    MatrixPredictor,
    ModelSpec,
    ResponseSpec,
    SimSpec,
    StructureMatrix,
    VarianceSpec,
    generalized_kronecker,
    mat_compound_symmetry,
    mat_identity,
    mat_kronecker,
    mat_neighborhood,
    make_theta,
    sigma_b_from_rho,
    simulate_gaussian,
)
from mcglm.covariance import (
    ResponseCovariance,
    build_sigma_r,
    chol_deriv,
    dC_drho,
    dC_dscale,
    dSigma_dtau,
)
from mcglm.functions import variance_deriv_mu, variance_deriv_p, variance_eval


def random_pd(rng, n, jitter=None):
    """Random symmetric positive definite matrix."""
    A = rng.standard_normal((n, n))
    M = A @ A.T
    if jitter is None:
        jitter = 0.5 * n
    return M + jitter * np.eye(n)


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


def central_diff(f, x, h=1e-6):
    """Central finite difference of a scalar-argument function."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def weight_matrix(C_inv, dC):
    """W = C^{-1} dC C^{-1}, the negated derivative of C^{-1} (dense test oracle)."""
    W = C_inv @ dC @ C_inv
    return 0.5 * (W + W.T)


def product_rule_dC(assembly, r, dS):
    """dC in a parameter of Sigma_r by the full product rule (dense test oracle).

    The Cholesky-factor derivative dL_r = L_r Phi(L_r^{-1} dS L_r^{-T}) is
    pushed through every block (r, s) = Sb[r, s] dL_r L_s^T, the diagonal
    one included, and the sum is symmetrized.
    """
    rc = assembly.responses[r]
    dL = chol_deriv(rc.chol, rc.chol_inv, dS)
    dC = np.zeros(assembly.C_inv.shape)
    for s in range(assembly.R):
        block = assembly.Sb[r, s] * (dL @ np.swapaxes(assembly.responses[s].chol, -1, -2))
        assembly.block(dC, r, s)[...] += block
        assembly.block(dC, s, r)[...] += np.swapaxes(block, -1, -2)
    return 0.5 * (dC + np.swapaxes(dC, -1, -2))


def _power_part(var):
    """The variance whose V(mu) is the scale's: mu^p alone for poisson_tweedie."""
    return VarianceSpec("tweedie_power") if var.kind == "poisson_tweedie" else var


def _dense_sigmas(model, mu, lam):
    """Per response (Sigma_r, Omega_r, s_r), Sigma_r = S Omega_r S (+ diag(mu) for poisson_tweedie)."""
    N = model.N
    _, p, tau = model.split_lambda(lam)
    out = []
    for r, resp in enumerate(model.responses):
        mu_r = mu[r * N : (r + 1) * N]
        omega = build_sigma_r(mu_r, resp.variance, p[r], tau[r], resp.predictor, resp.covlink).omega
        s = np.sqrt(variance_eval(_power_part(resp.variance), mu_r, p[r]))
        sigma = s[:, None] * omega * s[None, :]
        if resp.variance.kind == "poisson_tweedie":
            sigma = sigma + np.diag(mu_r)
        out.append((0.5 * (sigma + sigma.T), omega, s))
    return out


def _scale_rule(omega, s, ds):
    """dS Omega S + S Omega dS for the diagonal dS = diag(ds) (dense test oracle)."""
    return ds[:, None] * omega * s[None, :] + s[:, None] * omega * ds[None, :]


def dense_covariance(model, mu, lam):
    """The joint covariance and every dC_i built from the full N x N matrices, ignoring units.

    Each Sigma_r = S Omega_r S (+ diag(mu) for poisson_tweedie) and its
    derivative in a tau or a power are formed here, the power's by the
    dense product rule dS Omega S + S Omega dS, and every such dSigma_r
    goes through product_rule_dC. Returns the JointCovariance of the
    whole stacked vector and the list of dense dC_i, one per lambda
    position (dense test oracle).
    """
    N = model.N
    rho, p, _ = model.split_lambda(lam)
    resps = model.responses
    sigmas = _dense_sigmas(model, mu, lam)
    rcs = [
        ResponseCovariance(sigma=sigma, omega=omega, chol=np.linalg.cholesky(sigma))
        for sigma, omega, _ in sigmas
    ]
    jc = generalized_kronecker(rcs, sigma_b_from_rho(rho, model.R))
    dC = []
    for role, r, d in model.lambda_index_map():
        if role == "rho":
            dC.append(dC_drho(jc, r))
            continue
        _, omega, s = sigmas[r]
        if role == "power":
            mu_r = mu[r * N : (r + 1) * N]
            dS = _scale_rule(omega, s, variance_deriv_p(resps[r].variance, mu_r, p[r]) / (2.0 * s))
        else:
            Z = resps[r].predictor.components[d].dense()
            dS = s[:, None] * dSigma_dtau(rcs[r], resps[r].covlink, Z) * s[None, :]
        dC.append(product_rule_dC(jc, r, dS))
    return jc, dC


def dense_oracle(state):
    """C, C^{-1}, dC_i and dC_beta_j built from the full N x N matrices, ignoring units.

    A beta moves Sigma_r through mu: dS Omega S + S Omega dS with
    dS = V'(mu) dmu / 2S, plus diag(dmu) for poisson_tweedie, by the
    dense product rule.
    """
    model, mu = state.model, state.mu
    N = model.N
    _, p, _ = model.split_lambda(state.theta.lam)
    jc, dC = dense_covariance(model, mu, state.theta.lam)
    sigmas = _dense_sigmas(model, mu, state.theta.lam)
    dC_beta = []
    for r, (resp, sl) in enumerate(zip(model.responses, model.beta_slices())):
        _, omega, s = sigmas[r]
        mu_r = mu[r * N : (r + 1) * N]
        slope = variance_deriv_mu(_power_part(resp.variance), mu_r, p[r]) / (2.0 * s)
        for j in range(sl.start, sl.stop):
            dmu = state.D[r * N : (r + 1) * N, j]
            dS = _scale_rule(omega, s, slope * dmu)
            if resp.variance.kind == "poisson_tweedie":
                dS = dS + np.diag(dmu)
            dC_beta.append(product_rule_dC(jc, r, dS))
    return jc.C, jc.C_inv, dC, dC_beta


def scale_dC_beta(state, j):
    """dC in beta j per unit size, read as the fit reads it: S dC_dscale S along beta_slopes."""
    model, cov = state.model, state.covariance
    _, r, _ = model.layout[j]
    e, f = state.beta_slopes
    pt = model.responses[r].variance.kind == "poisson_tweedie"
    rows = [r * model.N + grp.index for grp in model.unit_groups]
    return state.scaled(
        dC_dscale(g, r, e[i, j], f[i, j] if pt else None) for g, i in zip(cov.groups, rows)
    )


def car_components(T, S):
    """The six CAR space-time components on a T x S chain-by-chain lattice."""
    Wt, Dt = mat_neighborhood([(i, i + 1) for i in range(T - 1)], T)
    Ws, Ds = mat_neighborhood([(i, i + 1) for i in range(S - 1)], S)
    I_T, I_S = mat_identity(T), mat_identity(S)
    return (
        mat_kronecker(Dt, I_S), mat_kronecker(Wt, I_S), mat_kronecker(I_T, Ds),
        mat_kronecker(I_T, Ws), mat_kronecker(Dt, Ds), mat_kronecker(Wt, Ws),
    )


def scatter(state, blocks):
    """Dense N R x N R matrix from one stack of unit blocks per unit size (dense test oracle).

    ``blocks`` is such a sequence, or "C", "C_chol" or "C_inv": the
    joint covariance C = S C_Omega S of the EstimatingState ``state``,
    its lower factor S L_Omega or its inverse S^{-1} C_Omega^{-1} S^{-1}.
    """
    index = [grp.joint for grp in state.model.unit_groups]
    if isinstance(blocks, str) and blocks == "C_inv":
        s = state.scale
        return scatter(state, [g.C_inv for g in state.covariance.groups]) / np.outer(s, s)
    if isinstance(blocks, str):
        blocks = state.scaled((getattr(g, blocks) for g in state.covariance.groups), blocks == "C")
    n = sum(idx.size for idx in index)
    out = np.zeros((n, n))
    for idx, b in zip(index, blocks):
        out[idx[:, :, None], idx[:, None, :]] = b
    return out


def rel_err(analytic, reference):
    scale = max(float(np.max(np.abs(reference))), 1e-8)
    return float(np.max(np.abs(np.asarray(analytic) - np.asarray(reference)))) / scale


_LINKS = ["identity", "log"]
_SETUPS = [
    ("constant", "identity", True),
    ("constant", "inverse", True),
    ("tweedie_power", "identity", False),
    ("tweedie_power", "identity", True),
    ("poisson_tweedie", "identity", False),
]


def random_instance(rng, N=None, R=None, free_rho=True, setups=_SETUPS):
    """Random small McGLM instance: (model, y, theta) with PD covariance.

    Mixes variance kinds, covariance links and predictors across
    responses, each drawn from ``setups`` (variance kind, covariance
    link, power known); theta is drawn well inside the PD region.
    """
    if N is None:
        N = int(rng.integers(4, 13))
    if R is None:
        R = int(rng.integers(1, 4))
    responses = []
    betas, taus, powers = [], [], []
    groups = rng.integers(0, max(2, N // 3), size=N)
    for r in range(R):
        kind, cov, power_known = setups[rng.integers(0, len(setups))]
        link = "log" if kind in ("tweedie_power", "poisson_tweedie") else "identity"
        k = int(rng.integers(1, 4))
        X = np.column_stack([np.ones(N)] + [rng.standard_normal(N) for _ in range(k - 1)])
        comps = [mat_identity(N)]
        if cov == "identity" and rng.random() < 0.5:
            comps.append(mat_compound_symmetry(groups))
        pred = MatrixPredictor(tuple(comps))
        p_val = float(rng.uniform(1.1, 1.9)) if kind != "constant" else 1.0
        responses.append(
            ResponseSpec(
                f"y{r}",
                LinkSpec(link),
                VarianceSpec(kind, power_known=power_known),
                CovLinkSpec(cov),
                X,
                pred,
                power_value=p_val,
            )
        )
        beta = np.zeros(k)
        beta[0] = 0.8 if link == "log" else float(rng.uniform(-1, 1))
        beta[1:] = 0.2 * rng.standard_normal(k - 1)
        betas.append(beta)
        tau = np.zeros(len(comps))
        tau[0] = float(rng.uniform(0.8, 2.0))
        if len(comps) > 1:
            tau[1] = float(rng.uniform(0.05, 0.3)) * tau[0]
        taus.append(tau)
        powers.append(p_val)
    rho = rng.uniform(-0.25, 0.25, size=R * (R - 1) // 2)
    model = ModelSpec(tuple(responses), rho_fixed=None if free_rho else rho)
    lam = model.pack_lambda(rho, np.array(powers), taus)
    beta = np.concatenate(betas)
    theta = make_theta(model, beta, lam)
    y = np.abs(rng.standard_normal(N * R)) + 0.5  # admissible for log-link families
    return model, y, theta


def gaussian_two_response(N=20, seed=0, rho=0.4, tau_cs=0.3):
    """R=2 Gaussian model with compound-symmetry predictors; returns (model, theta)."""
    rng = np.random.default_rng(seed)
    groups = np.repeat(np.arange(N // 2), 2)
    responses = []
    betas, taus = [], []
    for r in range(2):
        X = np.column_stack([np.ones(N), rng.standard_normal(N)])
        pred = MatrixPredictor((mat_identity(N), mat_compound_symmetry(groups)))
        responses.append(
            ResponseSpec(
                f"y{r}",
                LinkSpec("identity"),
                VarianceSpec("constant"),
                CovLinkSpec("identity"),
                X,
                pred,
            )
        )
        betas.append(np.array([1.0 + r, 0.5 - 0.2 * r]))
        taus.append(np.array([1.0 + 0.5 * r, tau_cs]))
    model = ModelSpec(tuple(responses))
    lam = model.pack_lambda([rho], [1.0, 1.0], taus)
    return model, make_theta(model, np.concatenate(betas), lam)


def nonpd_instance():
    """Fixture whose chaser lambda step proposes a non-PD covariance."""
    seed = 3
    rng = np.random.default_rng(seed)
    N = 12
    A = rng.standard_normal((N, N))
    Z = 0.5 * (A + A.T)
    X = np.ones((N, 1))
    pred = MatrixPredictor((mat_identity(N), StructureMatrix.from_dense(Z)))
    resp = ResponseSpec(
        "y",
        LinkSpec("identity"),
        VarianceSpec("constant"),
        CovLinkSpec("identity"),
        X,
        pred,
    )
    model = ModelSpec((resp,))
    w = np.linalg.eigvalsh(Z)
    t1 = 0.9 / max(abs(w[0]), w[-1])
    theta_true = make_theta(
        model, np.array([0.5]), model.pack_lambda([], [1.0], [np.array([1.0, t1])])
    )
    y = simulate_gaussian(SimSpec(model, theta_true, 1, seed=seed))[0]
    theta0 = make_theta(
        model,
        np.array([np.mean(y)]),
        model.pack_lambda([], [1.0], [np.array([np.var(y), 0.0])]),
    )
    return model, y, theta0
