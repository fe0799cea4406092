"""End-to-end acceptance suite.

Each test exercises one acceptance criterion and prints a single
pass/fail line (run pytest with -s to see them as they complete).
"""

import contextlib
import csv
import io
import json
import time

import numpy as np
import pytest

from mcglm import (
    CovLinkSpec,
    LinkSpec,
    MatrixPredictor,
    ModelSpec,
    ResponseSpec,
    SolverOptions,
    StepFailureError,
    VarianceSpec,
    build_state,
    chaser_step,
    fit,
    make_theta,
    mat_identity,
    reciprocal_step,
    simulate_gaussian,
)
from mcglm.checks import derivative_report
from mcglm.covariance import generalized_kronecker, sigma_b_from_rho
from mcglm.errors import FactorizationError, McglmError
from mcglm.estfun import (
    pearson_vector,
    sensitivity_lambda,
    variability_lambda,
)
from mcglm.matpred import assemble_U
from mcglm.simulate import SimSpec
from mcglm.solver import alpha_strategy

from helpers import (
    car_components,
    gaussian_two_response,
    nonpd_instance,
    random_instance,
    random_pd,
    scatter,
)

Z95 = 1.959963984540054
TIGHT = SolverOptions(tol_score=1e-12, tol_param=1e-12, max_iter=300)


def report(criterion, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}{tail}")
    assert ok, f"{criterion}{tail}"


def test_criterion_01_derivative_suite():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = {}
    done = 0
    while done < 50:
        model, y, theta = random_instance(rng)
        try:
            rep = derivative_report(model, y, theta)
        except FactorizationError:
            continue
        for family, err in rep.items():
            worst[family] = max(worst.get(family, 0.0), err)
        done += 1
    elapsed = time.time() - start
    worst_err = max(worst.values())
    ok = worst_err < 1e-6 and elapsed < 60.0
    report(
        "criterion 1: derivative suite",
        ok,
        f"50 instances, worst rel err {worst_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_kronecker_reductions():
    rng = np.random.default_rng(2)
    worst = 0.0

    def rc(sigma):
        from mcglm.covariance import ResponseCovariance

        L = np.linalg.cholesky(sigma)
        return ResponseCovariance(sigma=sigma, chol=L, omega=sigma)

    for _ in range(20):
        R = int(rng.integers(2, 4))
        n = int(rng.integers(2, 6))
        sigmas = [random_pd(rng, n) for _ in range(R)]
        rho = rng.uniform(-0.3, 0.3, size=R * (R - 1) // 2)
        Sb = sigma_b_from_rho(rho, R)

        # identity between responses: block-diagonal C
        jc = generalized_kronecker([rc(s) for s in sigmas], np.eye(R))
        for r in range(R):
            for s in range(R):
                blk = jc.block(jc.C, r, s)
                target = sigmas[r] if r == s else np.zeros((n, n))
                worst = max(worst, float(np.max(np.abs(blk - target))))

        # equal responses: plain Kronecker product
        jc = generalized_kronecker([rc(sigmas[0])] * R, Sb)
        worst = max(worst, float(np.max(np.abs(jc.C - np.kron(Sb, sigmas[0])))))

        # diagonal blocks always equal the per-response covariances
        jc = generalized_kronecker([rc(s) for s in sigmas], Sb)
        for r in range(R):
            worst = max(
                worst, float(np.max(np.abs(jc.block(jc.C, r, r) - sigmas[r])))
            )
    ok = worst < 1e-10
    report("criterion 2: Kronecker reductions", ok, f"worst abs err {worst:.2e}")


def _iid_normal(N, K, seed):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(N)] + [rng.standard_normal(N) for _ in range(K - 1)])
    resp = ResponseSpec(
        "y",
        LinkSpec("identity"),
        VarianceSpec("constant"),
        CovLinkSpec("identity"),
        X,
        MatrixPredictor((mat_identity(N),)),
    )
    return ModelSpec((resp,)), X


def test_criterion_03_normal_closed_forms():
    N, K = 25, 3
    model, X = _iid_normal(N, K, seed=3)
    rng = np.random.default_rng(30)
    y = X @ np.array([1.0, -0.5, 2.0]) + rng.standard_normal(N)
    ols = np.linalg.lstsq(X, y, rcond=None)[0]
    rss = float(np.sum((y - X @ ols) ** 2))

    res_c = fit(model, y, TIGHT)
    res_u = fit(
        model,
        y,
        SolverOptions(
            tol_score=1e-12, tol_param=1e-12, max_iter=300, correct_pearson=False
        ),
    )
    tau_c = model.split_lambda(res_c.theta_hat.lam)[2][0][0]
    tau_u = model.split_lambda(res_u.theta_hat.lam)[2][0][0]
    err_beta = float(np.max(np.abs(res_c.theta_hat.beta - ols)))
    err_tc = abs(tau_c - rss / (N - K))
    err_tu = abs(tau_u - rss / N)
    ok = (
        res_c.converged
        and res_u.converged
        and err_beta < 1e-10
        and err_tc < 1e-10
        and err_tu < 1e-10
    )
    report(
        "criterion 3: normal closed forms",
        ok,
        f"beta err {err_beta:.1e}, tau errs {err_tc:.1e}/{err_tu:.1e}",
    )


def _poisson_irls(y, X, tol=1e-13, max_iter=200):
    beta = np.zeros(X.shape[1])
    beta[0] = np.log(max(np.mean(y), 1e-8))
    for _ in range(max_iter):
        eta = X @ beta
        mu = np.exp(eta)
        z = eta + (y - mu) / mu
        XtW = X.T * mu
        new = np.linalg.solve(XtW @ X, XtW @ z)
        if np.max(np.abs(new - beta)) < tol:
            return new
        beta = new
    return beta


def test_criterion_04_quasi_poisson():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(10):
        N = 30
        X = np.column_stack([np.ones(N), rng.standard_normal(N)])
        resp = ResponseSpec(
            "y",
            LinkSpec("log"),
            VarianceSpec("tweedie_power", power_known=True),
            CovLinkSpec("identity"),
            X,
            MatrixPredictor((mat_identity(N),)),
            power_value=1.0,
        )
        model = ModelSpec((resp,))
        mu = np.exp(X @ np.array([1.2, 0.3]))
        y = rng.poisson(mu).astype(float)
        res = fit(model, y, TIGHT)
        assert res.converged
        oracle = _poisson_irls(y, X)
        worst = max(worst, float(np.max(np.abs(res.theta_hat.beta - oracle))))
    ok = worst < 1e-8
    report("criterion 4: quasi-Poisson vs IRLS", ok, f"worst beta err {worst:.1e}")


def _calibration_run(n_rep=500):
    model, theta_true = gaussian_two_response(N=50, seed=42)
    reps = simulate_gaussian(SimSpec(model, theta_true, n_rep, seed=7))
    K = model.K
    ests, J_invs = [], []
    cover = np.zeros(K)
    for i in range(n_rep):
        res = fit(model, reps[i], SolverOptions(max_iter=200))
        if not res.converged:
            continue
        ests.append(res.theta_hat.flat)
        J_invs.append(res.godambe.J_inv)
        se = res.std_errors[:K]
        cover += np.abs(res.theta_hat.flat[:K] - theta_true.flat[:K]) < Z95 * se
    n_ok = len(ests)
    return model, theta_true, np.array(ests), np.mean(J_invs, axis=0), cover / n_ok, n_ok


def test_criterion_05_sandwich_calibration():
    start = time.time()
    model, theta_true, ests, mean_J, coverage, n_ok = _calibration_run()
    emp = np.cov(ests.T)
    frob = float(
        np.linalg.norm(emp - mean_J) / np.linalg.norm(mean_J)
    )
    elapsed = time.time() - start
    ok = (
        n_ok >= 490
        and np.all(coverage >= 0.91)
        and np.all(coverage <= 0.98)
        and frob < 0.25
        and elapsed < 600.0
    )
    report(
        "criterion 5: sandwich calibration",
        ok,
        f"coverage {coverage.min():.3f}-{coverage.max():.3f}, "
        f"rel covariance err {frob:.3f}, {elapsed:.0f}s",
    )


def test_criterion_06_insensitivity():
    # Monte Carlo slope of E[psi_beta] in every lambda component; the
    # same draws are used on both sides of the central difference.
    model, theta = gaussian_two_response(N=8, seed=6)
    n_rep = 2000
    h = 1e-4
    state = build_state(model, y=np.zeros(model.N * model.R), theta=theta)
    mu = state.mu
    L = scatter(state, "C_chol")
    D = state.D
    rng = np.random.default_rng(60)
    resid = L @ rng.standard_normal((mu.size, n_rep))  # columns are replicates

    worst_sigma = 0.0
    for j in range(theta.lam.size):
        e = np.zeros(theta.lam.size)
        e[j] = h
        plus = build_state(model, mu, theta.with_lambda(theta.lam + e))
        minus = build_state(model, mu, theta.with_lambda(theta.lam - e))
        Cp_inv, Cm_inv = scatter(plus, "C_inv"), scatter(minus, "C_inv")
        M = D.T @ ((Cp_inv - Cm_inv) / (2 * h))
        slopes = M @ resid  # K x n_rep per-replicate slope of psi_beta
        mean = slopes.mean(axis=1)
        se = slopes.std(axis=1, ddof=1) / np.sqrt(n_rep)
        worst_sigma = max(worst_sigma, float(np.max(np.abs(mean) / np.maximum(se, 1e-12))))
    ok = worst_sigma < 3.0
    report(
        "criterion 6: insensitivity",
        ok,
        f"worst |slope|/MC-error {worst_sigma:.2f} over {theta.lam.size} components",
    )


def test_criterion_07_v_lambda_identity():
    rng = np.random.default_rng(70)
    model, y, theta = random_instance(rng, N=6, R=2)
    state = build_state(model, y, theta)
    S_l = sensitivity_lambda(state)
    V0 = variability_lambda(state, np.zeros(model.N * model.R))
    exact = np.array_equal(V0, -2.0 * S_l)

    # Gaussian Monte Carlo: empirical second moments of psi_lambda
    model_g, theta_g = gaussian_two_response(N=8, seed=71)
    state_g = build_state(model_g, np.zeros(16), theta_g)
    V = variability_lambda(state_g, np.zeros(16))
    mu = state_g.mu
    L = scatter(state_g, "C_chol")
    n_rep = 4000
    rng = np.random.default_rng(72)
    psis = np.empty((n_rep, state_g.Q))
    for i in range(n_rep):
        yrep = mu + L @ rng.standard_normal(16)
        psis[i] = pearson_vector(build_state(model_g, yrep, theta_g))
    worst_sigma = 0.0
    for a in range(state_g.Q):
        for b in range(a, state_g.Q):
            prod = psis[:, a] * psis[:, b]
            se = prod.std(ddof=1) / np.sqrt(n_rep)
            worst_sigma = max(worst_sigma, abs(prod.mean() - V[a, b]) / se)
    ok = exact and worst_sigma < 3.0
    report(
        "criterion 7: V_lambda identity",
        ok,
        f"k4=0 exact: {exact}, worst MC deviation {worst_sigma:.2f} sigma",
    )


def test_criterion_08_reciprocal_contract():
    rng = np.random.default_rng(8)
    bitwise = True
    compared = 0
    while compared < 5:
        model, y, theta = random_instance(rng, N=8, R=2)
        try:
            t1 = chaser_step(theta, model, y)
            t2 = reciprocal_step(theta, model, y, alpha=0.0)
        except McglmError:
            continue
        bitwise = bitwise and np.array_equal(t1.flat, t2.flat)
        compared += 1

    model, y, theta0 = nonpd_instance()
    # the chaser proposal from theta0 is non-PD
    chaser_fails = False
    try:
        build_state(model, y, chaser_step(theta0, model, y))
    except (StepFailureError, FactorizationError):
        chaser_fails = True

    # alpha escalation recovers from the same start
    theta = theta0
    alpha = 0.0
    escalations = 0
    recovered = False
    for _ in range(300):
        while True:
            try:
                theta_new = reciprocal_step(theta, model, y, alpha)
                build_state(model, y, theta_new)
                alpha = 0.0
                break
            except FactorizationError:
                alpha = alpha_strategy(alpha, eps=0.01)
                escalations += 1
        if np.max(np.abs(theta_new.flat - theta.flat)) < 1e-12:
            theta = theta_new
            recovered = True
            break
        theta = theta_new

    # chaser from a safer start (near the root) reaches the same point
    safe = make_theta(
        model,
        theta.beta * 1.05,
        model.pack_lambda(
            [], [1.0], [model.split_lambda(theta.lam)[2][0] * np.array([1.1, 0.9])]
        ),
    )
    th = safe
    for _ in range(300):
        tn = chaser_step(th, model, y)
        if np.max(np.abs(tn.flat - th.flat)) < 1e-13:
            th = tn
            break
        th = tn
    agreement = float(np.max(np.abs(th.flat - theta.flat)))
    ok = bitwise and chaser_fails and recovered and escalations > 0 and agreement < 1e-6
    report(
        "criterion 8: reciprocal contract",
        ok,
        f"bitwise={bitwise}, escalations={escalations}, root agreement {agreement:.1e}",
    )


def test_criterion_09_car_construction():
    comps = car_components(6, 8)
    pred = MatrixPredictor(comps)
    N = comps[0].dim
    tau_t, rho_t = 1.0, -0.4
    tau_s, rho_s = 0.8, -0.3
    tau_st, rho_st = 0.5, 0.2
    tau_true = np.array(
        [tau_t, tau_t * rho_t, tau_s, tau_s * rho_s, tau_st, tau_st * rho_st]
    )

    # exact precision identity
    U = assemble_U(tau_true, pred)
    Dt, Wt, Ds, Ws, Dst, Wst = (c.dense() for c in comps)
    expected = (
        tau_t * (Dt + rho_t * Wt)
        + tau_s * (Ds + rho_s * Ws)
        + tau_st * (Dst + rho_st * Wst)
    )
    identity_err = float(np.max(np.abs(U - expected)))

    # recovery study on the 6 x 8 space-time field
    resp = ResponseSpec(
        "y",
        LinkSpec("identity"),
        VarianceSpec("constant"),
        CovLinkSpec("inverse"),
        np.ones((N, 1)),
        pred,
    )
    model = ModelSpec((resp,))
    theta_true = make_theta(
        model, np.array([1.0]), model.pack_lambda([], [1.0], [tau_true])
    )
    reps = simulate_gaussian(SimSpec(model, theta_true, 100, seed=99))
    derived_true = np.array([tau_t, tau_s, tau_st, rho_t, rho_s, rho_st])
    pairs = [(0, None), (2, None), (4, None), (0, 1), (2, 3), (4, 5)]
    # a replicate counts as a hit only with a usable (positive) variance
    # estimate; failures of any kind count against the rate
    hits = np.zeros(6)
    n_conv = 0
    for i in range(100):
        try:
            res = fit(
                model, reps[i], SolverOptions(algorithm="reciprocal", max_iter=500)
            )
        except McglmError:
            continue
        if not res.converged:
            continue
        n_conv += 1
        tau_hat = model.split_lambda(res.theta_hat.lam)[2][0]
        J = res.godambe.J_inv[1:, 1:]
        for k, (a, b) in enumerate(pairs):
            if b is None:
                var = float(J[a, a])
                est = tau_hat[a]
            else:
                est = tau_hat[b] / tau_hat[a]
                g = np.zeros(6)
                g[b] = 1.0 / tau_hat[a]
                g[a] = -tau_hat[b] / tau_hat[a] ** 2
                var = float(g @ J @ g)
            if var <= 0:
                continue
            hits[k] += abs(est - derived_true[k]) < 3.0 * np.sqrt(var)
    rates = hits / 100.0
    ok = identity_err < 1e-12 and n_conv >= 95 and np.all(rates >= 0.90)
    report(
        "criterion 9: CAR construction",
        ok,
        f"identity err {identity_err:.1e}, {n_conv} fits, "
        f"3-SE hit rates {rates.min():.2f}-{rates.max():.2f}",
    )


def _cli_fixture(tmp_path, N=50, seed=42):
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(N)
    x2 = rng.standard_normal(N)
    g = np.repeat(np.arange(N // 2), 2)
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y1", "y2", "one", "x1", "x2", "g"])
        for i in range(N):
            w.writerow(["0", "0", "1", f"{x1[i]:.17g}", f"{x2[i]:.17g}", str(g[i])])
    resp = lambda name, xcol: {
        "name": name,
        "link": "identity",
        "variance": "constant",
        "covlink": "identity",
        "design_columns": ["one", xcol],
        "predictor": [
            {"type": "identity"},
            {"type": "compound_symmetry", "groups": "g"},
        ],
    }
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "responses": [resp("y1", "x1"), resp("y2", "x2")],
                "between": "free",
                "data": {"path": "data.csv"},
            }
        )
    )
    theta_doc = {
        "beta": [[1.0, 0.5], [2.0, 0.3]],
        "rho": [0.4],
        "tau": [[1.0, 0.3], [1.5, 0.3]],
    }
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(theta_doc))
    return spec, theta, theta_doc


def test_criterion_10_cli_round_trip(tmp_path):
    from mcglm.cli import main

    start = time.time()
    spec, theta_path, theta_doc = _cli_fixture(tmp_path)
    n_rep = 500
    sim_args = [
        "--threads",
        "1",
        "simulate",
        "--spec",
        str(spec),
        "--theta",
        str(theta_path),
        "--n",
        str(n_rep),
        "--seed",
        "11",
    ]
    assert main(sim_args + ["--out", str(tmp_path / "sim_a")]) == 0
    assert main(sim_args + ["--out", str(tmp_path / "sim_b")]) == 0
    sim_det = (tmp_path / "sim_a" / "rep_0001.csv").read_bytes() == (
        tmp_path / "sim_b" / "rep_0001.csv"
    ).read_bytes()

    fit1 = [
        "--threads",
        "1",
        "fit",
        "--spec",
        str(spec),
        "--data",
        str(tmp_path / "sim_a" / "rep_0001.csv"),
    ]
    assert main(fit1 + ["--out", str(tmp_path / "fit_a")]) == 0
    assert main(fit1 + ["--out", str(tmp_path / "fit_b")]) == 0
    fit_det = all(
        (tmp_path / "fit_a" / f).read_bytes() == (tmp_path / "fit_b" / f).read_bytes()
        for f in ("estimates.csv", "fitted.csv", "sigma_b.csv", "result.json")
    )

    truth_beta = np.array(theta_doc["beta"]).ravel()
    cover = np.zeros(truth_beta.size)
    est_rows = []
    se_rows = []
    n_conv = 0
    for i in range(n_rep):
        out = tmp_path / f"fit_{i:04d}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(
                [
                    "--threads",
                    "1",
                    "fit",
                    "--spec",
                    str(spec),
                    "--data",
                    str(tmp_path / "sim_a" / f"rep_{i + 1:04d}.csv"),
                    "--out",
                    str(out),
                ]
            )
        if code != 0:
            continue
        n_conv += 1
        with open(out / "estimates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        est = np.array([float(r["estimate"]) for r in rows[: truth_beta.size]])
        se = np.array([float(r["std_error"]) for r in rows[: truth_beta.size]])
        est_rows.append(est)
        se_rows.append(se)
        cover += np.abs(est - truth_beta) < Z95 * se
    cover = cover / n_conv
    emp_var = np.var(np.array(est_rows), axis=0, ddof=1)
    mean_var = np.mean(np.array(se_rows) ** 2, axis=0)
    var_err = float(
        np.linalg.norm(emp_var - mean_var) / np.linalg.norm(mean_var)
    )
    elapsed = time.time() - start
    ok = (
        sim_det
        and fit_det
        and n_conv >= 490
        and np.all(cover >= 0.91)
        and np.all(cover <= 0.98)
        and var_err < 0.25
    )
    report(
        "criterion 10: CLI round trip",
        ok,
        f"byte-deterministic={sim_det and fit_det}, coverage "
        f"{cover.min():.3f}-{cover.max():.3f}, rel var err {var_err:.3f}, "
        f"{elapsed:.0f}s",
    )
