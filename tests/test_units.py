"""The independent-unit path against the dense (N R) x (N R) formulas."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcglm.covariance
import mcglm.estfun
import mcglm.functions
from mcglm import (
    CovLinkSpec,
    LinkSpec,
    MatrixPredictor,
    ModelSpec,
    ResponseSpec,
    SolverOptions,
    StructureMatrix,
    VarianceSpec,
    build_godambe,
    build_state,
    fit,
    make_theta,
    mat_compound_symmetry,
    mat_identity,
    mat_inverse_distance,
)
from mcglm.checks import derivative_report
from mcglm.covariance import A_dtau, dC_dpar_r, dC_drho, dC_dscale, dSigma_dtau, scale_direction
from mcglm.estfun import (
    bias_correction,
    build_covariance,
    cross_sensitivity_lb,
    cross_variability_lb,
    empirical_k4,
    pearson_vector,
    sensitivity_lambda,
    variability_lambda,
)
from mcglm.functions import symmetric_inverse
from mcglm.matpred import assemble_U, unit_partition
from mcglm.simulate import SimSpec, simulate_gaussian, stacked_mean

from helpers import (
    car_components,
    dense_covariance,
    dense_oracle,
    gaussian_two_response,
    random_instance,
    rel_err,
    scale_dC_beta,
    scatter,
    weight_matrix,
)

ROOT = Path(__file__).resolve().parent.parent


def build_model(N, responses, seed):
    """(model, y, theta) from (variance kind, covariance link, power known, components).

    Components after the first get small coefficients, so every
    covariance stays positive definite; a ``tau`` list overrides them.
    """
    rng = np.random.default_rng(seed)
    specs, betas, taus, powers = [], [], [], []
    for r, (kind, cov, known, comps, *tau) in enumerate(responses):
        link = {"tweedie_power": "log", "poisson_tweedie": "log", "binomial": "logit"}.get(
            kind, "identity"
        )
        X = np.column_stack([np.ones(N), rng.standard_normal(N)])
        p_val = float(rng.uniform(1.1, 1.9)) if kind != "constant" else 1.0
        specs.append(
            ResponseSpec(
                f"y{r}", LinkSpec(link), VarianceSpec(kind, power_known=known),
                CovLinkSpec(cov), X, MatrixPredictor(tuple(comps)), power_value=p_val,
            )
        )
        betas.append(np.array([0.8 if link == "log" else float(rng.uniform(-1, 1)), 0.2]))
        if tau:
            taus.append(np.array(tau[0], dtype=float))
        else:
            tau0 = float(rng.uniform(0.8, 2.0))
            taus.append(np.array([tau0] + [0.1 * tau0] * (len(comps) - 1)))
        powers.append(p_val)
    R = len(specs)
    rho = rng.uniform(-0.25, 0.25, size=R * (R - 1) // 2)
    model = ModelSpec(tuple(specs))
    theta = make_theta(model, np.concatenate(betas), model.pack_lambda(rho, powers, taus))
    y = np.abs(rng.standard_normal(N * R)) + 0.5
    return model, y, theta


def _cs(groups):
    return mat_compound_symmetry(np.asarray(groups))


def _shared_pairs():
    """helpers.gaussian_two_response: every pair has the same blocks and C does not depend on mu."""
    model, theta = gaussian_two_response(N=12, seed=3)
    y = np.random.default_rng(13).standard_normal(model.N * model.R)
    return model, y, theta


PAIR_GROUPS = [0, 0, 1, 1, 2, 2, 3, 3]
# three pairs one step apart, then two triples spaced differently
PAIRS_TRIPLES = [0, 0, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4]
PAIRS_TRIPLES_AT = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 12.0]


def _pairs_and_triples():
    comps = [mat_identity(12), _cs(PAIRS_TRIPLES),
             mat_inverse_distance(PAIRS_TRIPLES_AT, groups=PAIRS_TRIPLES)]
    return [("constant", "identity", True, comps), ("constant", "identity", True, comps)]


CASES = {
    # units {0,3,6,9}, {1,4,7,10}, {2,5,8,11}: not contiguous
    "interleaved": lambda: build_model(
        12, [("tweedie_power", "identity", False, [mat_identity(12), _cs(np.arange(12) % 3)])], 1
    ),
    # units of sizes 1, 2, 3 and 4
    "unequal_sizes": lambda: build_model(
        10,
        [("tweedie_power", "identity", True,
          [mat_identity(10), _cs([0, 1, 1, 2, 2, 2, 3, 3, 3, 3]),
           mat_inverse_distance(np.arange(10.0), groups=[0, 1, 1, 2, 2, 2, 3, 3, 3, 3])])],
        2,
    ),
    # pairs in one response, quadruples in the other: units {0..3}, {4,5}, {6,7}
    "merged_groupings": lambda: build_model(
        8,
        [("constant", "identity", True, [mat_identity(8), _cs([0, 0, 1, 1, 2, 2, 3, 3])]),
         ("tweedie_power", "identity", False, [mat_identity(8), _cs([0, 0, 0, 0, 1, 1, 2, 2])])],
        3,
    ),
    "inverse_covlink": lambda: build_model(
        8,
        [("tweedie_power", "inverse", True, [mat_identity(8), _cs([0, 0, 1, 1, 2, 2, 3, 3])]),
         ("constant", "inverse", True, [mat_identity(8), _cs([0, 0, 1, 1, 2, 2, 3, 3])])],
        4,
    ),
    "poisson_tweedie_free_power": lambda: build_model(
        9, [("poisson_tweedie", "identity", False, [mat_identity(9), _cs(np.arange(9) // 3)])], 5
    ),
    "three_responses": lambda: build_model(
        6,
        [("constant", "identity", True, [mat_identity(6), _cs([0, 0, 1, 1, 2, 2])]),
         ("tweedie_power", "identity", False, [mat_identity(6), _cs([0, 0, 1, 1, 2, 2])]),
         ("poisson_tweedie", "identity", True, [mat_identity(6)])],
        6,
    ),
    "car_single_block": lambda: build_model(
        12, [("constant", "inverse", True, car_components(3, 4), [1.0, -0.4, 0.8, -0.24, 0.5, 0.1])], 7
    ),
    "shared_blocks": _shared_pairs,
    # the last pair is twice as far apart as the others, so its block differs
    "one_unit_differs": lambda: build_model(
        8,
        [("constant", "identity", True,
          [mat_identity(8), _cs(PAIR_GROUPS),
           mat_inverse_distance([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0], groups=PAIR_GROUPS)])],
        8,
    ),
    # equal blocks, but the second response's scale depends on mu and its power is free
    "mixed_axes": lambda: build_model(
        8,
        [("constant", "identity", True, [mat_identity(8), _cs(PAIR_GROUPS)]),
         ("tweedie_power", "identity", False, [mat_identity(8), _cs(PAIR_GROUPS)])],
        9,
    ),
    # R = 1 precision: every pair shares one U block, so A_dtau runs on the stacked blocks
    "precision_shared": lambda: build_model(
        8, [("constant", "inverse", True, [mat_identity(8), _cs(PAIR_GROUPS)])], 10
    ),
    # R = 2: the pairs share one block, the two triples keep one each
    "shared_next_to_unshared": lambda: build_model(12, _pairs_and_triples(), 11),
    # R = 2, a free power on poisson_tweedie, whose diagonal of K_r is per unit
    "poisson_tweedie_r2": lambda: build_model(
        8,
        [("poisson_tweedie", "identity", False, [mat_identity(8), _cs(PAIR_GROUPS)]),
         ("tweedie_power", "identity", True, [mat_identity(8), _cs(PAIR_GROUPS)])],
        12,
    ),
    # R = 1 under the inverse link: C_Omega^{-1} is U, and the free power's A_i is per unit
    "tweedie_inverse": lambda: build_model(
        8, [("tweedie_power", "inverse", False, [mat_identity(8), _cs(PAIR_GROUPS)])], 13
    ),
    # a known power: the scales are per unit, but C_Omega and every A_i share one block
    "tweedie_shared_pairs": lambda: build_model(
        8,
        [("tweedie_power", "identity", True, [mat_identity(8), _cs(PAIR_GROUPS)]),
         ("constant", "identity", True, [mat_identity(8), _cs(PAIR_GROUPS)])],
        14,
    ),
}

UNIT_SIZES = {
    "interleaved": {4: 3},
    "unequal_sizes": {1: 1, 2: 1, 3: 1, 4: 1},
    "merged_groupings": {2: 2, 4: 1},
    "inverse_covlink": {2: 4},
    "poisson_tweedie_free_power": {3: 3},
    "three_responses": {2: 3},
    "car_single_block": {12: 1},
    "shared_blocks": {2: 6},
    "one_unit_differs": {2: 4},
    "mixed_axes": {2: 4},
    "precision_shared": {2: 4},
    "shared_next_to_unshared": {2: 3, 3: 2},
    "poisson_tweedie_r2": {2: 4},
    "tweedie_inverse": {2: 4},
    "tweedie_shared_pairs": {2: 4},
}

# per unit size, the unit axes of the C_Omega stacks and of the state's A_i stack: 1 when
# all its units share one block; a free power's A_i has each unit's scale
STACK_UNITS = {
    "shared_blocks": {2: (1, 1)},
    "one_unit_differs": {2: (4, 4)},
    "mixed_axes": {2: (1, 4)},
    "precision_shared": {2: (1, 1)},
    "shared_next_to_unshared": {2: (1, 1), 3: (2, 2)},
    "poisson_tweedie_r2": {2: (4, 4)},
    "tweedie_inverse": {2: (1, 4)},
    "tweedie_shared_pairs": {2: (1, 1)},
}


@pytest.mark.parametrize("case", sorted(STACK_UNITS))
def test_state_stacks_share_one_block_only_when_every_unit_does(case):
    model, y, theta = CASES[case]()
    state = build_state(model, y, theta)
    cov = state.covariance
    for grp, joint, A, stack in zip(model.unit_groups, cov.groups, cov.A_units, cov.stacks):
        units, A_units = STACK_UNITS[case][grp.index.shape[1]]
        assert joint.C_inv.shape[0] == joint.C.shape[0] == joint.C_chol.shape[0] == units
        assert A.shape[1] == A_units
        n_units, Rm = grp.joint.shape
        # the estimating functions read the units block-major: a permutation of grp.joint
        assert stack.shape == (A_units, Rm, n_units // A_units)
        assert np.array_equal(np.sort(stack, axis=None), np.sort(grp.joint, axis=None))
        if case in ("shared_blocks", "precision_shared", "tweedie_shared_pairs"):
            for pred in grp.predictors:
                assert all(
                    z.data.shape[0] == 1 and not z.data.flags.writeable for z in pred.components
                )
                assert pred.blocks.shape[:2] == (pred.D_plus_1, 1)
                assert not pred.blocks.flags.writeable


@pytest.mark.parametrize("case", sorted(CASES))
def test_stacked_tau_derivatives_equal_one_component_at_a_time(case):
    # A_units builds each response's tau A_i from its stacked components in one call
    model, y, theta = CASES[case]()
    cov = build_state(model, y, theta).covariance
    for grp, joint, A in zip(model.unit_groups, cov.groups, cov.A_units):
        for i, (role, r, d) in enumerate(model.lambda_index_map()):
            if role != "tau":
                continue
            rc, Z = joint.responses[r], grp.predictors[r].components[d].data
            stacked = grp.predictors[r].blocks[d]
            assert np.array_equal(stacked, np.broadcast_to(Z, stacked.shape))
            # C_Omega^{-1} is U for R = 1 under the inverse link without poisson_tweedie
            if joint.R == 1 and model.responses[r].covlink.kind == "inverse" and rc.sigma is rc.omega:
                expected = A_dtau(rc, Z)
            else:
                dS = dSigma_dtau(rc, model.responses[r].covlink, Z)
                expected = joint.C_inv @ dC_dpar_r(joint, r, dS)
            assert A[i].shape == np.broadcast_shapes(A[i].shape, expected.shape)
            assert rel_err(A[i], expected) < 1e-12


def entrywise_A_units(cov):
    """StateCovariance.A_units with one C_Omega^{-1} product per entry of theta's layout."""
    model = cov.model
    out = []
    for grp, joint in zip(model.unit_groups, cov.groups):
        blocks = []
        for i, (role, r, d) in enumerate(model.lambda_index_map()):
            if role == "rho":
                blocks.append(joint.C_inv @ dC_drho(joint, r)[None])
            elif role == "power":
                mu, var = cov.mu[r * model.N + grp.index], model.responses[r].variance
                dC = dC_dscale(joint, r, *scale_direction(var, mu, cov.lam[i]))
                blocks.append(joint.C_inv @ dC[None])
            elif d == 0:
                resp, rc, Z = model.responses[r], joint.responses[r], grp.predictors[r].blocks
                if joint.R == 1 and resp.covlink.kind == "inverse" and rc.sigma is rc.omega:
                    blocks.append(A_dtau(rc, Z))
                else:
                    dSigma = dSigma_dtau(rc, resp.covlink, Z)
                    blocks.append(joint.C_inv @ dC_dpar_r(joint, r, dSigma))
        units = np.broadcast_shapes(*(A.shape[1:] for A in blocks))
        out.append(np.concatenate([np.broadcast_to(A, A.shape[:1] + units) for A in blocks]))
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_A_units_equal_one_product_per_entry_bitwise(case):
    # A_units takes one C_Omega^{-1} product per run of dC stacks that share a unit axis
    model, y, theta = CASES[case]()
    cov = build_state(model, y, theta).covariance
    for A, expected in zip(cov.A_units, entrywise_A_units(cov)):
        assert A.shape == expected.shape and np.array_equal(A, expected)


def test_unit_groups_restrict_each_distinct_component_once(monkeypatch):
    comps = [mat_identity(8), _cs(PAIR_GROUPS)]
    model, _, _ = build_model(8, [("constant", "identity", True, comps),
                                  ("constant", "identity", True, list(comps)),
                                  ("constant", "identity", True, comps[:1])], 15)
    restricted = []
    unit_blocks = StructureMatrix.unit_blocks
    monkeypatch.setattr(StructureMatrix, "unit_blocks",
                        lambda z, index: restricted.append(z) or unit_blocks(z, index))
    (grp,) = model.unit_groups
    assert sorted(map(id, restricted)) == sorted(map(id, comps))
    first, second, third = grp.predictors
    assert second is first and third is not first
    assert third.components[0] is first.components[0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_unit_path_matches_dense_weight_formulas(case):
    model, y, theta = CASES[case]()
    sizes = {g.index.shape[1]: g.index.shape[0] for g in model.unit_groups}
    assert sizes == UNIT_SIZES[case]
    assert_matches_dense_oracle(model, y, theta)


GRID_COMPONENTS = {
    "shared": lambda: [mat_identity(8), _cs(PAIR_GROUPS)],
    "per_unit": lambda: [
        mat_identity(8), _cs(PAIR_GROUPS),
        mat_inverse_distance([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0], groups=PAIR_GROUPS),
    ],
}


@pytest.mark.parametrize("blocks", sorted(GRID_COMPONENTS))
@pytest.mark.parametrize("R", [1, 2])
@pytest.mark.parametrize("covlink", ["identity", "inverse"])
@pytest.mark.parametrize("kind", ["constant", "tweedie_power", "poisson_tweedie", "binomial"])
def test_every_variance_link_and_R_matches_dense_oracle(kind, covlink, R, blocks):
    free = kind in ("tweedie_power", "poisson_tweedie")
    responses = [(kind, covlink, not free, GRID_COMPONENTS[blocks]()) for _ in range(R)]
    model, y, theta = build_model(8, responses, 20 + R)
    assert_matches_dense_oracle(model, y, theta)


def assert_matches_dense_oracle(model, y, theta):
    """C, every dC_i and dC_beta_j, and every estimating-function block vs dense_oracle at 1e-12."""
    state = build_state(model, y, theta)
    C, C_inv, dC, dC_beta = dense_oracle(state)
    assert rel_err(scatter(state, "C"), C) < 1e-12
    assert rel_err(scatter(state, "C_inv"), C_inv) < 1e-12
    cov = state.covariance
    for i, dC_i in enumerate(dC):
        dC_units = state.scaled(g.C @ A[i] for g, A in zip(cov.groups, cov.A_units))
        assert rel_err(scatter(state, dC_units), dC_i) < 1e-12
    for j, dC_j in enumerate(dC_beta):
        assert rel_err(scatter(state, scale_dC_beta(state, j)), dC_j) < 1e-12

    r, D = state.residual, state.D
    W = [weight_matrix(C_inv, dCi) for dCi in dC]
    W_beta = [weight_matrix(C_inv, dCj) for dCj in dC_beta]
    J_beta = D.T @ C_inv @ D
    k4 = np.random.default_rng(8).uniform(0.5, 3.0, size=r.size)
    quad = np.array([r @ Wi @ r for Wi in W])
    WC = [Wi @ C for Wi in W]
    S_l = -np.array([[np.sum(a * b.T) for b in WC] for a in WC])
    k4_term = np.array([[np.sum(k4 * np.diag(a) * np.diag(b)) for b in W] for a in W])
    S_lb = -np.array([[np.sum(a * (Wb @ C).T) for Wb in W_beta] for a in WC])
    V_lb = np.outer(quad, D.T @ C_inv @ r)

    assert rel_err(pearson_vector(state), quad - [np.sum(Wi * C) for Wi in W]) < 1e-12
    b_ref = [np.trace(D.T @ Wi @ D @ np.linalg.inv(J_beta)) for Wi in W]
    assert rel_err(bias_correction(state), b_ref) < 1e-12
    assert rel_err(sensitivity_lambda(state), S_l) < 1e-12
    # variability_lambda reads the standardized cumulants k4 / s^4
    assert rel_err(variability_lambda(state, k4 / state.scale ** 4), -2.0 * S_l + k4_term) < 1e-12
    assert rel_err(cross_sensitivity_lb(state), S_lb) < 1e-12
    assert rel_err(cross_variability_lb(state), V_lb) < 1e-12

    K = model.K
    k4_hat = empirical_k4(r, np.diag(C))
    V_k4 = np.array([[np.sum(k4_hat * np.diag(a) * np.diag(b)) for b in W] for a in W])
    S = np.block([[-J_beta, np.zeros((K, model.Q))], [S_lb, S_l]])
    V = np.block([[J_beta, V_lb.T], [V_lb, -2.0 * S_l + V_k4]])
    S_inv = np.linalg.inv(S)
    god = build_godambe(state)
    assert rel_err(god.S_theta, S) < 1e-12
    assert rel_err(god.V_theta, V) < 1e-12
    assert rel_err(god.J_inv, S_inv @ V @ S_inv.T) < 1e-12


def test_block_simulation_matches_dense_factor():
    rng = np.random.default_rng(12)
    cases = [random_instance(rng, R=R) for R in (1, 2, 3) for _ in range(5)]
    cases.append(CASES["car_single_block"]())
    for model, _, theta in cases:
        mean = stacked_mean(model, theta)
        L = scatter(build_state(model, np.zeros_like(mean), theta), "C_chol")
        children = np.random.SeedSequence(3).spawn(4)
        dense = [mean + L @ np.random.default_rng(c).standard_normal(mean.size) for c in children]
        blocks = simulate_gaussian(SimSpec(model, theta, 4, seed=3))
        assert rel_err(blocks, dense) < 1e-14


def test_shared_block_simulation_equals_per_unit_products():
    # the factor that all units share gives each unit the product its own copy would
    model, _, theta = _shared_pairs()
    mean = stacked_mean(model, theta)
    cov = build_covariance(model, mean, theta.lam)
    (idx,), (joint,) = [grp.joint for grp in model.unit_groups], cov.groups
    assert joint.C_chol.shape[0] == 1
    L = np.repeat(joint.C_chol, idx.shape[0], axis=0)
    expected = np.empty((4, mean.size))
    for i, child in enumerate(np.random.SeedSequence(3).spawn(4)):
        z = np.random.default_rng(child).standard_normal(mean.size)
        expected[i, idx] = mean[idx] + (L @ z[idx][..., None])[..., 0]
    assert np.array_equal(simulate_gaussian(SimSpec(model, theta, 4, seed=3)), expected)


@pytest.mark.parametrize("R", [1, 2])
def test_per_unit_blocks_fit_through_the_batched_path_to_the_dense_root(monkeypatch, R):
    # 20 pairs, one or two apart: the units do not share a block, so the fit factorizes
    # and inverts stacks of 20 with numpy's batched routines, and reaches the root of the
    # dense quasi-score and bias-corrected Pearson equations
    groups = np.repeat(np.arange(20), 2)
    at = np.ravel([[3.0 * k, 3.0 * k + 1 + k % 2] for k in range(20)])
    comps = [mat_identity(40), _cs(groups), mat_inverse_distance(at, groups=groups)]
    model, _, theta = build_model(40, [("constant", "identity", True, comps, [1.0, 0.3, 0.2])] * R, 15)
    y = simulate_gaussian(SimSpec(model, theta, 1, seed=4))[0]
    stacks = []
    original = np.linalg.cholesky

    def counted(M):
        stacks.append(M.shape[:-2])
        return original(M)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    res = fit(model, y, SolverOptions(tol_score=1e-10))
    assert res.converged
    assert stacks and set(stacks) == {(20,)}
    state = build_state(model, y, res.theta_hat)
    C, C_inv, dC, _ = dense_oracle(state)
    r, D = state.residual, state.D
    J_inv = np.linalg.inv(D.T @ C_inv @ D)
    W = [weight_matrix(C_inv, dCi) for dCi in dC]
    pearson = [r @ Wi @ r - np.sum(Wi * C) + np.trace(D.T @ Wi @ D @ J_inv) for Wi in W]
    assert np.max(np.abs(D.T @ C_inv @ r)) < 1e-9
    assert np.max(np.abs(pearson)) < 1e-9


def dense_derivative_report(model, y, theta, h=1e-6):
    """derivative_report computed on the dense N R x N R scatters of C and of every dC.

    Each lambda dC_i is the scatter of the same block products
    S C_Omega A_Omega,i S that derivative_report checks.
    """
    state = build_state(model, y, theta)

    def C_at(flat):
        th = make_theta(model, flat[: model.K], flat[model.K :])
        return scatter(build_state(model, y, th), "C")

    def fd(offset):
        e = np.zeros(theta.flat.size)
        e[offset] = h
        return (C_at(theta.flat + e) - C_at(theta.flat - e)) / (2.0 * h)

    cov = state.covariance
    worst = {}
    for pos, (role, _, _) in enumerate(model.lambda_index_map()):
        dC = state.scaled(g.C @ A[pos] for g, A in zip(cov.groups, cov.A_units))
        worst[role] = max(worst.get(role, 0.0), rel_err(scatter(state, dC), fd(model.K + pos)))
    for j in range(model.K):
        dC = scatter(state, scale_dC_beta(state, j))
        worst["beta"] = max(worst.get("beta", 0.0), rel_err(dC, fd(j)))
    return worst


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_derivative_report_equals_dense_report(case):
    model, y, theta = CASES[case]()
    assert derivative_report(model, y, theta) == dense_derivative_report(model, y, theta)


class TestUnitPartition:
    def test_identity_gives_singletons(self):
        (index,) = unit_partition([mat_identity(4)])
        assert np.array_equal(index, np.arange(4)[:, None])

    def test_interleaved_groups_sorted_within_units(self):
        (index,) = unit_partition([mat_identity(6), _cs([1, 0, 1, 0, 2, 2])])
        assert np.array_equal(index, [[0, 2], [1, 3], [4, 5]])

    def test_components_merge_units_and_sizes_ascend(self):
        parts = unit_partition([_cs([0, 0, 1, 1, 2, 2, 3]), _cs([0, 1, 1, 2, 3, 4, 5])])
        assert [p.tolist() for p in parts] == [[[6]], [[4, 5]], [[0, 1, 2, 3]]]

    def test_chain_is_one_unit(self):
        n = 40
        chain = np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
        (index,) = unit_partition([StructureMatrix.from_dense(chain[::-1, ::-1])])
        assert np.array_equal(index, np.arange(n)[None, :])

    def test_car_is_one_unit(self):
        (index,) = unit_partition(car_components(3, 4))
        assert index.shape == (1, 12)


CAR_TAU = [1.0, -0.4, 0.8, -0.24, 0.5, 0.1]
PAIRS = [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


@pytest.mark.parametrize(
    "responses, precise",
    [
        ([("constant", "inverse", True, car_components(3, 4), CAR_TAU)], True),
        ([("constant", "inverse", True, [mat_identity(12), _cs(PAIRS)])], True),
        ([("tweedie_power", "inverse", False, car_components(3, 4), CAR_TAU)], True),
        ([("tweedie_power", "inverse", False, [mat_identity(12), _cs(PAIRS)])], True),
        ([("binomial", "inverse", True, car_components(3, 4), CAR_TAU)], True),
        ([("binomial", "inverse", True, [mat_identity(12), _cs(PAIRS)])], True),
        ([("poisson_tweedie", "inverse", False, [mat_identity(12), _cs(PAIRS)])], False),
        ([("tweedie_power", "identity", False, [mat_identity(12), _cs(PAIRS)])], False),
        ([("tweedie_power", "inverse", False, car_components(3, 4), CAR_TAU),
          ("constant", "identity", True, [mat_identity(12), _cs(PAIRS)])], False),
    ],
    ids=[
        "inverse-constant-block", "inverse-constant-units", "inverse-tweedie-block",
        "inverse-tweedie-units", "inverse-binomial-block", "inverse-binomial-units",
        "inverse-poisson-tweedie", "identity", "two-responses",
    ],
)
def test_A_units_equal_C_inv_dC_units(responses, precise):
    # A_i = C^{-1} dC_i = S^{-1} A_Omega,i S; "precise" when C_Omega^{-1} is U itself
    model, y, theta = build_model(12, responses, 10)
    state = build_state(model, y, theta)
    cov, s = state.covariance, state.scale
    jc, dC = dense_covariance(model, state.mu, theta.lam)
    for i, dC_i in enumerate(dC):
        A = scatter(state, [A[i] for A in cov.A_units]) * np.outer(1.0 / s, s)
        assert rel_err(A, jc.C_inv @ dC_i) < 1e-12
    tau = model.split_lambda(theta.lam)[2][0]
    for grp, g in zip(model.unit_groups, cov.groups):
        U = assemble_U(tau, grp.predictors[0])
        assert (g.R == 1 and g.C_inv.shape == U.shape and np.array_equal(g.C_inv, U)) == precise
        if g.R == 1:
            sigma = g.responses[0].sigma
            assert rel_err(g.C_inv, symmetric_inverse(sigma)) < 1e-12
            assert rel_err(g.C_chol @ np.swapaxes(g.C_chol, -1, -2), sigma) < 1e-12


def test_derivative_report_reads_A_dtau(monkeypatch):
    # derivative_report checks each lambda dC_i as C A_i, so a wrong A_dtau shows under tau
    comps = car_components(6, 8)
    model, y, theta = build_model(48, [("constant", "inverse", True, comps, CAR_TAU)], 12)
    assert derivative_report(model, y, theta)["tau"] < 1e-6
    original = mcglm.estfun.A_dtau
    monkeypatch.setattr(mcglm.estfun, "A_dtau", lambda *args: -original(*args))
    assert derivative_report(model, y, theta)["tau"] > 1e-5


@pytest.mark.parametrize(
    "responses, per_state",
    [
        ([("constant", "identity")], 1),           # Sigma_1 only: no joint factor
        ([("constant", "inverse")], 1),            # U_1 only: Sigma_1^{-1} is read off it
        ([("constant", "identity")] * 2, 3),       # Sigma_1, Sigma_2 and Sigma_b
        ([("constant", "inverse")] * 2, 5),
    ],
)
def test_cholesky_calls_per_build_state(monkeypatch, responses, per_state):
    groups = [0, 0, 1, 1, 1, 1]  # two unit sizes, so each count is taken twice
    model, y, theta = build_model(
        6, [(kind, cov, True, [mat_identity(6), _cs(groups)]) for kind, cov in responses], 9
    )
    calls = []
    original = mcglm.functions.cholesky_lower

    def counted(M):
        calls.append(M.shape)
        return original(M)

    monkeypatch.setattr(mcglm.functions, "cholesky_lower", counted)
    monkeypatch.setattr(mcglm.covariance, "cholesky_lower", counted)
    state = build_state(model, y, theta)
    assert len(calls) == 2 * per_state
    if model.R == 1:
        for joint in state.covariance.groups:
            assert np.array_equal(joint.C_chol, joint.responses[0].chol)


def test_fit_does_not_load_csgraph():
    code = (
        "import sys\n"
        "from helpers import gaussian_two_response\n"
        "from mcglm import SimSpec, fit, simulate_gaussian\n"
        "model, theta = gaussian_two_response(N=20, seed=1)\n"
        "fit(model, simulate_gaussian(SimSpec(model, theta, 1, seed=1))[0])\n"
        "print('scipy.sparse.csgraph' in sys.modules)\n"
    )
    env_path = f"{ROOT / 'src'}:{ROOT / 'tests'}"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": env_path, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
