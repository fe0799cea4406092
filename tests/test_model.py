"""theta's layout: one table behind split, pack, the index map and the names."""

import numpy as np
import pytest

from mcglm import (
    CovLinkSpec,
    LinkSpec,
    MatrixPredictor,
    ModelSpec,
    ResponseSpec,
    VarianceSpec,
    mat_compound_symmetry,
    mat_identity,
)
from mcglm.errors import DomainError

N = 6


def three_response_model():
    """R = 3, free rho; y0 has a free power, y1 a fixed one; D + 1 is 1, 2 and 3."""
    cs_a = mat_compound_symmetry(np.arange(N) // 2)
    cs_b = mat_compound_symmetry(np.arange(N) // 3)
    X = np.column_stack([np.ones(N), np.arange(N, dtype=float)])
    resp = [
        ("tweedie_power", False, X, (mat_identity(N),)),
        ("tweedie_power", True, X[:, :1], (mat_identity(N), cs_a)),
        ("constant", True, X, (mat_identity(N), cs_a, cs_b)),
    ]
    return ModelSpec(tuple(
        ResponseSpec(
            f"y{r}", LinkSpec("log"), VarianceSpec(kind, power_known=known),
            CovLinkSpec("identity"), design, MatrixPredictor(comps), power_value=1.5,
        )
        for r, (kind, known, design, comps) in enumerate(resp)
    ))


class TestLayout:
    def test_pack_split_round_trip_and_names_follow_the_map(self):
        model = three_response_model()
        assert model.layout is model.layout
        rho, p = np.array([0.1, -0.2, 0.3]), np.array([1.3, 1.9, 1.0])
        tau = [np.array([2.0]), np.array([1.0, 0.2]), np.array([0.5, 0.1, -0.1])]
        lam = model.pack_lambda(rho, p, tau)
        assert lam.tolist() == [0.1, -0.2, 0.3, 1.3, 2.0, 1.0, 0.2, 0.5, 0.1, -0.1]
        rho2, p2, tau2 = model.split_lambda(lam)
        assert rho2.tolist() == rho.tolist()
        assert p2.tolist() == [1.3, 1.5, 1.5]  # the fixed powers keep their values
        assert [t.tolist() for t in tau2] == [t.tolist() for t in tau]
        assert model.pack_lambda(rho2, p2, tau2).tolist() == lam.tolist()

        assert model.K == 5 and model.Q == lam.size
        assert [s.indices(model.K) for s in model.beta_slices()] == [
            (0, 2, 1), (2, 3, 1), (3, 5, 1)
        ]
        assert list(model.lambda_index_map()) == [
            ("rho", 0, None), ("rho", 1, None), ("rho", 2, None), ("power", 0, None),
            ("tau", 0, 0), ("tau", 1, 0), ("tau", 1, 1), ("tau", 2, 0), ("tau", 2, 1),
            ("tau", 2, 2),
        ]
        assert model.parameter_names()[model.K :] == [
            "rho(y1,y0)", "rho(y2,y0)", "rho(y2,y1)", "y0:p", "y0:tau0", "y1:tau0",
            "y1:tau1", "y2:tau0", "y2:tau1", "y2:tau2",
        ]

    @pytest.mark.parametrize("rho, p, tau, message", [
        ([0.1, 0.2, 0.3], [1.3, 1.5, 1.0], [[2.0], [1.0, 0.2], [0.5, 0.1]], "tau for 'y2'"),
        ([0.1, 0.2, 0.3], [1.3, 1.5, 1.0], [[2.0], [1.0, 0.2]], "tau has 2 blocks"),
        ([0.1, 0.2, 0.3], [1.3], [[2.0], [1.0, 0.2], [0.5, 0.1, 0.0]], "p has length 1"),
        ([0.1, 0.2], [1.3, 1.5, 1.0], [[2.0], [1.0, 0.2], [0.5, 0.1, 0.0]], "rho has length 2"),
    ], ids=["short-tau", "missing-tau-block", "short-p", "short-rho"])
    def test_pack_names_a_block_of_the_wrong_length(self, rho, p, tau, message):
        with pytest.raises(DomainError, match=message):
            three_response_model().pack_lambda(rho, p, tau)


def test_design_without_columns_is_rejected():
    with pytest.raises(DomainError, match="response 'y': design has no columns"):
        ResponseSpec("y", LinkSpec("identity"), VarianceSpec("constant"), CovLinkSpec("identity"),
                     np.zeros((N, 0)), MatrixPredictor((mat_identity(N),)))
