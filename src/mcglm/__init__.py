"""Multivariate covariance generalized linear models.

Joint mean/covariance modelling from second-moment assumptions: link
and variance functions for the mean, a covariance link with a matrix
linear predictor for the dependence structure, coupled across responses
by a generalized Kronecker product and fitted by Newton-scoring
estimating functions with Godambe sandwich standard errors.
"""

import importlib

# submodule -> the public names it defines. Nothing is imported until a
# name is first used (PEP 562), so ``import mcglm.cli`` loads no numpy
# and ``mcglm --threads`` can still set the BLAS thread count.
_EXPORTS = {
    "covariance": (
        "JointCovariance",
        "ResponseCovariance",
        "build_sigma_r",
        "generalized_kronecker",
        "sigma_b_from_rho",
    ),
    "errors": (
        "ConvergenceError",
        "DomainError",
        "FactorizationError",
        "McglmError",
        "SingularMatrixError",
        "StepFailureError",
    ),
    "estfun": ("EstimatingState", "GodambeResult", "build_godambe", "build_state"),
    "functions": ("CovLinkSpec", "LinkSpec", "VarianceSpec"),
    "matpred": (
        "MatrixPredictor",
        "StructureMatrix",
        "assemble_U",
        "mat_compound_symmetry",
        "mat_identity",
        "mat_inverse_distance",
        "mat_kronecker",
        "mat_neighborhood",
        "mat_pair_indicator",
    ),
    "model": ("ModelSpec", "ResponseSpec", "ThetaPartition", "make_theta"),
    "simulate": ("SimSpec", "simulate_counts_marginal", "simulate_gaussian"),
    "solver": (
        "FitResult",
        "SolverOptions",
        "chaser_step",
        "fit",
        "initialize",
        "reciprocal_step",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = set(_EXPORTS) | {"checks", "cli"}

__version__ = "0.1.0"

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
