"""Exception hierarchy for the mcglm package."""


class McglmError(Exception):
    """Base class for all mcglm errors."""


class DomainError(McglmError, ValueError):
    """Input outside the admissible domain of a function family."""


class FactorizationError(McglmError):
    """A Cholesky factorization failed (matrix not positive definite).

    ``pivot`` is the 1-based index of the first non-positive pivot when
    known, else None.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class SingularMatrixError(McglmError):
    """A matrix required to be invertible is (numerically) singular."""


class StepFailureError(McglmError):
    """A solver step could not be completed."""


class ConvergenceError(McglmError):
    """The solver failed to converge."""
