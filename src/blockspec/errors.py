"""Exception hierarchy shared by the library and the CLI.

ValidationError covers bad user input (CLI exit code 2), NumericalError
covers failures of the numerics themselves (CLI exit code 3).
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NumericalError(RuntimeError):
    """A numerical routine failed (non-convergence, normalization breach)."""


class ConvergenceError(NumericalError):
    """An eigensolver failed to converge or missed its residual check."""


class NotPositiveDefiniteError(NumericalError):
    """A matrix required to be positive definite is not."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue
