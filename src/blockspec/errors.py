"""Exception hierarchy shared by the library and the CLI.

ValidationError covers input that violates a documented precondition (CLI
exit code 2).  That includes a matrix that is not positive definite where
one must be (`linalg.spd_inv_sqrt`), so gamma weights whose A0 is singular
or indefinite are rejected by `spectral.limit_blocks` before any solve.
NumericalError covers failures of the numerics themselves (CLI exit
code 3).
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NumericalError(RuntimeError):
    """A numerical routine failed (non-convergence, normalization breach)."""


class ConvergenceError(NumericalError):
    """An eigensolver failed to converge or missed its residual check."""
