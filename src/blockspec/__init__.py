"""Random block tridiagonal ensembles, matrix orthogonal polynomial roots,
and their limiting spectral densities."""

from .ensemble import (
    EmpiricalSpectrum,
    GammaWeights,
    RngSeed,
    build_G,
    rng_from_seed,
)
from .errors import ConvergenceError, NumericalError, ValidationError
from .harness import (
    approx_gap,
    empirical_spectrum,
    gap_report,
    ks_distance,
    levy_cubed_bound,
    tail_bound_experiment,
)
from .linalg import BlockTridiagonal, eigh_banded, spd_inv_sqrt
from .matrixpoly import (
    RecurrenceCoeffs,
    recurrence_coeffs,
    roots,
)
from .spectral import (
    SpectralDensity,
    arcsine_mixture_density,
    density_grid,
    limit_blocks,
    oracle_density,
    semicircle_density,
)

__version__ = "0.1.0"
