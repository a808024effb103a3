"""Random block tridiagonal ensembles, matrix orthogonal polynomial roots,
and their limiting spectral densities."""

from .ensemble import (
    EmpiricalSpectrum,
    GammaWeights,
    RngSeed,
    build_F,
    build_G,
    rng_from_seed,
)
from .errors import (
    ConvergenceError,
    NotPositiveDefiniteError,
    NumericalError,
    ValidationError,
)
from .harness import (
    ExperimentConfig,
    GapReport,
    approx_gap,
    empirical_spectrum,
    gap_report,
    ks_distance,
    levy_cubed_bound,
    tail_bound_experiment,
)
from .linalg import (
    EigenDecomposition,
    SymmetricBanded,
    eigh_banded,
    eigh_dense,
    spd_inv_sqrt,
)
from .matrixpoly import (
    RecurrenceCoeffs,
    cheb_T,
    cheb_U,
    eval_R,
    markov_bound_check,
    recurrence_coeffs,
    roots,
)
from .spectral import (
    LimitModel,
    SpectralDensity,
    arcsine_mixture_density,
    density_grid,
    limit_density,
    oracle_density,
    semicircle_density,
    support_bound,
)

__version__ = "0.1.0"
