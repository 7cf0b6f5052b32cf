"""Log-densities of CGF-specified distributions via saddlepoint-adjusted inversion."""

from .cgf import (
    CgfModel,
    DomainInterval,
    Line,
    QuadratureSpec,
    standardized_tilted_cf,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InversionError,
    ParseError,
    SpinvError,
    UnattainableMeanError,
    ValidationError,
)
from .estimation import (
    FAMILIES,
    Family,
    FitResult,
    GbmParams,
    ParamTransform,
    ProfilePoint,
    ReturnSeries,
    fit_mle,
    hessian_std_errors,
    kl_asymptotic_estimator,
    moment_init,
    negative_log_likelihood,
    profile_nll,
    transform_for,
)
from .inversion import (
    DEFAULT_DIRECT_QUAD,
    direct_ift_log_density_batch,
    log_density_terms,
    p_bar_zero_batch,
    spa_log_density,
    spa_log_density_batch,
    spi_log_density,
    spi_log_density_batch,
)
from .models import (
    Gaussian,
    GaussianParams,
    MjdParams,
    MjdTransition,
    Nig,
    NigParams,
    gaussian_log_density,
    mjd_truncated_log_density,
    nig_exact_log_density,
    nig_moments,
    simulate_mjd_path,
    simulate_nig,
)
from .saddlepoint import (
    SaddlepointBatch,
    solve_saddlepoint,
    solve_saddlepoint_batch,
)

__version__ = "0.1.0"
