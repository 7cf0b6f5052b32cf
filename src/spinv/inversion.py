"""Log-density evaluators: tilted inversion (SPI), SPA, and direct IFT.

All three share the decomposition

    log p(x0) = [K(tau) - tau*x0] + [-1/2 log K''(tau)] + log p_bar(0)

where p_bar is the density of the standardized tilted variable at zero.
SPI computes p_bar(0) by Fourier inversion of a CF that is real, positive
and Gaussian-like, so a fixed-range Simpson rule converges fast. SPA
replaces p_bar(0) with the standard normal value (2*pi)^{-1/2}, exact only
for Gaussians. Direct IFT inverts the raw characteristic function, whose
oscillatory integrand degrades in the tails; its result is clamped at
1e-14 before the log, reproducing that failure mode on purpose.

Every p_bar(0) comes from one batch core, p_bar_zero_batch, which works
through its rows in blocks and marks unusable rows instead of raising.
The scalar evaluators are views of the batch ones: spi_log_density and
spa_log_density solve one saddlepoint (keeping its iteration count) and
run the core on that one row, and direct_ift_log_density is one row of
direct_ift_log_density_batch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cgf import CgfModel, char_fn, standardized_tilted_cf
from .errors import InversionError, QuadratureError, ValidationError
from .models import MjdTransition
from .saddlepoint import SaddlepointSolution, solve_saddlepoint, solve_saddlepoint_batch

_DENSITY_FLOOR = 1e-14
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
# CF entries per block of the core: the CF matrix of a block stays in
# cache, and peak memory does not grow with the number of rows
_BLOCK_ENTRIES = 8192


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Simpson rule on [0, upper_limit] with n_points evaluations.

    Simpson needs an even subinterval count, so an even n_points is bumped
    up by one; asking for 512 runs 513 evaluations.
    """

    upper_limit: float
    n_points: int

    def __post_init__(self):
        if not self.upper_limit > 0.0:
            raise ValidationError(f"upper_limit must be positive, got {self.upper_limit}")
        if self.n_points < 3:
            raise ValidationError(f"n_points must be at least 3, got {self.n_points}")
        if self.n_points % 2 == 0:
            object.__setattr__(self, "n_points", self.n_points + 1)


DEFAULT_DIRECT_QUAD = QuadratureSpec(150.0, 512)
DEFAULT_SPI_QUAD = QuadratureSpec(100.0, 512)
MJD_SPI_QUAD = QuadratureSpec(16.0, 128)


def default_spi_quad(model: CgfModel) -> QuadratureSpec:
    """Per-model SPI quadrature: MJD_SPI_QUAD for MJD transitions, else DEFAULT_SPI_QUAD."""
    return MJD_SPI_QUAD if isinstance(model, MjdTransition) else DEFAULT_SPI_QUAD


@dataclass(frozen=True)
class LogDensityResult:
    log_density: float
    tilt_term: float
    jacobian_term: float
    log_p_bar: float
    saddlepoint: SaddlepointSolution


def _simpson_weights(n_points: int) -> np.ndarray:
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _simpson_rows(vals: np.ndarray, quad: QuadratureSpec) -> np.ndarray:
    """(1/pi) * Simpson over [0, upper_limit] of each row of vals."""
    h = quad.upper_limit / (quad.n_points - 1)
    return h / 3.0 * vals.dot(_simpson_weights(quad.n_points)) / math.pi


def simpson_integrate(f, a: float, b: float, n_points: int) -> float:
    """Composite Simpson on [a, b]; f must be vectorized over an array of abscissae."""
    if not b > a:
        raise ValidationError(f"need a < b, got [{a}, {b}]")
    if n_points < 3:
        raise ValidationError(f"n_points must be at least 3, got {n_points}")
    n = n_points + 1 if n_points % 2 == 0 else n_points
    xs = np.linspace(a, b, n)
    vals = np.asarray(f(xs), dtype=float)
    if not np.isfinite(vals).all():
        i = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise QuadratureError("integrand not finite", abscissa=float(xs[i]))
    h = (b - a) / (n - 1)
    return float(h / 3.0 * np.dot(_simpson_weights(n), vals))


def p_bar_zero_batch(
    model: CgfModel, x: np.ndarray, tau: np.ndarray, quad: QuadratureSpec
) -> np.ndarray:
    """p_bar(0) at each point x with solved saddlepoint tau: the batch core.

    Simpson on the real part of the standardized tilted CF, over blocks of
    about _BLOCK_ENTRIES CF entries. Nothing is raised for a bad row: a
    p_bar(0) that is not finite or not positive is returned as it is, and
    each caller decides what to do with it (see p_bar_error).
    """
    s = np.linspace(0.0, quad.upper_limit, quad.n_points)
    rows = max(1, _BLOCK_ENTRIES // quad.n_points)
    out = np.empty(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, x.size, rows):
            b = slice(lo, lo + rows)
            cf = standardized_tilted_cf(model, tau[b, None], x[b, None], s)
            out[b] = _simpson_rows(cf.real, quad)
    return out


def p_bar_error(p_bar: float, where: str):
    """Why a p_bar(0) value is unusable, or None when it is finite and positive."""
    if not math.isfinite(p_bar):
        return f"standardized tilted CF not finite {where}"
    if not p_bar > 0.0:
        return (
            f"p_bar(0) = {p_bar:.3e} is not positive {where}; "
            "quadrature spec inadequate for this model"
        )
    return None


def log_density_terms(
    model: CgfModel, x: np.ndarray, method: str = "spi", quad: QuadratureSpec = None
):
    """(tilt_term, jacobian_term, p_bar) arrays over x, from one batch pass.

    method "spa" takes p_bar(0) = (2 pi)^{-1/2}; "spi" takes it from the
    core, bad rows included. Only the batch saddlepoint solve raises.
    """
    x = np.asarray(x, dtype=float)
    tau = solve_saddlepoint_batch(model, x)
    tilt_term = np.asarray(model.k(tau), dtype=float) - tau * x
    jacobian_term = -0.5 * np.log(np.asarray(model.k2(tau), dtype=float))
    if method == "spa":
        return tilt_term, jacobian_term, np.full(x.shape, math.exp(-_LOG_SQRT_TWO_PI))
    if quad is None:
        quad = default_spi_quad(model)
    return tilt_term, jacobian_term, p_bar_zero_batch(model, x, tau, quad)


def spi_log_density_batch(
    model: CgfModel, x: np.ndarray, quad: QuadratureSpec = None
) -> np.ndarray:
    """SPI log-density over many points of one model, in one batch pass.

    Likelihood evaluation calls this once per optimizer step. Raises
    InversionError for the first point whose p_bar(0) is unusable.
    """
    x = np.asarray(x, dtype=float)
    tilt_term, jacobian_term, p_bar = log_density_terms(model, x, "spi", quad)
    bad = np.flatnonzero(~(np.isfinite(p_bar) & (p_bar > 0.0)))
    if bad.size:
        i = int(bad[0])
        raise InversionError(p_bar_error(p_bar[i], f"for observation {i} (x = {x[i]})"))
    return tilt_term + jacobian_term + np.log(p_bar)


def p_bar_zero(
    model: CgfModel, sp: SaddlepointSolution, x0: float, quad: QuadratureSpec = None
) -> float:
    """Density of the standardized tilted variable at zero: one row of the core."""
    if quad is None:
        quad = default_spi_quad(model)
    x, tau = np.array([x0], dtype=float), np.array([sp.tau_hat])
    val = float(p_bar_zero_batch(model, x, tau, quad)[0])
    error = p_bar_error(val, f"at x0 = {x0}")
    if error:
        raise InversionError(error)
    return val


def _result(sp: SaddlepointSolution, x0: float, log_p_bar: float) -> LogDensityResult:
    tilt_term = sp.k_at - sp.tau_hat * x0
    jacobian_term = -0.5 * math.log(sp.k2_at)
    return LogDensityResult(
        log_density=tilt_term + jacobian_term + log_p_bar,
        tilt_term=tilt_term,
        jacobian_term=jacobian_term,
        log_p_bar=log_p_bar,
        saddlepoint=sp,
    )


def spi_log_density(
    model: CgfModel, x0: float, quad: QuadratureSpec = None
) -> LogDensityResult:
    """Saddlepoint-adjusted inversion: exact up to quadrature error."""
    x0 = float(x0)
    sp = solve_saddlepoint(model, x0)
    return _result(sp, x0, math.log(p_bar_zero(model, sp, x0, quad)))


def spa_log_density(model: CgfModel, x0: float) -> LogDensityResult:
    """Classical saddlepoint approximation; no quadrature involved."""
    x0 = float(x0)
    return _result(solve_saddlepoint(model, x0), x0, -_LOG_SQRT_TWO_PI)


def spa_log_density_batch(model: CgfModel, x: np.ndarray) -> np.ndarray:
    """SPA log-density over many points of one model."""
    x = np.asarray(x, dtype=float)
    tau = solve_saddlepoint_batch(model, x)
    k_at = np.asarray(model.k(tau), dtype=float)
    k2_at = np.asarray(model.k2(tau), dtype=float)
    return k_at - tau * x - 0.5 * np.log(2.0 * math.pi * k2_at)


def direct_ift_log_density_batch(
    model: CgfModel, x: np.ndarray, quad: QuadratureSpec = None
) -> np.ndarray:
    """Plain Fourier inversion, no tilting, over many points; floored at 1e-14."""
    if quad is None:
        quad = DEFAULT_DIRECT_QUAD
    x = np.asarray(x, dtype=float)
    s = np.linspace(0.0, quad.upper_limit, quad.n_points)
    phi = char_fn(model, s)
    vals = (phi[None, :] * np.exp(-1j * np.outer(x, s))).real
    return np.log(np.maximum(_DENSITY_FLOOR, _simpson_rows(vals, quad)))


def direct_ift_log_density(
    model: CgfModel, x0: float, quad: QuadratureSpec = None
) -> float:
    """Direct IFT at one point: one row of direct_ift_log_density_batch."""
    return float(direct_ift_log_density_batch(model, np.array([x0], dtype=float), quad)[0])
