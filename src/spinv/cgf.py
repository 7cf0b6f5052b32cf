"""Cumulant generating function interface, the one Fourier integrand and the standardized tilted CF.

Exponentially tilting X by tau in the interior of Omega gives a variable
X(tau) with CGF K(t + tau) - K(tau). Standardizing the tilted variable so
that it has mean zero and unit variance at t = 0 yields the characteristic
function the inversion integral consumes:

    cf(s) = exp( K(tau + i*y) - K(tau) - i*y*x0 ),   y = s/sqrt(K''(tau)).

The package takes K off the real axis only on vertical lines c + iy: the
line through the tilt (c = tau), SPI's contour moved off it to any c
inside the domain, and the imaginary axis of the plain CF (c = 0). So a
model states K there as the increment K(c + iy) - K(c), in real and
imaginary parts (CgfModel.k_complex on a Line), in real arithmetic, and
K(tau) cancels without being taken. Every Fourier rule, SPI's and
direct IFT's, sums one integrand, Re exp(K(c + iy) - K(c) - iy*x0) =
exp(Re)*cos(Im - y*x0), which line_integrand alone finishes from the
arrays k_complex returns, with no complex array. At c = tau and
y = s/sqrt(K''(tau)) it is the real part of cf (standardized_tilted_cf);
K''(tau) comes from the caller, which took it with K'(tau) in one k1_k2
call or from the saddlepoint solver. At c = 0 it is Re phi(y) exp(-iyx),
the integrand of direct IFT, on one line that every point shares.

How fast the CF decays, and how far K is analytic off the real axis, set
the error of the rule that inverts it. A model may state a fixed SPI rule
(CgfModel.spi_quad, a QuadratureSpec); by default it states none
(spi_quad = None), and SPI takes its contour rule, which sets each line,
step and length from K itself, where the domain has a finite end, and
a fixed default rule where it has none (inversion._spi_rule).

Each kind of input has one check, made where it enters: a parameter is a
finite number, positive or non-negative where its record says so
(check_value, check_fields), and the points of a batch are a 1-d array
of finite numbers (finite_points). Else ValidationError names the input.
"""

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ValidationError


def check_value(name: str, value, sign: str = None):
    """Raise ValidationError "name must be [sign and ]finite, got value" unless value
    is finite and, for sign "positive" or "non-negative", of that sign."""
    if not (math.isfinite(value) and (sign is None or value > 0.0 or (sign == "non-negative" and value == 0.0))):
        raise ValidationError(f"{name} must be {sign + ' and ' if sign else ''}finite, got {value}")


def derived_value(name: str, compute, params):
    """compute(), the value name takes at the params record, where finite; else ValidationError
    "name overflows at params": a power or math.exp raises OverflowError, a sum or product gives inf."""
    try:
        value = compute()
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise ValidationError(f"{name} overflows at {params}")


def check_fields(record, positive=(), non_negative=()):
    """check_value on every field of the dataclass record, with the sign its name is listed under."""
    for f in fields(record):
        sign = "positive" if f.name in positive else "non-negative" if f.name in non_negative else None
        check_value(f.name, getattr(record, f.name), sign)


def finite_points(x, name: str = "x") -> np.ndarray:
    """x as a 1-d float array of finite points, the one form a batch takes; else ValidationError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"{name} must be a 1-d array of points, got {x.ndim} dimensions")
    if not np.isfinite(x).all():
        i = int(np.flatnonzero(~np.isfinite(x))[0])
        raise ValidationError(f"{name} must be finite, got {name}[{i}] = {x[i]}")
    return x


@dataclass(frozen=True)
class QuadratureSpec:
    """A rule on [0, upper_limit] with n_points evaluations, n_points odd.

    SPI takes the trapezoid rule on these points, direct IFT and the KL
    experiment's window Simpson's; each takes the points and their step
    from grid. The count is odd so that the even-indexed points form the
    trapezoid rule of twice the step: the core's step error indicator at
    no extra CF cost, and the other half of Simpson's rule, both read off
    the one sum of every Fourier rule (inversion._even_odd); the KL window
    takes scipy's. An even n_points is bumped up by one; 512 runs 513.
    """

    upper_limit: float
    n_points: int

    def __post_init__(self):
        check_value("upper_limit", self.upper_limit, "positive")
        if not (isinstance(self.n_points, (int, np.integer)) and self.n_points >= 3):
            raise ValidationError(f"n_points must be an integer of at least 3, got {self.n_points}")
        if self.n_points % 2 == 0:
            object.__setattr__(self, "n_points", self.n_points + 1)

    def grid(self):
        """(points, step): the n_points evenly spaced points of [0, upper_limit], ends included."""
        return np.linspace(0.0, self.upper_limit, self.n_points), self.upper_limit / (self.n_points - 1)


class Line:
    """Points c + iy on vertical lines of the complex plane, in real arithmetic.

    c holds the real part of each line: a scalar, or a column with one
    row per line. y holds the imaginary offsets, a float array of at least
    one dimension with the shape of the points, which c broadcasts against.
    size counts the points.
    """

    __slots__ = ("c", "y")

    def __init__(self, c, y):
        self.c = np.asarray(c, dtype=float)
        self.y = np.asarray(y, dtype=float)

    @property
    def size(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class DomainInterval:
    """Open interval of CGF convergence; must contain 0."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < 0.0 < self.hi):
            raise DomainError(
                f"CGF domain ({self.lo}, {self.hi}) must contain 0 in its interior"
            )

    def contains(self, t):
        """Whether each t lies strictly inside the interval (never for NaN)."""
        return (self.lo < t) & (t < self.hi)


class CgfModel(ABC):
    """A distribution known through its cumulant generating function.

    A model states four things: K over the real domain (k), K' and K''
    together (k1_k2), the increment of K along vertical lines whose real
    part lies inside the domain (k_complex), and the domain. All
    evaluation methods are vectorized over their argument. k1 and k2 each
    read one half of k1_k2; the solver and the inversion core call k1_k2
    and carry K'' on from there, so neither takes K'' again at a point
    where it has it.

    saddlepoint_start is where the saddlepoint solver starts. A subclass
    whose K' inverts in closed form may override it with the exact root;
    the solver still checks the residual there, and iterates from it only
    when the tolerance is not met. spi_quad is the fixed SPI rule taken
    wherever none is given; None, the default, leaves the rule to the
    inversion core: the contour where the domain has a finite end. A
    subclass whose CF decays like a Gaussian's on an unbounded domain may
    state a short one, and one whose CF decays only like a power of |s|
    (a gamma law of shape below 4) must state one: the contour cannot
    cut such a CF within its 2^16 steps and marks the row unusable.
    """

    spi_quad = None

    @abstractmethod
    def k(self, t):
        """K(t) for real t inside the domain."""

    @abstractmethod
    def k_complex(self, line: Line):
        """(Re, Im) of K(c + iy) - K(c) at the points of line (a Line).

        Only ever called with every c inside the domain. Returns two new
        float arrays of the shape of line.y, which the caller may
        overwrite. At y = 0 both are 0, so K(c) itself is never needed.
        """

    @abstractmethod
    def k1_k2(self, t):
        """(K'(t), K''(t)) from one call; K'' is strictly positive on the domain."""

    @abstractmethod
    def domain(self) -> DomainInterval:
        """Open interval on which K is finite."""

    def k1(self, t):
        """K'(t), the first half of k1_k2."""
        return self.k1_k2(t)[0]

    def k2(self, t):
        """K''(t), the second half of k1_k2."""
        return self.k1_k2(t)[1]

    def saddlepoint_start(self, x, mean, variance):
        """Start of the solve of K'(t) = x, elementwise, strictly inside the domain.

        mean and variance are K'(0) and K''(0), which the solver has
        already taken. The default is the root of the quadratic CGF,
        (x - mean) / variance, kept at least 1% of the width from the ends
        of a bounded domain, and within half the finite bound of a
        half-bounded one.
        """
        dom = self.domain()
        t = (x - mean) / variance
        if math.isfinite(dom.lo) and math.isfinite(dom.hi):
            # keep the start away from the boundary singularities
            inset = 0.01 * (dom.hi - dom.lo)
            return np.clip(t, dom.lo + inset, dom.hi - inset)
        # half-bounded domains: 0.5 * bound is strictly interior since the
        # domain contains 0
        if math.isfinite(dom.hi):
            t = np.minimum(t, 0.5 * dom.hi)
        if math.isfinite(dom.lo):
            t = np.maximum(t, 0.5 * dom.lo)
        return t

    def mean(self) -> float:
        return float(self.k1(0.0))

    def variance(self) -> float:
        return float(self.k2(0.0))


def line_integrand(model: CgfModel, c, x0, y):
    """Re exp(K(c + iy) - K(c) - iy*x0) at the points c + iy: the integrand of every Fourier rule.

    The points lie on one line per row, y of their shape and c and x0
    columns that broadcast against it, or on one line that every row
    shares, c a scalar and y a row of points narrower than x0: direct
    IFT's s on c = 0 against a column of x. The result,
    exp(Re)*cos(Im - y*x0) with (Re, Im) = model.k_complex(Line(c, y)),
    is a new float array of the broadcast shape of y and x0, formed with
    no complex array; no argument is written. Entries that overflow are
    returned as they are.
    """
    re, im = model.k_complex(Line(c, y))
    out = np.multiply(y, x0)
    np.subtract(im, out, out=out)
    np.cos(out, out=out)
    out *= np.exp(re, out=re)
    return out


def standardized_tilted_cf(model: CgfModel, tau_hat, k2, x0, s):
    """Re cf(s), the real part of the CF of the standardized tilted variable, at real s.

    With tau_hat solving K'(tau_hat) = x0 and k2 = K''(tau_hat), which the
    caller took with K' there, cf is the CF of
    (X(tau_hat) - x0) / sqrt(K''(tau_hat)). Its real part (1 at s = 0) is
    line_integrand on the line through the tilt, c = tau_hat, at
    y = s/sqrt(k2), returned as a new float array. tau_hat, k2 and x0 may
    be column arrays, one row per point, which broadcast against s.
    """
    k2 = np.asarray(k2, dtype=float)
    if not np.all(k2 > 0.0):
        raise DomainError(f"K'' must be positive at the tilt, got {np.min(k2)}")
    y = np.asarray(s, dtype=float) * (1.0 / np.sqrt(k2))
    shape = np.broadcast_shapes(np.shape(tau_hat), np.shape(x0), y.shape)
    # k_complex returns arrays of y's shape, of at least one dimension
    if y.shape != shape or not shape:
        y = np.broadcast_to(y, shape or (1,))
    return line_integrand(model, tau_hat, x0, y).reshape(shape)
