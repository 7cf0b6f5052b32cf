"""Cumulant generating function interface, the SPI integrand and the standardized tilted CF.

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
K(tau) cancels without being taken. Every SPI rule sums one integrand,
Re exp(K(c + iy) - K(c) - iy*x0) = exp(Re)*cos(Im - y*x0), which
line_integrand finishes in the two new arrays k_complex returns, with no
complex array. At c = tau and y = s/sqrt(K''(tau)) it is the real part of
cf (standardized_tilted_cf); K''(tau) comes from the caller, which took
it with K'(tau) in one k1_k2 call or from the saddlepoint solver.

How fast the CF decays, and how far K is analytic off the real axis, set
the error of the rule that inverts it. A model may state a fixed SPI rule
(CgfModel.spi_quad, a QuadratureSpec); by default it states none
(spi_quad = None), and SPI takes its contour rule, which sets each line,
step and length from K itself, where the domain has a finite end, and
a fixed default rule where it has none (inversion._spi_rule).
"""

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InversionError, ValidationError


@dataclass(frozen=True)
class QuadratureSpec:
    """A rule on [0, upper_limit] with n_points evaluations, n_points odd.

    SPI takes the trapezoid rule on these points, direct IFT and the KL
    experiment's window Simpson's; each takes the points and their step
    from grid. The count is odd so that the even-indexed points form the
    trapezoid rule of twice the step: the core's step error indicator at
    no extra CF cost, and the other half of Simpson's rule, both read off
    the one sum of every rule (inversion._even_odd). An even n_points is
    bumped up by one; asking for 512 runs 513.
    """

    upper_limit: float
    n_points: int

    def __post_init__(self):
        if not (self.upper_limit > 0.0 and math.isfinite(self.upper_limit)):
            raise ValidationError(f"upper_limit must be positive and finite, got {self.upper_limit}")
        if self.n_points < 3:
            raise ValidationError(f"n_points must be at least 3, got {self.n_points}")
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


def log_char_fn(model: CgfModel, s):
    """(Re, Im) of log phi(s) = K(i s), vectorized over s: the increment on Line(0, s).

    Raises InversionError at the first s where either part is not finite.
    """
    s = np.asarray(s, dtype=float)
    re, im = model.k_complex(Line(0.0, np.atleast_1d(s)))
    bad = np.flatnonzero(~(np.isfinite(re) & np.isfinite(im)))
    if bad.size:
        raise InversionError(f"characteristic function not finite at s = {np.atleast_1d(s)[bad[0]]}")
    return re.reshape(s.shape), im.reshape(s.shape)


def char_fn(model: CgfModel, s):
    """Characteristic function phi(s) = exp(K(i s)), vectorized over s, from log_char_fn."""
    re, im = log_char_fn(model, s)
    return np.exp(re) * (np.cos(im) + 1j * np.sin(im))


def line_integrand(model: CgfModel, c, x0, y):
    """Re exp(K(c + iy) - K(c) - iy*x0) at the points c + iy: the integrand of every SPI rule.

    y is a float array of the points' shape, which this overwrites; c and
    x0 broadcast against it. The result, exp(Re)*cos(Im - y*x0) with
    (Re, Im) = model.k_complex(Line(c, y)), is finished in the two new
    arrays k_complex returns, with no complex array. Entries that overflow
    are returned as they are.
    """
    re, im = model.k_complex(Line(c, y))
    y *= x0
    im -= y
    np.cos(im, out=im)
    np.exp(re, out=re)
    re *= im
    return re


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
    if y.shape != shape or not shape:
        y = np.broadcast_to(y, shape or (1,)).copy()
    return line_integrand(model, tau_hat, x0, y).reshape(shape)
