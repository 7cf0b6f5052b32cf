"""Cumulant generating function interface and the standardized tilted CF.

Exponentially tilting X by tau in the interior of Omega gives a variable
X(tau) with CGF K(t + tau) - K(tau). Standardizing the tilted variable so
that it has mean zero and unit variance at t = 0 yields the characteristic
function the inversion integral consumes:

    cf(s) = exp( -K(tau) - i*s*x0/sqrt(K''(tau)) + K(tau + i*s/sqrt(K''(tau))) )

Models implement K directly over complex arguments; the inversion contour
runs vertically through the tilt point, where the real part of the CGF
argument stays fixed at tau. standardized_tilted_cf builds that contour
from its real and imaginary parts and finishes the exponent in the array
k_complex returns, so k_complex must hand back a new array (see
CgfModel.k_complex). K''(tau) comes from the caller, which took it with
K'(tau) in one k1_k2 call or from the saddlepoint solver. How fast the CF
decays sets the error of the rule that inverts it, so each model states
its SPI rule (CgfModel.spi_quad, a QuadratureSpec).
"""

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InversionError, ValidationError


@dataclass(frozen=True)
class QuadratureSpec:
    """A rule on [0, upper_limit] with n_points evaluations, n_points odd.

    SPI takes the trapezoid rule on these points, direct IFT Simpson's.
    The count is odd so that the even-indexed points form the trapezoid
    rule of twice the step: the core's step error indicator at no extra
    CF cost, and the other half of Simpson's rule (inversion._even_odd).
    An even n_points is bumped up by one; asking for 512 runs 513.
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
    together (k1_k2), K over complex arguments whose real part lies inside
    the domain (k_complex), and the domain. All evaluation methods are
    vectorized over their argument. k1 and k2 each read one half of
    k1_k2; the solver and the inversion core call k1_k2 and carry K''
    on from there, so neither takes K'' again at a point where it has it.

    saddlepoint_start is where the saddlepoint solver starts. A subclass
    whose K' inverts in closed form may override it with the exact root;
    the solver still checks the residual there, and iterates from it only
    when the tolerance is not met. spi_quad is the SPI rule taken wherever
    none is given; a subclass whose CF decays sooner states a shorter one.
    """

    spi_quad = QuadratureSpec(100.0, 513)

    @abstractmethod
    def k(self, t):
        """K(t) for real t inside the domain."""

    @abstractmethod
    def k_complex(self, z):
        """K(z) for complex z; only ever called with re(z) inside the domain.

        Returns a new complex array of z's shape that shares no memory
        with z or with the model: standardized_tilted_cf overwrites it.
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


def char_fn(model: CgfModel, s):
    """Characteristic function phi(s) = exp(K(i s)), vectorized over s."""
    val = np.exp(model.k_complex(1j * np.asarray(s, dtype=float)))
    if not np.all(np.isfinite(val.real)) or not np.all(np.isfinite(val.imag)):
        bad = np.atleast_1d(s)[np.flatnonzero(~np.isfinite(np.atleast_1d(val)))[0]]
        raise InversionError(f"characteristic function not finite at s = {bad}")
    return val


def standardized_tilted_cf(model: CgfModel, tau_hat, k2, x0, s):
    """CF of the standardized tilted variable, evaluated at real s.

    With tau_hat solving K'(tau_hat) = x0 and k2 = K''(tau_hat), which the
    caller took with K' there, this is the CF of
    (X(tau_hat) - x0) / sqrt(K''(tau_hat)); its value at s = 0 is 1.
    tau_hat, k2 and x0 may be column arrays, one row per point, which
    broadcast against s. Entries that overflow are returned as they are.
    """
    k2 = np.asarray(k2, dtype=float)
    if not np.all(k2 > 0.0):
        raise DomainError(f"K'' must be positive at the tilt, got {np.min(k2)}")
    # the contour z = tau_hat + i*y, y = s / sqrt(K''); no complex temporaries
    y = np.asarray(s, dtype=float) / np.sqrt(k2)
    z = np.empty(np.broadcast(tau_hat, x0, y).shape, dtype=complex)
    z.real = tau_hat
    z.imag = y
    # w = K(z) - K(tau_hat) - i*y*x0, finished in the new array k_complex returns
    w = np.asarray(model.k_complex(z))
    w.real -= model.k(tau_hat)
    w.imag -= y * x0
    return np.exp(w, out=w)
