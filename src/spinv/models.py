"""Built-in models: Gaussian, normal inverse Gaussian, Merton jump diffusion.

Each model writes the four methods of CgfModel: k, k_complex, domain, and
k1_k2, the one place it states K' and K''. k1 and k2 are the base class's
readings of k1_k2.

The NIG uses the variance-mixture parametrization

    X = mu + gamma*W + sqrt(W)*Z,   W ~ IG with E(W) = sqrt(chi/psi),

whose CGF is K(t) = t*mu + sqrt(chi)*(sqrt(psi) - sqrt(psi - t^2 - 2*t*gamma)).
That difference of square roots cancels catastrophically when psi is large
(the near-Gaussian regime), so it is evaluated as

    sqrt(chi) * u / (sqrt(psi) + sqrt(psi - u)),   u = t^2 + 2*t*gamma,

which is exact and stable for all psi. On a vertical line c + iy with c
in the domain, psi - u = a - 2igy with a = D + y^2 > 0, D = D(c) =
psi - c^2 - 2c*gamma and g = c + gamma, so the principal square root is
the correct analytic continuation. It is r - i*g*y/r, with
r^2 = (|v| + a)/2 and |v| = sqrt(a^2 + 4 g^2 y^2), and k_complex states
the increment K(c + iy) - K(c) in the same cancellation-free way:

    Re = -sqrt(chi) * y^2 * (1 + g^2/r^2) / (r + sqrt(D)),
    Im = y * (mu + sqrt(chi) * g / r),

where every term is positive, so nothing cancels as y goes to 0 or psi
grows.

Each k_complex takes the terms that depend on c once per line, and
works in place on arrays it allocates, since its line holds the whole CF
matrix of a block; each returns two new arrays, as CgfModel.k_complex
requires.

The MJD transition is the conditional law of the log price X_t given
X_0 = x0 over a step dt, a Gaussian increment plus a compound Poisson sum
of Gaussian jumps; its CGF is entire. It is the one built-in model to
state its own SPI rule (spi_quad): an entire CGF leaves no finite end
for the contour's strip, which sets the step of NIG's rule. The Gaussian
takes the core's fixed default rule.

Its oracle, mjd_truncated_log_density, has one stop: past the mode of
the jump count, the first Poisson weight below 1e-14. That floor is per
weight, not per row, so rows beyond about 15 sd come out short. A step
that needs more than _MAX_JUMPS = 2000 jumps raises ValidationError.
Every oracle takes a 1-d array of finite points (cgf.finite_points).
"""

import math
from dataclasses import dataclass

import numpy as np

from .cgf import (CgfModel, DomainInterval, Line, QuadratureSpec, check_fields, check_value, derived_value,
                  finite_points)
from .errors import DomainError, ValidationError

_LOG_WEIGHT_FLOOR = math.log(1e-14)
# the most jumps the MJD oracle sums: enough for lam dt up to about 1600
_MAX_JUMPS = 2000


def bessel_k1_scaled(z):
    """exp(z)*K1(z), by scipy.special.k1e, which loads on the first call.

    nig_exact_log_density looks K1 up under this module name, which
    perfbench/tracing.py wraps to time the oracle.
    """
    from scipy.special import k1e

    return k1e(z)


@dataclass(frozen=True)
class GaussianParams:
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        check_fields(self, positive=("sigma",))


@dataclass(frozen=True)
class NigParams:
    chi: float
    psi: float
    mu: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        check_fields(self, positive=("chi", "psi"))


@dataclass(frozen=True)
class MjdParams:
    r: float
    sigma: float
    lam: float
    mu_j: float
    nu: float

    def __post_init__(self):
        check_fields(self, positive=("sigma", "nu"), non_negative=("lam",))

    @property
    def jump_compensator(self) -> float:
        """k = E(Y) - 1 for log-normal jump sizes Y."""
        return derived_value("exp(mu_j + nu^2/2)", lambda: math.exp(self.mu_j + 0.5 * self.nu**2), self) - 1.0

    def drift(self, dt: float) -> float:
        """Deterministic part of the log-price increment over dt."""
        k = self.jump_compensator
        return derived_value("the drift", lambda: dt * (self.r - self.lam * k - 0.5 * self.sigma**2), self)


class Gaussian(CgfModel):
    """N(mu, sigma^2); K(t) = mu*t + sigma^2 t^2 / 2 on all of R."""

    def __init__(self, params: GaussianParams):
        self.params = params
        self._var = derived_value("sigma^2", lambda: params.sigma**2, params)

    def k(self, t):
        return self.params.mu * t + 0.5 * self._var * t * t

    def k_complex(self, line: Line):
        # K(c + iy) - K(c) = -sigma^2 y^2 / 2 + i y (mu + sigma^2 c)
        y = line.y
        re = y * y
        re *= -0.5 * self._var
        return re, y * (self.params.mu + self._var * line.c)

    def k1_k2(self, t):
        return self.params.mu + self._var * t, self._var + 0.0 * t

    def domain(self) -> DomainInterval:
        return DomainInterval(-np.inf, np.inf)


class Nig(CgfModel):
    """Normal inverse Gaussian under the (chi, psi, mu, gamma) parametrization."""

    def __init__(self, params: NigParams):
        self.params = params
        p = params
        self._half_width = derived_value("sqrt(gamma^2 + psi)", lambda: math.sqrt(p.gamma**2 + p.psi), p)
        self._sqrt_chi = math.sqrt(p.chi)
        self._sqrt_psi = math.sqrt(p.psi)

    def _d(self, t):
        # D(t) = psi - t^2 - 2 t gamma, positive exactly on the domain
        p = self.params
        d = p.psi - t * t - 2.0 * t * p.gamma
        if (d <= 0.0).any():
            raise DomainError(f"argument outside NIG CGF domain {self.domain()}")
        return d

    def k(self, t):
        t = np.asarray(t, dtype=float)
        u = t * t + 2.0 * t * self.params.gamma
        return t * self.params.mu + self._sqrt_chi * u / (
            self._sqrt_psi + np.sqrt(self._d(t))
        )

    def k_complex(self, line: Line):
        """(Re, Im) of K(c + iy) - K(c), in the module docstring's form."""
        p = self.params
        c, y = line.c, line.y
        g = c + p.gamma
        d = p.psi - c * c - 2.0 * c * p.gamma
        yy = y * y
        # r^2 = (|v| + a)/2 = a (1 + sqrt(1 + q^2))/2 with q = 2gy/a, a form
        # that squares no large number
        a = yy + d
        r = y * (2.0 * g)
        r /= a
        r *= r
        r += 1.0
        np.sqrt(r, out=r)
        r += 1.0
        r *= a
        r *= 0.5
        np.sqrt(r, out=r)
        # h = sqrt(chi) g / r; Im = y (mu + h) and
        # Re = -y^2 (chi + h^2) / (sqrt(chi) (r + sqrt(D)))
        h = np.divide(self._sqrt_chi * g, r, out=a)
        im = h + p.mu
        im *= y
        h *= h
        h += p.chi
        h *= yy
        r += np.sqrt(d)
        h /= r
        h *= -1.0 / self._sqrt_chi
        return h, im

    def k1_k2(self, t):
        """K'(t) = mu + sqrt(chi) (t + gamma) / sqrt(D(t)) and
        K''(t) = sqrt(chi) (psi + gamma^2) D(t)^-1.5, on one D(t); raises
        DomainError outside the domain, where D(t) <= 0."""
        t = np.asarray(t, dtype=float)
        p = self.params
        d = self._d(t)
        k1 = p.mu + self._sqrt_chi * (t + p.gamma) / np.sqrt(d)
        return k1, self._sqrt_chi * (p.psi + p.gamma**2) * d**-1.5

    def saddlepoint_start(self, x, mean, variance):
        """The exact root of K'(t) = x, where K' can be resolved there.

        K'(t) = mu + sqrt(chi) s / sqrt(psi + gamma^2 - s^2) with s = t + gamma
        inverts to s = d sqrt(psi + gamma^2) / sqrt(chi + d^2), d = x - mu;
        the hypot keeps d^2 from overflowing. Far out, the root nears the
        end of the domain, and D(t) = psi - t^2 - 2 t gamma is a difference
        of terms of size m = psi + t^2 + 2|t gamma|. Once D is below 1e-6 m
        (or not positive, outside the domain) its rounding alone moves K'
        by the solver's tolerance, 1e-10 relative, and the row
        takes the default start instead.
        """
        p = self.params
        d = np.asarray(x, dtype=float) - p.mu
        t = self._half_width * d / np.hypot(self._sqrt_chi, d) - p.gamma
        tg = t * p.gamma
        resolved = p.psi - t * t - 2.0 * tg > 1e-6 * (p.psi + t * t + 2.0 * np.abs(tg))
        if resolved.all():
            return t
        return np.where(resolved, t, super().saddlepoint_start(x, mean, variance))

    def domain(self) -> DomainInterval:
        g = self.params.gamma
        return DomainInterval(-g - self._half_width, -g + self._half_width)


class MjdTransition(CgfModel):
    """Conditional CGF of the MJD log price after one step of length dt."""

    # the diffusion makes the standardized tilted CF decay like a Gaussian's,
    # so a shorter rule serves: about 4e-6 nats on the criterion-6 data
    spi_quad = QuadratureSpec(32.0, 65)

    def __init__(self, params: MjdParams, x0: float = 0.0, dt: float = 1.0 / 252.0):
        check_value("x0", x0)
        check_value("dt", dt, "positive")
        self.params = params
        self.x0 = float(x0)
        self.dt = float(dt)
        p = params
        # deterministic part of the increment
        self._base = derived_value("x0 + drift", lambda: self.x0 + p.drift(self.dt), p)
        self._var_diff = derived_value("sigma^2 dt", lambda: p.sigma**2 * self.dt, p)
        self._lam_dt = derived_value("lam dt", lambda: p.lam * self.dt, p)

    def _jump_exponent(self, z):
        p = self.params
        return z * p.mu_j + 0.5 * p.nu**2 * z * z

    def k(self, t):
        t = np.asarray(t, dtype=float)
        return (
            t * self._base
            + 0.5 * self._var_diff * t * t
            + self._lam_dt * (np.exp(self._jump_exponent(t)) - 1.0)
        )

    def k_complex(self, line: Line):
        """(Re, Im) of K(c + iy) - K(c) on one per-line E = lam dt exp(J(c)):

            Re = -sigma^2 dt y^2 / 2 + E (exp(-nu^2 y^2/2) cos(phi) - 1),
            Im = y (base + sigma^2 dt c) + E exp(-nu^2 y^2/2) sin(phi),

        with J the jump exponent and phi = y (mu_J + nu^2 c).
        """
        p = self.params
        c, y = line.c, line.y
        e = self._lam_dt * np.exp(self._jump_exponent(c))
        phi = y * (p.mu_j + p.nu**2 * c)
        yy = y * y
        damp = yy * (-0.5 * p.nu**2)
        np.exp(damp, out=damp)
        damp *= e
        re = np.cos(phi)
        re *= damp
        re -= e
        yy *= 0.5 * self._var_diff
        re -= yy
        im = np.sin(phi, out=phi)
        im *= damp
        im += y * (self._base + self._var_diff * c)
        return re, im

    def k1_k2(self, t):
        """K' and K'' on one exp(jump exponent) e and one a = mu_J + nu^2 t:

            K'(t) = base + sigma^2 dt t + lam dt a e,
            K''(t) = sigma^2 dt + lam dt (a^2 + nu^2) e.

        Nothing is raised: where e overflows the two are infinite, and
        where e is not defined (t not a number, or inf - inf in the
        exponent) NaN.
        """
        t = np.asarray(t, dtype=float)
        p = self.params
        a = p.mu_j + p.nu**2 * t
        e = np.exp(self._jump_exponent(t))
        k1 = self._base + self._var_diff * t + self._lam_dt * a * e
        return k1, self._var_diff + self._lam_dt * (a**2 + p.nu**2) * e

    def domain(self) -> DomainInterval:
        return DomainInterval(-np.inf, np.inf)


def gaussian_log_density(p: GaussianParams, x):
    """log N(x; mu, sigma^2) at each point of x; -inf, with no warning, where (x - mu)^2 overflows."""
    x = finite_points(x)
    with np.errstate(over="ignore"):
        return -0.5 * np.log(2.0 * np.pi * p.sigma**2) - (x - p.mu) ** 2 / (2.0 * p.sigma**2)


def nig_exact_log_density(p: NigParams, x):
    """Exact NIG log-density through the modified Bessel function K1.

    p(x) = sqrt(chi*(psi+gamma^2)) * K1(z) / (pi * sqrt(chi+(x-mu)^2))
           * exp(sqrt(chi*psi) + (x-mu)*gamma),
    z = sqrt((chi+(x-mu)^2)*(psi+gamma^2)),

    computed in log space with the scaled K1, exp(z)*K1(z), so the e^-z
    factor never underflows. The exponent sqrt(chi*psi) - z that this
    leaves cancels near the Gaussian limit (chi*psi >> 1), so it is taken
    in the exact form -(chi*gamma^2 + (x-mu)^2*(psi+gamma^2)) /
    (sqrt(chi*psi) + z). Where z overflows (x = 1e200) there is no usable
    value, and DomainError is raised.
    """
    x = finite_points(x)
    a2 = p.psi + p.gamma**2
    with np.errstate(over="ignore"):
        d2 = (x - p.mu) ** 2
        q = p.chi + d2
        z = np.sqrt(q * a2)
    if not np.all((z > 0.0) & (z < np.inf)):
        raise DomainError("NIG oracle: the Bessel argument must be positive and finite")
    sqrt_chi_psi = math.sqrt(p.chi * p.psi)
    return (
        0.5 * np.log(p.chi * a2)
        + np.log(bessel_k1_scaled(z))
        - np.log(np.pi)
        - 0.5 * np.log(q)
        - (p.chi * p.gamma**2 + d2 * a2) / (sqrt_chi_psi + z)
        + (x - p.mu) * p.gamma
    )


def mjd_truncated_log_density(m: MjdTransition, x):
    """Poisson-Gaussian mixture density of the MJD transition, truncated.

    Components are summed in log space from zero jumps upward, up to the
    first Poisson weight below 1e-14 past the mode of the jump count; with
    lam dt = 0 that is the zero-jump Gaussian alone. The floor is per
    weight, not per row, so rows beyond about 15 sd are short (9.2e-6 nats
    at 20 sd and 4.6 at 50 sd on the criterion-6 parameters). A step that
    needs more than _MAX_JUMPS jumps (lam dt above about 1600) raises
    ValidationError.
    """
    x = finite_points(x)
    p = m.params
    base, lam_dt = m._base, m._lam_dt
    log_lam_dt = math.log(lam_dt) if lam_dt > 0.0 else -math.inf
    consts, shifts, two_v = [], [], []
    log_w = -lam_dt
    for i in range(_MAX_JUMPS + 1):
        v = m._var_diff + i * p.nu**2
        consts.append(log_w - 0.5 * np.log(2.0 * np.pi * v))
        shifts.append(i * p.mu_j)
        two_v.append(2.0 * v)
        log_w = log_w + log_lam_dt - math.log(i + 1.0)
        if log_w < _LOG_WEIGHT_FLOOR and i + 1 > lam_dt:
            break
    else:
        raise ValidationError(
            f"MJD oracle: lambda*dt = {lam_dt:g} needs more than {_MAX_JUMPS} jumps"
        )
    # component i's log term is consts[i] - (x - base - shifts[i])^2 / two_v[i];
    # one (jumps, x) array holds them and then each step of the log-sum-exp
    terms = np.subtract(x - base, np.array(shifts)[:, None])
    # a row so far out that every term is -inf (its square overflows) comes
    # out as -inf, with no warning, where -inf - -inf would make it nan
    with np.errstate(over="ignore", divide="ignore"):
        np.square(terms, out=terms)
        terms /= np.array(two_v)[:, None]
        np.subtract(np.array(consts)[:, None], terms, out=terms)
        top = np.maximum(terms.max(axis=0), -np.finfo(float).max)
        terms -= top
        np.exp(terms, out=terms)
        return top + np.log(terms.sum(axis=0))


def nig_moments(p: NigParams):
    """(mean, variance) from the CGF: K'(0) and K''(0) in closed form."""
    ratio = math.sqrt(p.chi / p.psi)
    mean = p.mu + p.gamma * ratio
    variance = ratio * (1.0 + p.gamma**2 / p.psi)
    return mean, variance


def simulate_nig(p: NigParams, n: int, seed: int):
    """n i.i.d. NIG draws via the mixture representation.

    Draws W from the inverse Gaussian with mean sqrt(chi/psi) and shape chi
    (numpy's wald sampler), then X = mu + gamma*W + sqrt(W)*Z. Draw order
    is fixed (all W first, then all Z) so output is seed-deterministic.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    rng = np.random.default_rng(seed)
    w = rng.wald(math.sqrt(p.chi / p.psi), p.chi, size=n)
    z = rng.standard_normal(n)
    return p.mu + p.gamma * w + np.sqrt(w) * z


def simulate_mjd_path(p: MjdParams, x0: float, dt: float, n_steps: int, seed: int):
    """Log-price path of length n_steps + 1 starting at x0.

    Each increment is dt*(r - lam*k - sigma^2/2) + sigma*sqrt(dt)*Z plus a
    compound Poisson jump sum, drawn as N ~ Poisson(lam*dt) and the jump
    aggregate N*mu_j + nu*sqrt(N)*Z'. Draw order: diffusion normals, jump
    counts, jump normals.
    """
    if n_steps < 1:
        raise ValidationError("n_steps must be at least 1")
    check_value("dt", dt, "positive")
    rng = np.random.default_rng(seed)
    z_diff = rng.standard_normal(n_steps)
    counts = rng.poisson(p.lam * dt, size=n_steps)
    z_jump = rng.standard_normal(n_steps)
    increments = (
        p.drift(dt)
        + p.sigma * math.sqrt(dt) * z_diff
        + p.mu_j * counts
        + p.nu * np.sqrt(counts) * z_jump
    )
    path = np.empty(n_steps + 1)
    path[0] = x0
    path[1:] = x0 + np.cumsum(increments)
    return path
