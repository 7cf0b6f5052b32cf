"""Built-in models: Gaussian, normal inverse Gaussian, Merton jump diffusion.

The NIG uses the variance-mixture parametrization

    X = mu + gamma*W + sqrt(W)*Z,   W ~ IG with E(W) = sqrt(chi/psi),

whose CGF is K(t) = t*mu + sqrt(chi)*(sqrt(psi) - sqrt(psi - t^2 - 2*t*gamma)).
That difference of square roots cancels catastrophically when psi is large
(the near-Gaussian regime), so it is evaluated as

    sqrt(chi) * u / (sqrt(psi) + sqrt(psi - u)),   u = t^2 + 2*t*gamma,

which is exact and stable for all psi. Along the vertical contours used by
the inversion integral, re(psi - u) = D(re z) + im(z)^2 > 0, so the
principal square root is the correct analytic continuation. Since that
real part is positive, k_complex takes the root in real arithmetic:
sqrt(a + ib) = r + i*b/(2r) with r = sqrt((|a + ib| + a)/2), which holds
only for a > 0, that is for re(z) inside the domain.

The NIG and MJD k_complex work in place on arrays they allocate, since
their argument is the whole CF matrix of a block; each returns a new
array, as CgfModel.k_complex requires.

The MJD transition is the conditional law of the log price X_t given
X_0 = x0 over a step dt, a Gaussian increment plus a compound Poisson sum
of Gaussian jumps; its CGF is entire.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cgf import CgfModel, DomainInterval
from .errors import DomainError, ValidationError

_LOG_WEIGHT_FLOOR = math.log(1e-14)


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
        if not self.sigma > 0.0:
            raise ValidationError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class NigParams:
    chi: float
    psi: float
    mu: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not (self.chi > 0.0 and self.psi > 0.0):
            raise ValidationError(
                f"chi and psi must be positive, got chi={self.chi}, psi={self.psi}"
            )


@dataclass(frozen=True)
class MjdParams:
    r: float
    sigma: float
    lam: float
    mu_j: float
    nu: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValidationError(f"sigma must be positive, got {self.sigma}")
        if self.lam < 0.0:
            raise ValidationError(f"lambda must be nonnegative, got {self.lam}")
        if not self.nu > 0.0:
            raise ValidationError(f"nu must be positive, got {self.nu}")

    @property
    def jump_compensator(self) -> float:
        """k = E(Y) - 1 for log-normal jump sizes Y."""
        return math.exp(self.mu_j + 0.5 * self.nu**2) - 1.0

    def drift(self, dt: float) -> float:
        """Deterministic part of the log-price increment over dt."""
        return dt * (self.r - self.lam * self.jump_compensator - 0.5 * self.sigma**2)


class Gaussian(CgfModel):
    """N(mu, sigma^2); K(t) = mu*t + sigma^2 t^2 / 2 on all of R."""

    def __init__(self, params: GaussianParams):
        self.params = params
        self._var = params.sigma**2

    def k(self, t):
        return self.params.mu * t + 0.5 * self._var * t * t

    def k_complex(self, z):
        z = np.asarray(z, dtype=complex)
        return self.params.mu * z + 0.5 * self._var * z * z

    def k1(self, t):
        return self.params.mu + self._var * t

    def k2(self, t):
        return self._var + 0.0 * t

    def domain(self) -> DomainInterval:
        return DomainInterval(-np.inf, np.inf)


class Nig(CgfModel):
    """Normal inverse Gaussian under the (chi, psi, mu, gamma) parametrization."""

    def __init__(self, params: NigParams):
        self.params = params
        p = params
        self._half_width = math.sqrt(p.gamma**2 + p.psi)
        self._sqrt_chi = math.sqrt(p.chi)
        self._sqrt_psi = math.sqrt(p.psi)

    def _d(self, t):
        # D(t) = psi - t^2 - 2 t gamma, positive exactly on the domain
        p = self.params
        d = p.psi - t * t - 2.0 * t * p.gamma
        if np.any(np.asarray(d) <= 0.0):
            raise DomainError(f"argument outside NIG CGF domain {self.domain()}")
        return d

    def k(self, t):
        t = np.asarray(t, dtype=float)
        u = t * t + 2.0 * t * self.params.gamma
        return t * self.params.mu + self._sqrt_chi * u / (
            self._sqrt_psi + np.sqrt(self._d(t))
        )

    def k_complex(self, z):
        z = np.asarray(z, dtype=complex)
        # flat, so that the in-place steps below also hold for a 0-d z
        shape, z = z.shape, z.reshape(-1)
        p = self.params
        u = z + 2.0 * p.gamma
        u *= z
        # v = psi - u = a + ib has a > 0 (module docstring), so its root is
        # r + i*b/(2r) with r^2 = (|v| + a)/2 = a*(1 + sqrt(1 + (b/a)^2))/2,
        # a form that squares no large number
        den = p.psi - u
        a, b = den.real, den.imag
        r = b / a
        r *= r
        r += 1.0
        np.sqrt(r, out=r)
        r += 1.0
        r *= 0.5
        r *= a
        np.sqrt(r, out=r)
        b /= r
        b *= 0.5
        np.add(r, self._sqrt_psi, out=a)  # den = sqrt(psi) + sqrt(psi - u)
        u /= den
        u *= self._sqrt_chi
        u += z * p.mu
        return u.reshape(shape)

    def k1(self, t):
        t = np.asarray(t, dtype=float)
        return self.params.mu + self._sqrt_chi * (t + self.params.gamma) / np.sqrt(
            self._d(t)
        )

    def k2(self, t):
        t = np.asarray(t, dtype=float)
        return self._sqrt_chi * (self.params.psi + self.params.gamma**2) * self._d(t) ** -1.5

    def domain(self) -> DomainInterval:
        g = self.params.gamma
        return DomainInterval(-g - self._half_width, -g + self._half_width)


class MjdTransition(CgfModel):
    """Conditional CGF of the MJD log price after one step of length dt."""

    def __init__(self, params: MjdParams, x0: float = 0.0, dt: float = 1.0 / 252.0):
        if not dt > 0.0:
            raise ValidationError(f"dt must be positive, got {dt}")
        self.params = params
        self.x0 = float(x0)
        self.dt = float(dt)
        p = params
        # deterministic part of the increment
        self._base = self.x0 + p.drift(self.dt)
        self._var_diff = p.sigma**2 * self.dt
        self._lam_dt = p.lam * self.dt

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

    def k_complex(self, z):
        z = np.asarray(z, dtype=complex)
        shape, z = z.shape, z.reshape(-1)
        p = self.params
        jump = z * (0.5 * p.nu**2)
        jump += p.mu_j
        jump *= z
        np.exp(jump, out=jump)
        jump -= 1.0
        jump *= self._lam_dt
        out = z * (0.5 * self._var_diff)
        out += self._base
        out *= z
        out += jump
        return out.reshape(shape)

    def k1(self, t):
        t = np.asarray(t, dtype=float)
        p = self.params
        return (
            self._base
            + self._var_diff * t
            + self._lam_dt * (p.mu_j + p.nu**2 * t) * np.exp(self._jump_exponent(t))
        )

    def k2(self, t):
        t = np.asarray(t, dtype=float)
        p = self.params
        return self._var_diff + self._lam_dt * (
            (p.mu_j + p.nu**2 * t) ** 2 + p.nu**2
        ) * np.exp(self._jump_exponent(t))

    def domain(self) -> DomainInterval:
        return DomainInterval(-np.inf, np.inf)


def gaussian_log_density(p: GaussianParams, x):
    x = np.asarray(x, dtype=float)
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
    (sqrt(chi*psi) + z). Where z is not positive and finite (x not finite,
    or an overflow) there is no usable value, and DomainError is raised.
    """
    x = np.asarray(x, dtype=float)
    a2 = p.psi + p.gamma**2
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


def mjd_truncated_log_density(m: MjdTransition, x, max_jumps: int = 20):
    """Poisson-Gaussian mixture density of the MJD transition, truncated.

    Components are accumulated from zero jumps upward; the sum stops at
    max_jumps, or earlier once the Poisson weight has fallen below 1e-14
    past the mode of the jump-count distribution. Accumulation is in log
    space so deep-tail evaluations stay finite.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    p = m.params
    base = m.x0 + p.drift(m.dt)
    lam_dt = p.lam * m.dt
    if lam_dt == 0.0:
        out = gaussian_log_density(
            GaussianParams(mu=base, sigma=p.sigma * math.sqrt(m.dt)), x
        )
        return float(out[0]) if scalar else out
    consts, shifts, two_v = [], [], []
    log_w = -lam_dt
    i = 0
    while True:
        v = p.sigma**2 * m.dt + i * p.nu**2
        consts.append(log_w - 0.5 * np.log(2.0 * np.pi * v))
        shifts.append(i * p.mu_j)
        two_v.append(2.0 * v)
        if i >= max_jumps:
            break
        log_w = log_w + math.log(lam_dt) - math.log(i + 1.0)
        if log_w < _LOG_WEIGHT_FLOOR and i + 1 > lam_dt:
            break
        i += 1
    # component i's log term is consts[i] - (x - base - shifts[i])^2 / two_v[i];
    # one (jumps, x) array holds them and then each step of the log-sum-exp
    terms = np.subtract(x - base, np.array(shifts)[:, None])
    np.square(terms, out=terms)
    terms /= np.array(two_v)[:, None]
    np.subtract(np.array(consts)[:, None], terms, out=terms)
    top = terms.max(axis=0)
    terms -= top
    np.exp(terms, out=terms)
    out = top + np.log(terms.sum(axis=0))
    return float(out[0]) if scalar else out


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
    if not dt > 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
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
