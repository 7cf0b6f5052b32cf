"""Family registry, likelihoods, Nelder-Mead fitting, profiles, and the KL bias experiment.

A family is one Family record in FAMILIES, which the likelihood, the fits
and the CLI read, so a family with a closed-form CGF takes one record and
no edit elsewhere. gbm is the Gaussian model of GbmParams.increment(dt).

Optimization runs in an unconstrained vector space: positive parameters
(sigma, lambda, nu, chi, psi) enter through their logs, so the simplex can
roam freely and reported standard errors refer to the transformed
coordinates (the scale used for jump parameters in the usual reporting
convention for this model). The fits minimize by the simplex method of
Nelder & Mead (1965, Comput. J. 7:308), ported from scipy to give its
results bit for bit; only the KL experiment imports scipy.optimize.

The MJD likelihood treats log-price increments as i.i.d. given dt, which
is the same thing as conditioning each transition on the previous level;
the increment CGF is the transition CGF started at zero.
"""

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .cgf import check_fields, check_value, derived_value, finite_points
from .errors import ConvergenceError, SpinvError, ValidationError
from .inversion import (
    QuadratureSpec,
    direct_ift_log_density_batch,
    spa_log_density_batch,
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
    simulate_mjd_path,
    simulate_nig,
)

_NM_OPTIONS = {"xatol": 1e-8, "fatol": 1e-10, "maxiter": 20000, "maxfev": 20000}
# truth mass left outside the KL integration window, and the largest
# Simpson step inside it
_KL_TAIL_MASS = 1e-6
_KL_STEP = 0.12


@dataclass(frozen=True)
class ReturnSeries:
    dt: float
    returns: np.ndarray

    def __post_init__(self):
        check_value("dt", self.dt, "positive")
        r = finite_points(self.returns, "returns")
        if r.size == 0:
            raise ValidationError("returns must be a non-empty 1-d array")
        object.__setattr__(self, "returns", r)


@dataclass(frozen=True)
class GbmParams:
    r: float
    sigma: float

    def __post_init__(self):
        check_fields(self, positive=("sigma",))

    def increment(self, dt: float) -> GaussianParams:
        """The Gaussian law of the log-price increment over dt."""
        check_value("dt", dt, "positive")
        mu = derived_value("the drift", lambda: dt * (self.r - 0.5 * self.sigma**2), self)
        return GaussianParams(mu=mu, sigma=self.sigma * math.sqrt(dt))


@dataclass(frozen=True)
class FitResult:
    family: str
    method: str
    param_names: tuple
    params: np.ndarray
    nll: float
    std_errors: np.ndarray
    n_evals: int
    converged: bool
    failed_evals: dict


@dataclass(frozen=True)
class ProfilePoint:
    value: float
    nll: float
    converged: bool
    failed_evals: dict


@dataclass(frozen=True)
class ParamTransform:
    """Bijection between a params dataclass and an unconstrained vector.

    names has one coordinate per field of params, in field order; a name
    that starts with "log_" marks a positive field that enters through its log.
    """

    params: type
    names: tuple

    def _coords(self):
        pairs = zip(fields(self.params), self.names, strict=True)
        return [(f.name, n.startswith("log_")) for f, n in pairs]

    def to_vector(self, p) -> np.ndarray:
        coords = self._coords()
        return np.array([math.log(getattr(p, f)) if log else getattr(p, f) for f, log in coords])

    def from_vector(self, v):
        return self.params(
            **{f: math.exp(x) if log else float(x) for (f, log), x in zip(self._coords(), v)}
        )


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one family of return models.

    model(params, dt, x0) is the CGF model of a step of length dt from x0;
    oracle(model, x) is its closed-form log-density; simulate(params, n,
    dt, seed) is a log-price path of n steps from 0. moment_init(data)
    starts a fit (None: the family cannot be fitted). A profile appends a
    fit of the reference family; exact_likelihood uses the oracle for every
    method. The SPI rule is the model's (CgfModel.spi_quad, or the contour
    where that is None), not the record's.
    """

    transform: ParamTransform
    model: Callable
    oracle: Callable
    simulate: Callable
    moment_init: Callable = None
    reference: str = None
    exact_likelihood: bool = False


def _log_path(increments):
    return np.concatenate([[0.0], np.cumsum(increments)])


def _gaussian_path(p: GaussianParams, n: int, seed: int):
    rng = np.random.default_rng(seed)
    return _log_path(p.mu + p.sigma * rng.standard_normal(n))


def _mean_var(data: ReturnSeries):
    m = float(np.mean(data.returns))
    v = float(np.var(data.returns))
    if v <= 0.0:
        raise ValidationError("returns have zero variance; cannot initialize")
    return m, v


def _gbm_init(data: ReturnSeries) -> GbmParams:
    m, v = _mean_var(data)
    sigma = math.sqrt(v / data.dt)
    return GbmParams(r=m / data.dt + 0.5 * sigma**2, sigma=sigma)


def _nig_init(data: ReturnSeries) -> NigParams:
    # symmetric-NIG moment match: var = sqrt(chi/psi), excess kurt = 3/sqrt(chi*psi)
    m, v = _mean_var(data)
    ek = max(float(np.mean((data.returns - m) ** 4)) / v**2 - 3.0, 0.05)
    return NigParams(chi=3.0 * v / ek, psi=3.0 / (ek * v), mu=m, gamma=0.0)


def _mjd_init(data: ReturnSeries) -> MjdParams:
    # split variance evenly between diffusion and jumps at lambda = 100
    m, v = _mean_var(data)
    lam = 100.0
    sigma = math.sqrt(0.5 * v / data.dt)
    nu = math.sqrt(0.5 * v / (lam * data.dt))
    k = math.exp(0.5 * nu**2) - 1.0
    return MjdParams(r=m / data.dt + lam * k + 0.5 * sigma**2, sigma=sigma, lam=lam, mu_j=0.0, nu=nu)


# The lambdas look model classes and oracles up in this module when they
# are called, so that a replaced module attribute takes effect.
FAMILIES = {
    "gaussian": Family(
        ParamTransform(GaussianParams, ("mu", "log_sigma")),
        model=lambda p, dt, x0: Gaussian(p),
        oracle=lambda m, x: gaussian_log_density(m.params, x),
        simulate=lambda p, n, dt, seed: _gaussian_path(p, n, seed),
    ),
    "gbm": Family(
        ParamTransform(GbmParams, ("r", "log_sigma")),
        model=lambda p, dt, x0: Gaussian(p.increment(dt)),
        oracle=lambda m, x: gaussian_log_density(m.params, x),
        simulate=lambda p, n, dt, seed: _gaussian_path(p.increment(dt), n, seed),
        moment_init=_gbm_init,
        exact_likelihood=True,
    ),
    "nig": Family(
        ParamTransform(NigParams, ("log_chi", "log_psi", "mu", "gamma")),
        model=lambda p, dt, x0: Nig(p),
        oracle=lambda m, x: nig_exact_log_density(m.params, x),
        simulate=lambda p, n, dt, seed: _log_path(simulate_nig(p, n, seed)),
        moment_init=_nig_init,
    ),
    "mjd": Family(
        ParamTransform(MjdParams, ("r", "log_sigma", "log_lambda", "mu_j", "log_nu")),
        model=lambda p, dt, x0: MjdTransition(p, x0=x0, dt=dt),
        oracle=lambda m, x: mjd_truncated_log_density(m, x),
        simulate=lambda p, n, dt, seed: simulate_mjd_path(p, 0.0, dt, n, seed),
        moment_init=_mjd_init,
        reference="gbm",
    ),
}


def family_for(family: str) -> Family:
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    return FAMILIES[family]


def transform_for(family: str) -> ParamTransform:
    return family_for(family).transform


def negative_log_likelihood(
    family: str, params, data: ReturnSeries, method: str = "spi", quad: QuadratureSpec = None
) -> float:
    """-sum(log p(x_i)) over the return series, by the chosen evaluator.

    Each term is the family's model of a step of length dt started at
    zero, so for mjd the returns are transition increments. A family with
    exact_likelihood (gbm) uses its oracle whatever the method. SPI with
    no quad takes the model's own rule (model.spi_quad, or the contour
    where that is None; see inversion.p_bar_zero_batch).
    """
    fam = family_for(family)
    model = fam.model(params, data.dt, 0.0)
    if method == "oracle" or fam.exact_likelihood:
        logp = fam.oracle(model, data.returns)
    elif method == "spi":
        logp = spi_log_density_batch(model, data.returns, quad)
    elif method == "spa":
        logp = spa_log_density_batch(model, data.returns)
    elif method == "direct":
        logp = direct_ift_log_density_batch(model, data.returns, quad)
    else:
        raise ValidationError(f"unknown method {method!r}")
    return -float(np.sum(logp))


def moment_init(family: str, data: ReturnSeries):
    """Method-of-moments starting point; crude is fine, Nelder-Mead does the rest."""
    init = family_for(family).moment_init
    if init is None:
        raise ValidationError(f"family {family!r} cannot be fitted")
    return init(data)


def _fit_setup(family: str, data: ReturnSeries, method: str, quad, init):
    """(transform, start vector, objective, failures) of a fit from init,
    read as fit_mle states. The objective is the NLL in unconstrained
    coordinates, +inf wherever it raises a SpinvError or an OverflowError;
    failures counts those by exception type name over every call of it."""
    tr = transform_for(family)
    if init is None:
        init = moment_init(family, data)
    vec = np.asarray(init, dtype=float) if isinstance(init, np.ndarray) else tr.to_vector(init)
    failed = {}

    def f(v):
        try:
            return negative_log_likelihood(family, tr.from_vector(v), data, method, quad)
        except (SpinvError, OverflowError) as exc:
            kind = type(exc).__name__
            failed[kind] = failed.get(kind, 0) + 1
            return np.inf

    return tr, vec, f, failed


class _MaxFevReached(Exception):
    """Raised in place of the evaluation that would exceed maxfev."""


def _by_value(sim, fsim):
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _nelder_mead(f, x0):
    """Minimize f from x0 by the simplex method of Nelder & Mead (1965,
    Comput. J. 7:308), with _NM_OPTIONS; returns (x, fun, nfev, success).

    This follows scipy's algorithm (scipy.optimize.minimize with
    method="Nelder-Mead", not adaptive, no bounds) step for step, so x,
    fun, nfev and success come out bit-identical to it: reflection 1,
    expansion 2, contraction and shrink 1/2; a first simplex that scales
    each coordinate by 1.05 (0 becomes 0.00025); a re-sort after every
    iteration; maxfev checked before each evaluation, so that it can cut
    into an expansion or a shrink. It also stops, with success False,
    after the first iteration whose whole simplex is +inf: from there no
    step can move.
    """
    xatol, fatol = _NM_OPTIONS["xatol"], _NM_OPTIONS["fatol"]
    maxiter, maxfev = _NM_OPTIONS["maxiter"], _NM_OPTIONS["maxfev"]
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).flatten()
    n = x0.size
    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFevReached
        nfev += 1
        return f(x)

    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _MaxFevReached:
        pass
    # sorted twice, as scipy does: argsort is not stable, so ties may move
    sim, fsim = _by_value(sim, fsim)
    sim, fsim = _by_value(sim, fsim)

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (
                np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
            ):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = call(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = call(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = call(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
            iterations += 1
        except _MaxFevReached:
            pass
        sim, fsim = _by_value(sim, fsim)
        if fsim[0] == np.inf:
            break
    success = nfev < maxfev and iterations < maxiter and fsim[0] != np.inf
    return sim[0], np.min(fsim), nfev, success


def fit_mle(
    family: str,
    data: ReturnSeries,
    method: str = "spi",
    quad: QuadratureSpec = None,
    init=None,
) -> FitResult:
    """Nelder-Mead MLE in unconstrained coordinates, with FD standard errors.

    init may be a family params object, an unconstrained vector, or None
    for the moment-based default. Non-convergence is reported in the flag,
    not raised; the best point found is still returned. A fit whose whole
    simplex fails (nll = inf) stops after one iteration.

    failed_evals counts the evaluations that failed and were taken as
    +inf, by exception type name ({} when none failed). It counts the
    Hessian's evaluations for the standard errors too, so it can be
    nonzero when the search itself met no failure. A search that ended
    on +inf runs no Hessian, and its standard errors are NaN.
    """
    tr, vec0, f, failed = _fit_setup(family, data, method, quad, init)
    x, fun, nfev, success = _nelder_mead(f, vec0)
    se = np.full(x.size, np.nan)
    if np.isfinite(fun):
        try:
            se = hessian_std_errors(f, x)
        except (SpinvError, np.linalg.LinAlgError):
            pass
    return FitResult(
        family=family,
        method=method,
        param_names=tr.names,
        params=x.copy(),
        nll=float(fun),
        std_errors=se,
        n_evals=int(nfev),
        converged=bool(success),
        failed_evals=failed,
    )


def profile_nll(
    family: str,
    data: ReturnSeries,
    method: str,
    quad: QuadratureSpec,
    fixed_param: str,
    grid,
    init=None,
) -> list:
    """Profile NLL over one unconstrained coordinate, warm-starting along the grid.

    Returns ProfilePoint(value, nll, converged, failed_evals) per grid
    entry. The objective is +inf wherever the likelihood fails, so a grid
    value at which it fails everywhere is recorded with nll = inf and
    converged = False after one Nelder-Mead iteration, and the sweep goes
    on from the last finite point. failed_evals counts the failed
    evaluations of that grid entry's re-fit, by exception type name, as
    in FitResult.
    """
    tr, vec, f, failed = _fit_setup(family, data, method, quad, init)
    if fixed_param not in tr.names:
        raise ValidationError(
            f"unknown parameter {fixed_param!r}; expected one of {tr.names}"
        )
    idx = tr.names.index(fixed_param)
    free = [i for i in range(len(tr.names)) if i != idx]
    out = []
    warm = vec[free]
    for g in grid:
        full = vec.copy()
        full[idx] = g

        def reduced(sub):
            full[free] = sub
            return f(full)

        failed.clear()
        x, fun, _, success = _nelder_mead(reduced, warm)
        out.append(ProfilePoint(float(g), float(fun), bool(success), dict(failed)))
        if np.isfinite(fun):
            warm = x
    return out


def _symmetric_tail_half_width(p: NigParams, mass: float) -> float:
    """Half-width a with P(|X| > a) = mass under the exact density of a
    zero-centered symmetric NIG, by root-finding on adaptive quadrature."""
    from scipy.integrate import quad as adaptive_quad
    from scipy.optimize import brentq

    def excess(a):
        tail, _ = adaptive_quad(
            lambda x: math.exp(nig_exact_log_density(p, np.array([x]))[0]), a, math.inf, epsabs=1e-3 * mass
        )
        return 2.0 * tail - mass

    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    return brentq(excess, 0.0, hi, xtol=1e-6)


def kl_asymptotic_estimator(theta0: float, method: str = "spi") -> float:
    """Asymptotic MLE under model misspecification-by-approximation.

    The truth is the symmetric NIG with chi = psi = 1/theta0 (unit variance,
    zero mean; theta is the variance of the mixing variable). The estimator
    is the argmin over theta in [0, 4*theta0] of the cross-entropy
    -int log p_approx(x; theta) p(x; theta0) dx over the whole line, the
    quantity the MLE converges to as n grows. scipy's bounded Brent search
    evaluates only inside the bracket, so it nears the SPA's boundary
    minimum without evaluating theta = 0.

    The integral is cut to [-a, a], where the exact truth leaves mass
    _KL_TAIL_MASS = 1e-6 outside (a = 8.68, 10.87, 13.94 at theta0 = 0.5,
    1, 2), and taken by scipy's Simpson with step at most _KL_STEP = 0.12.
    Every candidate is symmetric like the truth, so only x >= 0 is
    evaluated and the integral doubled. With this window SPI recovers
    theta0 to within 2e-4; SPA collapses to the boundary for theta0 <= 1
    and stops at an interior minimum near 0.042 for theta0 = 2, a 98%
    downward bias.
    """
    check_value("theta0", theta0, "positive")
    if method not in ("spi", "spa"):
        raise ValidationError(f"method must be spi or spa, got {method!r}")
    from scipy.integrate import simpson
    from scipy.optimize import minimize_scalar
    truth = NigParams(chi=1.0 / theta0, psi=1.0 / theta0, mu=0.0, gamma=0.0)
    half_width = _symmetric_tail_half_width(truth, _KL_TAIL_MASS)
    n_points = 2 * math.ceil(half_width / (2.0 * _KL_STEP)) + 1
    xs, h = QuadratureSpec(half_width, n_points).grid()
    p_truth = np.exp(nig_exact_log_density(truth, xs))

    def cross_entropy(theta):
        model = Nig(NigParams(chi=1.0 / theta, psi=1.0 / theta, mu=0.0, gamma=0.0))
        if method == "spi":
            logp = spi_log_density_batch(model, xs)
        else:
            logp = spa_log_density_batch(model, xs)
        return -2.0 * float(simpson(p_truth * logp, dx=h))

    bounds, options = (0.0, 4.0 * theta0), {"xatol": 1e-8 + 1e-6 * theta0}
    return float(minimize_scalar(cross_entropy, bounds=bounds, method="bounded", options=options).x)


def hessian_std_errors(nll, at: np.ndarray) -> np.ndarray:
    """Std errors from the inverse central-difference Hessian of nll at `at`.

    Step is 1e-4 relative per coordinate. A non-positive-definite Hessian
    means the point is not a proper interior minimum and raises.
    """
    at = np.asarray(at, dtype=float)
    n = at.size
    h = 1e-4 * np.maximum(1.0, np.abs(at))
    f0 = nll(at)
    hess = np.empty((n, n))

    def shifted(*pairs):
        v = at.copy()
        for i, s in pairs:
            v[i] += s * h[i]
        return nll(v)

    for i in range(n):
        hess[i, i] = (shifted((i, 1)) + shifted((i, -1)) - 2.0 * f0) / h[i] ** 2
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = (
                shifted((i, 1), (j, 1))
                - shifted((i, 1), (j, -1))
                - shifted((i, -1), (j, 1))
                + shifted((i, -1), (j, -1))
            ) / (4.0 * h[i] * h[j])
    eigs = np.linalg.eigvalsh(hess)
    if eigs[0] <= 0.0:
        raise ConvergenceError(
            f"Hessian not positive definite: smallest eigenvalue {eigs[0]:.3e} <= 0"
        )
    cov = np.linalg.inv(hess)
    return np.sqrt(np.diag(cov))
