"""Tests for the MLE layer: likelihoods, transforms, fitting, profiles."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import norm

from spinv import estimation
from spinv.errors import ConvergenceError, DomainError, ValidationError
from spinv.estimation import (
    GbmParams,
    ProfilePoint,
    ReturnSeries,
    _fit_setup,
    _nelder_mead,
    _symmetric_tail_half_width,
    fit_mle,
    hessian_std_errors,
    kl_asymptotic_estimator,
    moment_init,
    negative_log_likelihood,
    profile_nll,
    transform_for,
)
from spinv.inversion import QuadratureSpec
from spinv.models import (
    MjdParams,
    MjdTransition,
    NigParams,
    nig_exact_log_density,
    simulate_mjd_path,
    simulate_nig,
)

_DT = 1.0 / 252.0


def _gbm_series(n=400, r=0.08, sigma=0.3, seed=21):
    rng = np.random.default_rng(seed)
    incr = (r - 0.5 * sigma**2) * _DT + sigma * np.sqrt(_DT) * rng.standard_normal(n)
    return ReturnSeries(dt=_DT, returns=incr)


_MJD = MjdParams(r=0.05, sigma=0.2, lam=3.0, mu_j=-0.05, nu=0.1)
_NIG = NigParams(chi=1.0, psi=1.0)


@pytest.mark.parametrize(
    "call, error, match",
    [
        # not gbm, whose exact likelihood takes no method
        (lambda: negative_log_likelihood("nig", _NIG, _gbm_series(), "bogus"),
         ValidationError, "unknown method 'bogus'"),
        (lambda: transform_for("bogus"), ValidationError, "unknown family 'bogus'"),
        (lambda: moment_init("gaussian", _gbm_series()), ValidationError, "cannot be fitted"),
        (lambda: profile_nll("gbm", _gbm_series(), "oracle", None, "log_lambda", [0.0]),
         ValidationError, "unknown parameter 'log_lambda'"),
        (lambda: moment_init("gbm", ReturnSeries(dt=_DT, returns=np.full(5, 0.01))),
         ValidationError, "zero variance"),
        (lambda: kl_asymptotic_estimator(0.0), ValidationError, "theta0 must be positive"),
        (lambda: kl_asymptotic_estimator(1.0, "direct"), ValidationError, "spi or spa"),
        (lambda: GbmParams(0.0, 0.2).increment(0.0), ValidationError, "dt must be positive"),
        (lambda: GbmParams(0.0, 0.2).increment(math.inf), ValidationError,
         "dt must be positive and finite, got inf"),
        (lambda: ReturnSeries(dt=math.inf, returns=np.zeros(3)), ValidationError,
         "dt must be positive and finite, got inf"),
        (lambda: ReturnSeries(dt=_DT, returns=[0.0, math.nan]), ValidationError,
         r"returns must be finite, got returns\[1\] = nan"),
        (lambda: simulate_nig(_NIG, 0, 1), ValidationError, "n must be at least 1"),
        (lambda: simulate_mjd_path(_MJD, 0.0, _DT, 0, 1), ValidationError, "n_steps must be at least 1"),
        (lambda: simulate_mjd_path(_MJD, 0.0, 0.0, 5, 1), ValidationError, "dt must be positive"),
        (lambda: nig_exact_log_density(_NIG, np.array([0.0, np.inf])), ValidationError,
         r"x must be finite, got x\[1\] = inf"),
        (lambda: nig_exact_log_density(_NIG, np.array([0.0, 1e200])), DomainError, "positive and finite"),
    ],
    ids=[
        "nll-method", "transform-family", "moment-init-family", "profile-param",
        "moment-init-zero-variance", "kl-theta0", "kl-method", "gbm-increment-dt",
        "gbm-increment-dt-inf", "return-series-dt-inf", "return-series-nan",
        "simulate-nig-n", "simulate-mjd-steps", "simulate-mjd-dt", "nig-oracle-x",
        "nig-oracle-overflow",
    ],
)
def test_invalid_call_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestReturnSeries:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ReturnSeries(dt=0.0, returns=np.array([0.1]))
        with pytest.raises(ValidationError):
            ReturnSeries(dt=_DT, returns=np.array([]))
        with pytest.raises(ValidationError):
            ReturnSeries(dt=_DT, returns=np.array([0.1, np.nan]))

    def test_coerces_sequences(self):
        s = ReturnSeries(dt=_DT, returns=[0.01, -0.02, 0.005])
        assert s.returns.dtype == np.float64
        assert s.returns.shape == (3,)


class TestTransforms:
    @pytest.mark.parametrize("family", ["gbm", "nig", "mjd"])
    def test_round_trip(self, family):
        tr = transform_for(family)
        if family == "gbm":
            params = GbmParams(r=0.05, sigma=0.25)
        elif family == "nig":
            params = NigParams(chi=0.3, psi=12.0, mu=-0.01, gamma=1.5)
        else:
            params = MjdParams(r=0.02, sigma=0.15, lam=40.0, mu_j=-0.01, nu=0.02)
        vec = tr.to_vector(params)
        back = tr.from_vector(vec)
        assert type(back) is type(params)
        for name in tr.names:
            pass  # names correspond to vector entries, checked via round trip
        np.testing.assert_allclose(tr.to_vector(back), vec, rtol=1e-14)

    def test_positive_params_are_logged(self):
        tr = transform_for("nig")
        assert tr.names[0] == "log_chi" and tr.names[1] == "log_psi"
        vec = tr.to_vector(NigParams(chi=np.exp(2.0), psi=np.exp(-1.0), mu=0.0, gamma=0.0))
        np.testing.assert_allclose(vec[:2], [2.0, -1.0], rtol=1e-14)


class TestNegativeLogLikelihood:
    def test_gbm_closed_form(self):
        data = _gbm_series(n=200)
        p = GbmParams(r=0.08, sigma=0.3)
        nll = negative_log_likelihood("gbm", p, data)
        mu = (p.r - 0.5 * p.sigma**2) * _DT
        var = p.sigma**2 * _DT
        expected = 0.5 * np.sum(
            np.log(2 * np.pi * var) + (data.returns - mu) ** 2 / var
        )
        np.testing.assert_allclose(nll, expected, rtol=1e-12)

    def test_nig_spi_matches_oracle(self):
        p = NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
        obs = simulate_nig(p, 50, seed=3)
        data = ReturnSeries(dt=_DT, returns=obs)
        oracle = negative_log_likelihood("nig", p, data, method="oracle")
        spi = negative_log_likelihood(
            "nig", p, data, method="spi", quad=QuadratureSpec(800.0, 16384)
        )
        np.testing.assert_allclose(spi, oracle, atol=1e-5)

    def test_mjd_spi_matches_oracle(self):
        p = MjdParams(r=0.0445, sigma=np.exp(-2.41), lam=np.exp(4.96), mu_j=-0.00114, nu=np.exp(-4.32))
        path = simulate_mjd_path(p, x0=0.0, dt=_DT, n_steps=50, seed=5)
        data = ReturnSeries(dt=_DT, returns=np.diff(path))
        oracle = negative_log_likelihood("mjd", p, data, method="oracle")
        spi = negative_log_likelihood(
            "mjd", p, data, method="spi", quad=QuadratureSpec(64.0, 513)
        )
        np.testing.assert_allclose(spi, oracle, atol=1e-6)

    def test_spa_is_offset_not_equal(self):
        p = NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
        obs = simulate_nig(p, 50, seed=3)
        data = ReturnSeries(dt=_DT, returns=obs)
        spa = negative_log_likelihood("nig", p, data, method="spa")
        oracle = negative_log_likelihood("nig", p, data, method="oracle")
        assert abs(spa - oracle) > 1.0


class TestMomentInit:
    def test_gbm(self):
        data = _gbm_series(n=5000, seed=8)
        init = moment_init("gbm", data)
        assert isinstance(init, GbmParams)
        np.testing.assert_allclose(init.sigma, 0.3, rtol=0.1)

    def test_nig_positive(self):
        p = NigParams(chi=1.0, psi=4.0, mu=0.0, gamma=0.5)
        data = ReturnSeries(dt=_DT, returns=simulate_nig(p, 2000, seed=4))
        init = moment_init("nig", data)
        assert init.chi > 0 and init.psi > 0

    def test_mjd_valid(self):
        p = MjdParams(r=0.05, sigma=0.2, lam=50.0, mu_j=0.0, nu=0.02)
        path = simulate_mjd_path(p, x0=0.0, dt=_DT, n_steps=2000, seed=6)
        init = moment_init("mjd", ReturnSeries(dt=_DT, returns=np.diff(path)))
        assert init.sigma > 0 and init.lam > 0 and init.nu > 0


class TestFitMle:
    def test_gbm_matches_closed_form_mle(self):
        data = _gbm_series(n=1000, seed=13)
        fit = fit_mle("gbm", data)
        x = data.returns
        v = x.var()  # MLE variance (1/n)
        sigma_hat = np.sqrt(v / _DT)
        r_hat = x.mean() / _DT + 0.5 * sigma_hat**2
        assert fit.converged and fit.failed_evals == {}
        est = dict(zip(fit.param_names, fit.params))
        np.testing.assert_allclose(est["r"], r_hat, atol=1e-5)
        np.testing.assert_allclose(est["log_sigma"], np.log(sigma_hat), atol=1e-6)

    def test_std_errors_finite_and_scaled(self):
        data = _gbm_series(n=1000, seed=13)
        fit = fit_mle("gbm", data)
        se = dict(zip(fit.param_names, fit.std_errors))
        assert np.all(np.isfinite(fit.std_errors))
        # log-sigma SE for n Gaussian observations is ~1/sqrt(2n)
        np.testing.assert_allclose(se["log_sigma"], 1.0 / np.sqrt(2000.0), rtol=0.2)

    def test_explicit_init_accepted(self):
        data = _gbm_series(n=300, seed=2)
        fit = fit_mle("gbm", data, init=GbmParams(r=0.0, sigma=0.2))
        assert fit.converged
        assert fit.nll <= negative_log_likelihood("gbm", GbmParams(r=0.0, sigma=0.2), data)

    def test_start_where_every_evaluation_fails_stops_early(self):
        # exp(800) overflows, so every vertex of the first simplex is +inf;
        # the fit gives up after that iteration, not after maxfev = 20000
        p = NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
        data = ReturnSeries(dt=_DT, returns=simulate_nig(p, 300, seed=4))
        init = np.array([800.0, math.log(p.psi), p.mu, p.gamma])
        fit = fit_mle("nig", data, method="oracle", init=init)
        assert fit.n_evals <= 50
        assert fit.nll == math.inf and not fit.converged
        assert np.isnan(fit.std_errors).all()
        # a search that ended on +inf runs no Hessian: only its own evaluations fail
        assert fit.failed_evals == {"OverflowError": fit.n_evals}

    def test_unusable_p_bar_is_an_infinite_counted_evaluation(self):
        # p_bar(0) at x = -20 of this heavy-tailed NIG is unusable under
        # the fixed rule (100, 513) (tests/test_inversion.py,
        # TestInversionErrors)
        data = ReturnSeries(dt=_DT, returns=np.array([0.0, -20.0]))
        _, _, f, failed = _fit_setup("nig", data, "spi", QuadratureSpec(100.0, 513), None)
        assert f(transform_for("nig").to_vector(NigParams(chi=0.125, psi=0.125))) == math.inf
        assert failed == {"InversionError": 1}

    def test_derived_value_that_overflows_is_a_counted_refusal(self):
        # exp(mu_j + nu^2/2) overflows at mu_j = 1000: the model refuses it
        # as any other invalid input, not as a bare OverflowError
        data = ReturnSeries(dt=_DT, returns=np.array([0.0, 0.01, -0.02]))
        _, _, f, failed = _fit_setup("mjd", data, "spa", None, None)
        p = MjdParams(r=0.0, sigma=0.2, lam=10.0, mu_j=1000.0, nu=0.1)
        assert f(transform_for("mjd").to_vector(p)) == math.inf
        assert failed == {"ValidationError": 1}

    def test_hessian_that_is_not_positive_definite_leaves_nan_std_errors(self):
        # SPA's NIG fit to Gaussian returns ends where the finite-difference
        # Hessian has a negative eigenvalue: the search's result stands, and
        # only the standard errors are lost
        data = ReturnSeries(dt=_DT, returns=np.random.default_rng(0).normal(0.0, 0.01, 40))
        _, vec0, f, failed = _fit_setup("nig", data, "spa", None, None)
        x, fun, nfev, success = _nelder_mead(f, vec0)
        with pytest.raises(ConvergenceError, match="not positive definite"):
            hessian_std_errors(f, x)
        fit = fit_mle("nig", data, method="spa")
        assert np.isnan(fit.std_errors).all() and fit.std_errors.size == 4
        assert np.array_equal(fit.params, x) and fit.nll == fun and fit.n_evals == nfev
        assert fit.converged == success
        assert fit.failed_evals == failed == {}


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _inf_above_plane(x):
    # +inf on the half-space x0 + x1 + x2 > 1; the unconstrained minimum lies in it
    if x.sum() > 1.0:
        return math.inf
    return float((x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2 + 3.0 * x[2] ** 2 + x[0] * x[2])


def _inf_right_of_ten(x):
    return math.inf if x[0] > 10.0 else float(x @ x)


def _wiggle(x):
    # finite everywhere, and its search ends in a shrink
    return float(x @ x + 0.5 * np.sin(40.0 * x[0]))


def _scipy_nelder_mead(f, x0):
    def stop_while_all_inf(intermediate_result):
        if intermediate_result.fun == np.inf:
            raise StopIteration

    return minimize(
        f, x0, method="Nelder-Mead", callback=stop_while_all_inf, options=estimation._NM_OPTIONS
    )


def _assert_same_as_scipy(f, x0):
    # returns scipy's result, which the port's (x, fun, nfev, success) equals
    x, fun, nfev, success = _nelder_mead(f, x0)
    ref = _scipy_nelder_mead(f, x0)
    assert np.array_equal(x, ref.x)
    assert fun == ref.fun
    assert nfev == ref.nfev
    assert success == ref.success
    return ref


_ROSENBROCK_START = np.array([-1.2, 1.0, 0.0, 0.5, 2.0])


class TestNelderMead:
    """The port gives scipy's Nelder-Mead result bit for bit."""

    def test_rosenbrock_from_a_zero_coordinate(self):
        res = _assert_same_as_scipy(_rosenbrock, _ROSENBROCK_START)
        assert res.success

    def test_objective_infinite_on_a_half_space(self):
        res = _assert_same_as_scipy(_inf_above_plane, np.array([0.0, -1.0, 0.5]))
        assert res.success and math.isfinite(res.fun)

    def test_all_infinite_start_stops_after_one_iteration(self):
        res = _assert_same_as_scipy(_inf_right_of_ten, np.array([20.0, 1.0, 1.0]))
        assert res.fun == math.inf and not res.success and res.nfev < 10

    def test_mjd_oracle_fit(self):
        p = MjdParams(
            r=0.0445, sigma=np.exp(-2.41), lam=np.exp(4.96), mu_j=-0.00114, nu=np.exp(-4.32)
        )
        data = ReturnSeries(dt=_DT, returns=np.diff(simulate_mjd_path(p, 0.0, _DT, 4500, seed=7)))
        _, x0, f, _ = _fit_setup("mjd", data, "oracle", None, None)
        res = _assert_same_as_scipy(f, x0)
        assert res.success

    @pytest.mark.parametrize(
        "f, x0, maxfev",
        [
            pytest.param(_rosenbrock, _ROSENBROCK_START, 3, id="first-simplex"),
            pytest.param(_rosenbrock, _ROSENBROCK_START, 7, id="expansion"),
            pytest.param(_wiggle, np.array([1.0, -2.0, 0.5]), 251, id="shrink"),
            pytest.param(_inf_right_of_ten, np.array([20.0, 1.0, 1.0]), 7, id="shrink-all-inf"),
        ],
    )
    def test_maxfev_stop(self, monkeypatch, f, x0, maxfev):
        # maxfev is checked before an evaluation, so each stop cuts off the
        # rest of a first simplex, an expansion or a shrink
        monkeypatch.setattr(estimation, "_NM_OPTIONS", dict(estimation._NM_OPTIONS, maxfev=maxfev))
        res = _assert_same_as_scipy(f, x0)
        assert res.nfev == maxfev and not res.success

    @pytest.mark.parametrize("maxiter", [3, 7, 25, 20000])
    @pytest.mark.parametrize(
        "f, x0",
        [
            pytest.param(_rosenbrock, _ROSENBROCK_START, id="rosenbrock"),
            pytest.param(_wiggle, np.array([1.0, -2.0, 0.5]), id="wiggle"),
            pytest.param(_inf_above_plane, np.array([0.0, -1.0, 0.5]), id="inf-above-plane"),
        ],
    )
    def test_every_small_budget_stops_as_scipy_does(self, monkeypatch, f, x0, maxiter):
        # every maxfev up to 59 cuts the search at a different evaluation:
        # in the first simplex, a reflection, an expansion, a contraction
        # or a shrink, each with maxiter stopping it too or not
        for maxfev in [*range(1, 60), 100, 250, 500]:
            options = dict(estimation._NM_OPTIONS, maxfev=maxfev, maxiter=maxiter)
            monkeypatch.setattr(estimation, "_NM_OPTIONS", options)
            _assert_same_as_scipy(f, x0)

    @pytest.mark.parametrize("maxiter", [1, 2, 30])
    def test_maxiter_stop(self, monkeypatch, maxiter):
        monkeypatch.setattr(estimation, "_NM_OPTIONS", dict(estimation._NM_OPTIONS, maxiter=maxiter))
        res = _assert_same_as_scipy(_rosenbrock, _ROSENBROCK_START)
        assert not res.success


class TestProfile:
    def test_gbm_profile_brackets_mle(self):
        data = _gbm_series(n=500, seed=17)
        fit = fit_mle("gbm", data)
        est = dict(zip(fit.param_names, fit.params))
        grid = est["r"] + np.linspace(-2.0, 2.0, 9)
        pts = profile_nll("gbm", data, method="oracle", quad=None, fixed_param="r", grid=grid)
        assert len(pts) == 9
        assert all(p.converged for p in pts)
        nlls = np.array([p.nll for p in pts])
        # profile NLL is minimized at the grid point nearest the MLE
        assert np.argmin(nlls) == 4
        np.testing.assert_allclose(nlls.min(), fit.nll, atol=0.05)
        assert nlls[0] > nlls.min() and nlls[-1] > nlls.min()

    def test_point_where_every_fit_fails_is_inf_not_converged(self):
        # exp(800) overflows, so at log_chi = 800 the objective is +inf
        # everywhere; the sweep records that point, with its failures
        # counted, and goes on; the counts are per grid point
        p = NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
        data = ReturnSeries(dt=_DT, returns=simulate_nig(p, 300, seed=4))
        pts = profile_nll("nig", data, "oracle", None, "log_chi", [800.0, math.log(p.chi)])
        # 4 vertices, a reflection, a contraction and a 3-vertex shrink
        assert pts[0] == ProfilePoint(800.0, math.inf, False, {"OverflowError": 9})
        assert math.isfinite(pts[1].nll) and pts[1].converged
        assert pts[1].failed_evals == {}


class TestHessianStdErrors:
    def test_known_quadratic(self):
        H = np.array([[4.0, 1.0], [1.0, 2.0]])
        a = np.array([0.3, -0.7])

        def nll(theta):
            d = np.asarray(theta) - a
            return 0.5 * d @ H @ d + 5.0

        se = hessian_std_errors(nll, a)
        np.testing.assert_allclose(se, np.sqrt(np.diag(np.linalg.inv(H))), rtol=1e-5)

    def test_non_positive_definite_raises(self):
        def nll(theta):
            return -0.5 * float(np.sum(np.asarray(theta) ** 2))

        with pytest.raises(ConvergenceError, match="positive definite"):
            hessian_std_errors(nll, np.array([0.0, 0.0]))


class TestKlWindow:
    def test_gaussian_limit(self):
        # chi = psi -> inf is N(0, 1), whose two-sided 1e-6 point is known
        p = NigParams(chi=1e8, psi=1e8, mu=0.0, gamma=0.0)
        np.testing.assert_allclose(
            _symmetric_tail_half_width(p, 1e-6), norm.isf(5e-7), atol=1e-5
        )

    @pytest.mark.parametrize(
        "theta0, half_width", [(0.5, 8.677661), (1.0, 10.872340), (2.0, 13.935010)]
    )
    def test_experiment_windows(self, theta0, half_width):
        # references from quad at epsabs 1e-15, epsrel 1e-12 and brentq
        p = NigParams(chi=1.0 / theta0, psi=1.0 / theta0, mu=0.0, gamma=0.0)
        np.testing.assert_allclose(_symmetric_tail_half_width(p, 1e-6), half_width, atol=1e-5)


class TestKlAsymptoticEstimator:
    def test_spa_drives_theta_to_zero(self):
        # the uncorrected approximation understates curvature mismatch
        # and the optimizer collapses to the degenerate boundary
        theta_hat = kl_asymptotic_estimator(0.5, method="spa")
        assert abs(theta_hat) <= 1e-3
