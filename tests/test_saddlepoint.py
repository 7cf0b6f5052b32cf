"""Tests for the safeguarded saddlepoint solver."""

import logging
import math
import re

import numpy as np
import pytest

from spinv.cgf import CgfModel, DomainInterval
from spinv.errors import ConvergenceError, UnattainableMeanError
from spinv.models import (
    Gaussian,
    GaussianParams,
    MjdParams,
    MjdTransition,
    Nig,
    NigParams,
)
from spinv.saddlepoint import solve_saddlepoint, solve_saddlepoint_batch


_NIG_P = NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
_NIG_SMALL = NigParams(chi=0.125, psi=0.125)
# rare-jump MJD whose quadratic-CGF start lands far past the root
_MJD_OVERSHOOT = MjdParams(
    r=-0.070570064407859,
    sigma=0.49172766538623464,
    lam=1.6992332583777303,
    mu_j=0.000738395180442688,
    nu=0.09214579439578725,
)
_X_OVERSHOOT = -0.1613494368396049


def _random_nig(rng):
    return Nig(
        NigParams(
            chi=10 ** rng.uniform(-4, 1),
            psi=10 ** rng.uniform(-1, 4),
            mu=rng.uniform(-1, 1),
            gamma=rng.uniform(-3, 3),
        )
    )


def _assert_within_scalar_gap(m, xs, batch, scalar):
    # both satisfy the residual tolerance; in tau that allows a gap
    # of about 2 * tol / K''(tau_hat)
    gap = 2e-10 * np.maximum(1.0, np.abs(xs)) / m.k2(scalar)
    assert np.all(np.abs(batch - scalar) <= np.maximum(gap, 1e-12))


class Exponential(CgfModel):
    """Exponential(rate) CGF; K' is bounded below by 0, so negative
    targets are unattainable. Exercises the user-model extension point."""

    def __init__(self, rate: float):
        self.rate = rate

    def k(self, t):
        return -np.log1p(-np.asarray(t, dtype=float) / self.rate)

    def k_complex(self, z):
        return -np.log(1.0 - np.asarray(z, dtype=complex) / self.rate)

    def k1(self, t):
        return 1.0 / (self.rate - np.asarray(t, dtype=float))

    def k2(self, t):
        return 1.0 / (self.rate - np.asarray(t, dtype=float)) ** 2

    def domain(self) -> DomainInterval:
        return DomainInterval(-np.inf, self.rate)


class TestExactCases:
    def test_gaussian_closed_form_few_iterations(self):
        m = Gaussian(GaussianParams(mu=0.3, sigma=2.0))
        sp = solve_saddlepoint(m, 1.7)
        np.testing.assert_allclose(sp.tau_hat, (1.7 - 0.3) / 4.0, rtol=1e-12)
        assert sp.iterations <= 2

    def test_at_mean_tau_is_zero(self):
        for m in (
            Gaussian(GaussianParams(mu=-1.0, sigma=0.5)),
            Nig(NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)),
            MjdTransition(
                MjdParams(r=0.05, sigma=0.2, lam=3.0, mu_j=-0.05, nu=0.1), 0.0, 1.0 / 252.0
            ),
        ):
            sp = solve_saddlepoint(m, m.mean())
            assert sp.tau_hat == 0.0
            assert sp.iterations == 0

    def test_solution_fields(self):
        m = Nig(NigParams(chi=1.0, psi=4.0, mu=0.0, gamma=0.5))
        x0 = m.mean() + 1.5 * np.sqrt(m.variance())
        sp = solve_saddlepoint(m, x0)
        np.testing.assert_allclose(sp.k_at, float(m.k(sp.tau_hat)), rtol=1e-14)
        np.testing.assert_allclose(sp.k2_at, float(m.k2(sp.tau_hat)), rtol=1e-14)
        np.testing.assert_allclose(sp.residual, float(m.k1(sp.tau_hat)) - x0, atol=1e-12)


class TestResidualTolerance:
    def test_random_models_and_targets(self):
        # mixed families, targets up to 6 sd from the mean
        rng = np.random.default_rng(123)
        for trial in range(300):
            fam = ("gauss", "nig", "mjd")[trial % 3]
            if fam == "gauss":
                m = Gaussian(GaussianParams(mu=rng.uniform(-2, 2), sigma=rng.uniform(0.05, 3.0)))
            elif fam == "nig":
                m = _random_nig(rng)
            else:
                m = MjdTransition(
                    MjdParams(
                        r=rng.uniform(-0.1, 0.2),
                        sigma=rng.uniform(0.05, 0.5),
                        lam=10 ** rng.uniform(-1, 2.5),
                        mu_j=rng.uniform(-0.1, 0.1),
                        nu=10 ** rng.uniform(-2.5, -0.5),
                    ),
                    x0=0.0,
                    dt=1.0 / 252.0,
                )
            x0 = m.mean() + rng.uniform(-6, 6) * np.sqrt(m.variance())
            sp = solve_saddlepoint(m, x0)
            assert abs(sp.residual) <= 1e-10 * max(1.0, abs(x0))
            assert m.domain().contains(sp.tau_hat)

    def test_far_overshooting_initial_guess(self):
        # rare-jump regime: the quadratic-CGF initial guess lands two
        # orders of magnitude past the root, where the jump exponential
        # dominates and plain Newton would crawl back too slowly
        m = MjdTransition(_MJD_OVERSHOOT, x0=0.0, dt=1.0 / 252.0)
        x0 = _X_OVERSHOOT
        sp = solve_saddlepoint(m, x0)
        assert abs(sp.residual) <= 1e-10 * max(1.0, abs(x0))
        assert sp.iterations <= 40


class TestMonotonicity:
    @pytest.mark.parametrize(
        "model",
        [
            Gaussian(GaussianParams(mu=0.1, sigma=1.2)),
            Nig(NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)),
            Nig(NigParams(chi=1.0, psi=1.0, mu=0.0, gamma=-0.5)),
            MjdTransition(
                MjdParams(r=0.0445, sigma=np.exp(-2.41), lam=np.exp(4.96), mu_j=-0.00114, nu=np.exp(-4.32)),
                0.0,
                1.0 / 252.0,
            ),
        ],
    )
    def test_tau_increasing_in_x0(self, model):
        # K' is increasing, so its inverse tau_hat(x0) must be as well
        sd = np.sqrt(model.variance())
        xs = model.mean() + sd * np.linspace(-6.0, 6.0, 61)
        taus = np.array([solve_saddlepoint(model, float(x)).tau_hat for x in xs])
        assert np.all(np.diff(taus) > 0)


class TestUnattainableMean:
    def test_target_below_range_raises(self):
        m = Exponential(2.0)
        with pytest.raises(UnattainableMeanError):
            solve_saddlepoint(m, -0.5)

    def test_attainable_target_converges(self):
        m = Exponential(2.0)
        # K'(t) = 1/(2 - t) = 4 at t = 1.75
        sp = solve_saddlepoint(m, 4.0)
        np.testing.assert_allclose(sp.tau_hat, 1.75, rtol=1e-10)


class TestBatch:
    def test_matches_scalar(self):
        m = Nig(_NIG_P)
        xs = m.mean() + np.sqrt(m.variance()) * np.linspace(-6.0, 6.0, 41)
        batch = solve_saddlepoint_batch(m, xs)
        scalar = np.array([solve_saddlepoint(m, float(x)).tau_hat for x in xs])
        _assert_within_scalar_gap(m, xs, batch, scalar)  # K'' here is ~5e-4

    def test_residuals_within_tolerance(self):
        p = MjdParams(r=0.05, sigma=0.2, lam=3.0, mu_j=-0.05, nu=0.1)
        m = MjdTransition(p, x0=0.0, dt=1.0 / 252.0)
        xs = m.mean() + np.sqrt(m.variance()) * np.linspace(-6.0, 6.0, 101)
        taus = solve_saddlepoint_batch(m, xs)
        res = np.abs(m.k1(taus) - xs)
        assert np.all(res <= 1e-10 * np.maximum(1.0, np.abs(xs)))

    def test_error_carries_observation_index(self):
        m = Exponential(2.0)
        xs = np.array([0.6, 1.0, -0.5])
        with pytest.raises(UnattainableMeanError, match="observation 2"):
            solve_saddlepoint_batch(m, xs)


class TestStart:
    def test_random_nig_batch_meets_tolerance_and_matches_scalar(self):
        # NIG starts at its exact root; the parameters are drawn as in
        # test_random_models_and_targets
        rng = np.random.default_rng(321)
        for _ in range(100):
            m = _random_nig(rng)
            xs = m.mean() + rng.uniform(-6, 6, 20) * np.sqrt(m.variance())
            batch = solve_saddlepoint_batch(m, xs)
            assert np.all(np.abs(m.k1(batch) - xs) <= 1e-10 * np.maximum(1.0, np.abs(xs)))
            scalar = np.array([solve_saddlepoint(m, float(x)).tau_hat for x in xs])
            _assert_within_scalar_gap(m, xs, batch, scalar)

    @pytest.mark.parametrize(
        "params, sds, outcome",
        [
            (_NIG_P, 50.0, None),
            (_NIG_P, 1e3, None),
            (_NIG_P, 1e6, ConvergenceError),
            (_NIG_P, 1e9, UnattainableMeanError),
            (_NIG_P, 1e12, UnattainableMeanError),
            (_NIG_SMALL, 50.0, None),
            (_NIG_SMALL, 1e3, ConvergenceError),
            (_NIG_SMALL, 1e6, UnattainableMeanError),
            (_NIG_SMALL, 1e9, UnattainableMeanError),
            (_NIG_SMALL, 1e12, UnattainableMeanError),
        ],
    )
    def test_far_nig_rows_solve_or_raise_as_from_the_quadratic_start(self, params, sds, outcome):
        # outcome is None where the solve succeeds, else the exception type
        # it raises from the quadratic-CGF start; starting NIG at its exact
        # root must not change either
        m = Nig(params)
        for x in m.mean() + np.array([-sds, sds]) * math.sqrt(m.variance()):
            for solve in (
                lambda: solve_saddlepoint(m, x).tau_hat,
                lambda: float(solve_saddlepoint_batch(m, np.array([x]))[0]),
            ):
                if outcome is None:
                    tau = solve()
                    assert m.domain().contains(tau)
                    assert abs(float(m.k1(tau)) - x) <= 1e-10 * max(1.0, abs(x))
                else:
                    with pytest.raises(outcome):
                        solve()

    @pytest.mark.parametrize(
        "m",
        [
            MjdTransition(_MJD_OVERSHOOT, x0=0.0, dt=1.0 / 252.0),
            Exponential(2.0),
            Nig(_NIG_P),
        ],
    )
    def test_default_start_is_the_quadratic_cgf_root(self, m):
        xs = m.mean() + np.sqrt(m.variance()) * np.linspace(-60.0, 60.0, 25)
        t = (xs - m.k1(0.0)) / m.k2(0.0)
        dom = m.domain()
        if isinstance(m, Nig):
            inset = 0.01 * (dom.hi - dom.lo)
            t = np.clip(t, dom.lo + inset, dom.hi - inset)
        elif isinstance(m, Exponential):
            t = np.minimum(t, 0.5 * dom.hi)
        np.testing.assert_array_equal(CgfModel.saddlepoint_start(m, xs), t)

    def test_closed_form_starts_are_roots(self):
        for m in (Gaussian(GaussianParams(mu=0.3, sigma=2.0)), Nig(_NIG_P), Nig(_NIG_SMALL)):
            xs = m.mean() + np.sqrt(m.variance()) * np.linspace(-50.0, 50.0, 41)
            t = m.saddlepoint_start(xs)
            np.testing.assert_allclose(m.k1(t), xs, rtol=1e-10, atol=1e-10)


def _batch_record(caplog, m, xs):
    """(rows, Newton iterations, rows re-solved) from the batch solver's DEBUG record."""
    with caplog.at_level(logging.DEBUG, logger="spinv.saddlepoint"):
        caplog.clear()
        solve_saddlepoint_batch(m, xs)
    (record,) = caplog.records
    rows, iterations, rest = re.fullmatch(
        r"saddlepoint of (\d+) rows: (\d+) Newton iterations, (\d+) re-solved by the scalar solver",
        record.getMessage(),
    ).groups()
    return int(rows), int(iterations), int(rest)


class TestBatchLog:
    def test_nig_starts_at_its_root(self, caplog):
        m = Nig(_NIG_P)
        xs = m.mean() + np.sqrt(m.variance()) * np.linspace(-6.0, 6.0, 41)
        assert _batch_record(caplog, m, xs) == (41, 0, 0)

    def test_mjd_iterates(self, caplog):
        m = MjdTransition(
            MjdParams(r=0.0445, sigma=np.exp(-2.41), lam=np.exp(4.96), mu_j=-0.00114, nu=np.exp(-4.32))
        )
        xs = m.mean() + np.sqrt(m.variance()) * np.linspace(-6.0, 6.0, 101)
        rows, iterations, rest = _batch_record(caplog, m, xs)
        assert rows == 101 and iterations > 0 and rest == 0

    def test_scalar_re_solve_is_counted(self, caplog):
        m = MjdTransition(_MJD_OVERSHOOT, x0=0.0, dt=1.0 / 252.0)
        xs = np.array([m.mean(), _X_OVERSHOOT])
        assert _batch_record(caplog, m, xs) == (2, 100, 1)
