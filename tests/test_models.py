"""Tests for the built-in model families and their closed-form densities."""

import numpy as np
import pytest
from scipy import stats

from spinv.errors import DomainError, ValidationError
from spinv.models import (
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

_NIG_CASES = [
    NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0),
    NigParams(chi=1.0, psi=1.0, mu=0.0, gamma=0.0),
    NigParams(chi=0.5, psi=8.0, mu=-0.2, gamma=-1.5),
]


class TestParamValidation:
    def test_gaussian_sigma_positive(self):
        with pytest.raises(ValidationError):
            GaussianParams(mu=0.0, sigma=0.0)
        with pytest.raises(ValidationError):
            GaussianParams(mu=0.0, sigma=-1.0)

    def test_nig_chi_psi_positive(self):
        with pytest.raises(ValidationError):
            NigParams(chi=0.0, psi=1.0, mu=0.0, gamma=0.0)
        with pytest.raises(ValidationError):
            NigParams(chi=1.0, psi=-2.0, mu=0.0, gamma=0.0)

    def test_mjd_constraints(self):
        with pytest.raises(ValidationError):
            MjdParams(r=0.0, sigma=-0.1, lam=1.0, mu_j=0.0, nu=0.1)
        with pytest.raises(ValidationError):
            MjdParams(r=0.0, sigma=0.1, lam=-1.0, mu_j=0.0, nu=0.1)
        with pytest.raises(ValidationError):
            MjdParams(r=0.0, sigma=0.1, lam=1.0, mu_j=0.0, nu=-0.1)

    def test_mjd_transition_dt_positive(self):
        p = MjdParams(r=0.0, sigma=0.1, lam=1.0, mu_j=0.0, nu=0.1)
        with pytest.raises(ValidationError):
            MjdTransition(p, x0=0.0, dt=0.0)


class TestGaussian:
    def test_cgf_closed_form(self):
        m = Gaussian(GaussianParams(mu=0.3, sigma=2.0))
        t = np.linspace(-3.0, 3.0, 13)
        np.testing.assert_allclose(m.k(t), 0.3 * t + 2.0 * t**2, rtol=1e-14)
        np.testing.assert_allclose(m.k1(t), 0.3 + 4.0 * t, rtol=1e-14)
        np.testing.assert_allclose(m.k2(t), 4.0, rtol=1e-14)

    def test_log_density_matches_scipy(self):
        p = GaussianParams(mu=-0.5, sigma=1.3)
        x = np.linspace(-6.0, 6.0, 25)
        np.testing.assert_allclose(
            gaussian_log_density(p, x),
            stats.norm.logpdf(x, loc=-0.5, scale=1.3),
            rtol=1e-13,
        )


class TestNig:
    @pytest.mark.parametrize("p", _NIG_CASES)
    def test_domain_formula(self, p):
        m = Nig(p)
        d = m.domain()
        half = np.sqrt(p.gamma**2 + p.psi)
        np.testing.assert_allclose(d.lo, -p.gamma - half, rtol=1e-14)
        np.testing.assert_allclose(d.hi, -p.gamma + half, rtol=1e-14)

    @pytest.mark.parametrize("p", _NIG_CASES)
    def test_moments_formulas(self, p):
        m = Nig(p)
        mean, var = nig_moments(p)
        np.testing.assert_allclose(mean, p.mu + p.gamma * np.sqrt(p.chi / p.psi), rtol=1e-14)
        np.testing.assert_allclose(
            var, np.sqrt(p.chi / p.psi) * (1.0 + p.gamma**2 / p.psi), rtol=1e-14
        )
        np.testing.assert_allclose(m.mean(), mean, rtol=1e-12)
        np.testing.assert_allclose(m.variance(), var, rtol=1e-12)

    @pytest.mark.parametrize("p", _NIG_CASES)
    def test_exact_density_matches_scipy_norminvgauss(self, p):
        # scipy's (a, b, loc, scale) parametrization: a = alpha * delta,
        # b = beta * delta with alpha^2 = psi + gamma^2, beta = gamma,
        # delta = sqrt(chi)
        delta = np.sqrt(p.chi)
        a = np.sqrt(p.chi * (p.psi + p.gamma**2))
        b = p.gamma * delta
        mean, var = nig_moments(p)
        x = mean + np.sqrt(var) * np.linspace(-6.0, 6.0, 41)
        expected = stats.norminvgauss.logpdf(x, a, b, loc=p.mu, scale=delta)
        np.testing.assert_allclose(nig_exact_log_density(p, x), expected, rtol=1e-10)

    def test_outside_domain_raises(self):
        p = NigParams(chi=1.0, psi=1.0, mu=0.0, gamma=0.0)
        m = Nig(p)
        with pytest.raises(DomainError):
            m.k(1.5)  # domain is (-1, 1)

    def test_large_psi_cancellation_free(self):
        # K(t) = t mu + sqrt(chi) u / (sqrt(psi) + sqrt(psi - u)) avoids
        # the sqrt(psi) - sqrt(psi - u) subtraction; for psi -> inf the
        # CGF tends to the Gaussian limit t mu' + t^2 var / 2
        p = NigParams(chi=1e12, psi=1e12, mu=0.0, gamma=0.0)
        m = Nig(p)
        for t in (0.5, 2.0, -3.0):
            np.testing.assert_allclose(m.k(t), 0.5 * t**2, rtol=1e-9)
            # and off the real axis, where k_complex takes the root in real arithmetic
            z = t + 1j * np.array([0.0, 0.3, -1.0, 7.0, -40.0])
            np.testing.assert_allclose(m.k_complex(z), 0.5 * z**2, rtol=1e-9)

    def test_simulated_moments(self):
        p = NigParams(chi=1.0, psi=4.0, mu=0.3, gamma=1.0)
        obs = simulate_nig(p, 200_000, seed=5)
        mean, var = nig_moments(p)
        np.testing.assert_allclose(obs.mean(), mean, atol=5 * np.sqrt(var / 2e5))
        np.testing.assert_allclose(obs.var(), var, rtol=0.02)

    def test_simulate_deterministic(self):
        p = NigParams(chi=1.0, psi=4.0, mu=0.3, gamma=1.0)
        a = simulate_nig(p, 50, seed=9)
        b = simulate_nig(p, 50, seed=9)
        np.testing.assert_array_equal(a, b)


class TestMjdTransition:
    _P = MjdParams(r=0.05, sigma=0.2, lam=3.0, mu_j=-0.05, nu=0.1)

    def test_jump_compensator(self):
        p = self._P
        np.testing.assert_allclose(
            p.jump_compensator, np.exp(p.mu_j + 0.5 * p.nu**2) - 1.0, rtol=1e-14
        )

    def test_martingale_mean(self):
        # with the compensator in the drift, E[exp(X_dt - x0)] = exp(r dt)
        dt = 1.0 / 252.0
        m = MjdTransition(self._P, x0=0.1, dt=dt)
        np.testing.assert_allclose(m.k(1.0) - 0.1, self._P.r * dt, rtol=1e-10)

    def test_entire_domain(self):
        m = MjdTransition(self._P, x0=0.0, dt=1.0 / 252.0)
        d = m.domain()
        assert d.lo == -np.inf and d.hi == np.inf

    def test_mixture_matches_untruncated_sum(self):
        dt = 1.0 / 252.0
        m = MjdTransition(self._P, x0=0.02, dt=dt)
        mean, sd = m.mean(), np.sqrt(m.variance())
        x = mean + sd * np.linspace(-5.0, 5.0, 21)
        ours = mjd_truncated_log_density(m, x)
        # brute force: 200 Poisson terms, no truncation heuristics
        p = self._P
        lam_dt = p.lam * dt
        base = 0.02 + (p.r - p.lam * p.jump_compensator - 0.5 * p.sigma**2) * dt
        rows = []
        for i in range(200):
            log_w = stats.poisson.logpmf(i, lam_dt)
            mu_i = base + i * p.mu_j
            var_i = p.sigma**2 * dt + i * p.nu**2
            rows.append(log_w + stats.norm.logpdf(x, mu_i, np.sqrt(var_i)))
        expected = np.logaddexp.reduce(np.vstack(rows), axis=0)
        np.testing.assert_allclose(ours, expected, rtol=1e-12)

    def test_zero_jump_rate_is_gaussian(self):
        p = MjdParams(r=0.05, sigma=0.2, lam=0.0, mu_j=0.0, nu=0.1)
        dt = 1.0 / 252.0
        m = MjdTransition(p, x0=0.0, dt=dt)
        x = np.linspace(-0.05, 0.05, 11)
        mu = (p.r - 0.5 * p.sigma**2) * dt
        sd = p.sigma * np.sqrt(dt)
        np.testing.assert_allclose(
            mjd_truncated_log_density(m, x), stats.norm.logpdf(x, mu, sd), rtol=1e-12
        )

    def test_simulate_path_shape_and_seed(self):
        p = self._P
        path = simulate_mjd_path(p, x0=0.3, dt=1.0 / 252.0, n_steps=100, seed=3)
        assert path.shape == (101,)
        assert path[0] == 0.3
        again = simulate_mjd_path(p, x0=0.3, dt=1.0 / 252.0, n_steps=100, seed=3)
        np.testing.assert_array_equal(path, again)

    def test_simulated_increment_moments(self):
        p = self._P
        dt = 1.0 / 252.0
        path = simulate_mjd_path(p, x0=0.0, dt=dt, n_steps=200_000, seed=12)
        incr = np.diff(path)
        m = MjdTransition(p, x0=0.0, dt=dt)
        np.testing.assert_allclose(incr.mean(), m.mean(), atol=5 * np.sqrt(m.variance() / 2e5))
        np.testing.assert_allclose(incr.var(), m.variance(), rtol=0.02)
