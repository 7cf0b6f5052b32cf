"""Tests for quadrature and the three log-density evaluation routes."""

import numpy as np
import pytest

from spinv.errors import InversionError, QuadratureError, ValidationError
from spinv.inversion import (
    DEFAULT_DIRECT_QUAD,
    LogDensityResult,
    QuadratureSpec,
    default_spi_quad,
    direct_ift_log_density,
    direct_ift_log_density_batch,
    p_bar_zero,
    simpson_integrate,
    spa_log_density,
    spa_log_density_batch,
    spi_log_density,
    spi_log_density_batch,
)
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
)
from spinv.saddlepoint import solve_saddlepoint

_NIG_P = NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
_FINE_QUAD = QuadratureSpec(800.0, 16384)


class TestQuadratureSpec:
    def test_even_point_count_bumped_to_odd(self):
        q = QuadratureSpec(100.0, 512)
        assert q.n_points == 513

    def test_odd_point_count_kept(self):
        assert QuadratureSpec(100.0, 513).n_points == 513

    def test_validation(self):
        with pytest.raises(ValidationError):
            QuadratureSpec(-1.0, 512)
        with pytest.raises(ValidationError):
            QuadratureSpec(100.0, 2)

    def test_default_spi_quad_by_family(self):
        m = MjdTransition(
            MjdParams(r=0.05, sigma=0.2, lam=3.0, mu_j=-0.05, nu=0.1), 0.0, 1.0 / 252.0
        )
        q = default_spi_quad(m)
        assert (q.upper_limit, q.n_points) == (16.0, 129)
        g = default_spi_quad(Gaussian(GaussianParams(mu=0.0, sigma=1.0)))
        assert (g.upper_limit, g.n_points) == (100.0, 513)


class TestSimpson:
    def test_exact_for_cubics(self):
        val = simpson_integrate(lambda x: x**3 - 2 * x**2 + 4, 0.0, 3.0, 5)
        exact = 3**4 / 4 - 2 * 3**3 / 3 + 4 * 3
        np.testing.assert_allclose(val, exact, rtol=1e-14)

    def test_full_period_trig_superconvergence(self):
        # composite Simpson on full periods of cos inherits DFT
        # orthogonality: the error collapses to roundoff rather than h^4
        val = simpson_integrate(np.cos, 0.0, 2 * np.pi * 10, 513)
        np.testing.assert_allclose(val, 0.0, atol=1e-10)

    def test_h4_convergence_rate(self):
        f = np.exp
        exact = np.e - 1.0
        e1 = abs(simpson_integrate(f, 0.0, 1.0, 9) - exact)
        e2 = abs(simpson_integrate(f, 0.0, 1.0, 17) - exact)
        rate = np.log2(e1 / e2)
        assert 3.7 < rate < 4.3

    def test_non_finite_integrand_raises_with_abscissa(self):
        def f(x):
            return np.where(np.asarray(x) > 0.5, np.inf, 1.0)

        with pytest.raises(QuadratureError, match="abscissa"):
            simpson_integrate(f, 0.0, 1.0, 11)


class TestGaussianCollapse:
    """Gaussian tilts are Gaussian, so SPA is exact and the SPI
    correction integral contributes exactly -log(sqrt(2 pi))."""

    def test_spi_spa_analytic_agree(self):
        p = GaussianParams(mu=0.3, sigma=2.0)
        m = Gaussian(p)
        xs = 0.3 + 2.0 * np.linspace(-10.0, 10.0, 21)
        for x in xs:
            spi = spi_log_density(m, float(x)).log_density
            spa = spa_log_density(m, float(x)).log_density
            exact = gaussian_log_density(p, float(x))
            np.testing.assert_allclose(spi, exact, atol=1e-10)
            np.testing.assert_allclose(spa, exact, atol=1e-12)

    def test_p_bar_is_standard_normal_density(self):
        m = Gaussian(GaussianParams(mu=0.0, sigma=1.0))
        sp = solve_saddlepoint(m, 1.5)
        np.testing.assert_allclose(
            p_bar_zero(m, sp, 1.5), 1.0 / np.sqrt(2 * np.pi), rtol=1e-12
        )


class TestDecomposition:
    def test_parts_sum_to_log_density(self):
        m = Nig(_NIG_P)
        mean, var = nig_moments(_NIG_P)
        for z in (-3.0, 0.5, 4.0):
            x = mean + z * np.sqrt(var)
            res = spi_log_density(m, x)
            assert isinstance(res, LogDensityResult)
            np.testing.assert_allclose(
                res.log_density,
                res.tilt_term + res.jacobian_term + res.log_p_bar,
                rtol=1e-13,
            )
            sp = res.saddlepoint
            np.testing.assert_allclose(
                res.tilt_term, sp.k_at - sp.tau_hat * x, rtol=1e-12
            )
            np.testing.assert_allclose(
                res.jacobian_term, -0.5 * np.log(sp.k2_at), rtol=1e-12
            )

    def test_spa_differs_only_in_correction(self):
        m = Nig(_NIG_P)
        mean, var = nig_moments(_NIG_P)
        x = mean + 2.5 * np.sqrt(var)
        spi = spi_log_density(m, x)
        spa = spa_log_density(m, x)
        np.testing.assert_allclose(spi.tilt_term, spa.tilt_term, rtol=1e-14)
        np.testing.assert_allclose(spi.jacobian_term, spa.jacobian_term, rtol=1e-14)
        np.testing.assert_allclose(spa.log_p_bar, -0.5 * np.log(2 * np.pi), rtol=1e-14)


class TestNigAgainstBesselForm:
    def test_spi_matches_exact_density(self):
        # the closed form uses a Bessel function; SPI reaches the same
        # values purely through the CGF, quadrature error ~5e-9 at 8 sd
        m = Nig(_NIG_P)
        mean, var = nig_moments(_NIG_P)
        sd = np.sqrt(var)
        for z in (-8.0, -3.0, 0.0, 3.0, 8.0):
            x = mean + z * sd
            spi = spi_log_density(m, x, quad=_FINE_QUAD).log_density
            exact = nig_exact_log_density(_NIG_P, x)
            np.testing.assert_allclose(spi, exact, atol=1e-6)

    def test_default_quad_accurate_near_mode(self):
        m = Nig(_NIG_P)
        mean, var = nig_moments(_NIG_P)
        sd = np.sqrt(var)
        for z in (-2.0, 0.0, 2.0):
            x = mean + z * sd
            spi = spi_log_density(m, x).log_density
            np.testing.assert_allclose(spi, nig_exact_log_density(_NIG_P, x), atol=1e-4)


class TestDirectIft:
    def test_tail_floor_equals_log_clamp(self):
        # N(0,1) at x = 8: the oscillatory integral collapses to noise
        # around 1e-14 and the clamp takes over
        m = Gaussian(GaussianParams(mu=0.0, sigma=1.0))
        val = direct_ift_log_density(m, 8.0)
        np.testing.assert_allclose(val, -32.23619130191664, rtol=1e-10)
        assert abs(val - np.log(1e-14)) < 0.1

    def test_accurate_near_mode(self):
        m = Gaussian(GaussianParams(mu=0.0, sigma=1.0))
        for x in (-1.0, 0.0, 2.0):
            np.testing.assert_allclose(
                direct_ift_log_density(m, x),
                gaussian_log_density(GaussianParams(mu=0.0, sigma=1.0), x),
                atol=1e-10,
            )

    def test_nig_at_mean_regression(self):
        # the default 512-point direct rule underresolves this CF; the
        # value is frozen to catch accidental changes in the quadrature
        m = Nig(_NIG_P)
        mean, _ = nig_moments(_NIG_P)
        val = direct_ift_log_density(m, mean, quad=DEFAULT_DIRECT_QUAD)
        np.testing.assert_allclose(val, 3.14942447, atol=1e-6)
        exact = nig_exact_log_density(_NIG_P, mean)
        np.testing.assert_allclose(exact, 3.24020957, atol=1e-6)
        assert abs(val - exact) > 0.05


class TestMjdRoutes:
    def test_spi_matches_mixture(self):
        p = MjdParams(r=0.0445, sigma=np.exp(-2.41), lam=np.exp(4.96), mu_j=-0.00114, nu=np.exp(-4.32))
        m = MjdTransition(p, x0=0.0, dt=1.0 / 252.0)
        mean, sd = m.mean(), np.sqrt(m.variance())
        xs = mean + sd * np.linspace(-5.0, 5.0, 11)
        quad = QuadratureSpec(64.0, 513)
        for x in xs:
            spi = spi_log_density(m, float(x), quad=quad).log_density
            mix = float(mjd_truncated_log_density(m, float(x)))
            np.testing.assert_allclose(spi, mix, atol=1e-8)


class TestBatchRoutes:
    def test_spi_batch_matches_scalar(self):
        m = Nig(_NIG_P)
        mean, var = nig_moments(_NIG_P)
        xs = mean + np.sqrt(var) * np.linspace(-6.0, 6.0, 25)
        batch = spi_log_density_batch(m, xs)
        scalar = np.array([spi_log_density(m, float(x)).log_density for x in xs])
        np.testing.assert_allclose(batch, scalar, rtol=1e-9, atol=1e-9)

    def test_spa_batch_matches_scalar(self):
        m = Nig(_NIG_P)
        mean, var = nig_moments(_NIG_P)
        xs = mean + np.sqrt(var) * np.linspace(-6.0, 6.0, 25)
        batch = spa_log_density_batch(m, xs)
        scalar = np.array([spa_log_density(m, float(x)).log_density for x in xs])
        # scalar and batch saddlepoints agree only to the residual
        # tolerance, which moves the log-density at the 1e-8 level here
        np.testing.assert_allclose(batch, scalar, rtol=1e-7, atol=1e-9)

    def test_direct_batch_matches_scalar(self):
        m = Gaussian(GaussianParams(mu=0.0, sigma=1.0))
        xs = np.linspace(-3.0, 3.0, 13)
        batch = direct_ift_log_density_batch(m, xs)
        scalar = np.array([direct_ift_log_density(m, float(x)) for x in xs])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)


class TestInversionErrors:
    def test_negative_p_bar_raises(self):
        # heavy-tailed NIG deep in the tail: 513 points over [0, 100]
        # cannot resolve the slowly decaying tilted CF and the integral
        # goes negative
        m = Nig(NigParams(chi=0.125, psi=0.125, mu=0.0, gamma=0.0))
        with pytest.raises(InversionError):
            spi_log_density(m, -20.0)

    def test_fine_quadrature_fixes_it(self):
        # the tilted CF decays like exp(-sqrt(chi) s / sqrt(K'')), so an
        # extreme tilt needs a long contour, not just more points
        p = NigParams(chi=0.125, psi=0.125, mu=0.0, gamma=0.0)
        val = spi_log_density(Nig(p), -6.0, quad=QuadratureSpec(4000.0, 32768)).log_density
        np.testing.assert_allclose(val, nig_exact_log_density(p, -6.0), atol=1e-3)
