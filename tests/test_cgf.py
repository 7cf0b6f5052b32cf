"""Tests for the CGF interface layer: domains, derivatives, characteristic functions, the one integrand."""

import numpy as np
import pytest

from spinv.cgf import CgfModel, DomainInterval, Line, line_integrand, standardized_tilted_cf
from spinv.errors import DomainError, InversionError
from spinv.inversion import direct_ift_log_density_batch
from spinv.saddlepoint import solve_saddlepoint
from spinv.models import (
    Gaussian,
    GaussianParams,
    MjdParams,
    MjdTransition,
    Nig,
    NigParams,
)
from test_registry import VarianceGamma, VgParams


def _family_models():
    return [
        Gaussian(GaussianParams(mu=0.3, sigma=2.0)),
        Nig(NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)),
        Nig(NigParams(chi=1.0, psi=1.0, mu=0.5, gamma=-0.7)),
        MjdTransition(
            MjdParams(r=0.05, sigma=0.2, lam=3.0, mu_j=-0.05, nu=0.1),
            x0=0.0,
            dt=1.0 / 252.0,
        ),
    ]


class TestDomainInterval:
    def test_must_contain_zero(self):
        with pytest.raises(DomainError):
            DomainInterval(0.5, 2.0)
        with pytest.raises(DomainError):
            DomainInterval(-3.0, 0.0)  # interval is open

    def test_contains(self):
        d = DomainInterval(-1.0, 2.0)
        assert d.contains(0.0) and d.contains(1.9999)
        assert not d.contains(-1.0) and not d.contains(2.0)

    def test_unbounded(self):
        d = DomainInterval(-np.inf, np.inf)
        assert d.contains(-1e300) and d.contains(1e300)

    def test_elementwise_and_never_inf_or_nan(self):
        t = np.array([-np.inf, -1.0, 0.0, 2.0, np.inf, np.nan])
        assert DomainInterval(-1.0, 2.0).contains(t).tolist() == [0, 0, 1, 0, 0, 0]
        assert DomainInterval(-np.inf, np.inf).contains(t).tolist() == [0, 1, 1, 1, 0, 0]


class TestCgfDerivatives:
    """k1 and k2 must be the actual derivatives of k on every family."""

    @pytest.mark.parametrize("model", _family_models())
    def test_finite_difference_consistency(self, model):
        dom = model.domain()
        lo = max(dom.lo, -20.0)
        hi = min(dom.hi, 20.0)
        rng = np.random.default_rng(7)
        ts = lo + (hi - lo) * rng.uniform(0.1, 0.9, size=25)
        h = 1e-6 * max(1.0, hi - lo if np.isfinite(hi - lo) else 1.0)
        h = min(h, 1e-5)
        for t in ts:
            d1 = (model.k(t + h) - model.k(t - h)) / (2 * h)
            d2 = (model.k(t + h) - 2 * model.k(t) + model.k(t - h)) / h**2
            np.testing.assert_allclose(model.k1(t), d1, rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(model.k2(t), d2, rtol=1e-3, atol=1e-6)

    def test_a_model_writes_k_k_complex_k1_k2_and_domain(self):
        assert CgfModel.__abstractmethods__ == {"k", "k_complex", "k1_k2", "domain"}

    @pytest.mark.parametrize("cls", [Gaussian, Nig, MjdTransition], ids=lambda c: c.__name__)
    def test_built_in_models_state_k1_and_k2_only_in_k1_k2(self, cls):
        assert "k1_k2" in vars(cls)
        assert "k1" not in vars(cls) and "k2" not in vars(cls)

    @pytest.mark.parametrize("model", _family_models())
    def test_mean_variance_are_cumulants(self, model):
        np.testing.assert_allclose(model.mean(), model.k1(0.0), rtol=1e-14)
        np.testing.assert_allclose(model.variance(), model.k2(0.0), rtol=1e-14)
        assert model.variance() > 0

    @pytest.mark.parametrize("model", _family_models())
    def test_k_zero_is_zero(self, model):
        assert model.k(0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("model", _family_models())
    def test_k_complex_matches_k_on_real_axis(self, model):
        # the increment K(c + iy) - K(c) is 0 on the real axis, and off it
        # matches the one-expression K(c + iy) - K(c)
        dom = model.domain()
        c = np.linspace(max(dom.lo, -5.0), min(dom.hi, 5.0), 11)[1:-1, None]
        re, im = model.k_complex(Line(c, np.zeros((c.size, 1))))
        np.testing.assert_allclose(re, 0.0, atol=1e-12)
        np.testing.assert_allclose(im, 0.0, atol=1e-12)
        y = np.array([0.3, -1.0, 7.0, 40.0]) / np.sqrt(model.variance())
        re, im = model.k_complex(Line(c, np.broadcast_to(y, (c.size, y.size))))
        want = _reference_k(model, c + 1j * y) - _reference_k(model, c)
        np.testing.assert_allclose(re, want.real, rtol=1e-12)
        np.testing.assert_allclose(im, want.imag, rtol=1e-12)


def _char_fn(model, s):
    """phi(s) = exp(K(i s)), from the increment on the imaginary axis."""
    re, im = model.k_complex(Line(0.0, s))
    return np.exp(re) * (np.cos(im) + 1j * np.sin(im))


class TestCharFn:
    def test_gaussian_closed_form(self):
        m = Gaussian(GaussianParams(mu=0.3, sigma=1.5))
        s = np.linspace(-4.0, 4.0, 41)
        expected = np.exp(1j * s * 0.3 - 0.5 * 1.5**2 * s**2)
        np.testing.assert_allclose(_char_fn(m, s), expected, rtol=1e-13)

    def test_unit_modulus_bound(self):
        # |phi(s)| <= 1 with equality at s = 0
        for m in _family_models():
            s = np.linspace(-30.0, 30.0, 101)
            mod = np.abs(_char_fn(m, s))
            assert np.all(mod <= 1.0 + 1e-12)
            np.testing.assert_allclose(np.abs(_char_fn(m, np.zeros(1))), 1.0, rtol=1e-14)


class _OverflowingGaussian(Gaussian):
    """N(0, 1) whose CF overflows past y = 50: a plug-in law that direct IFT cannot invert."""

    def k_complex(self, line):
        re, im = super().k_complex(line)
        re[np.abs(line.y) > 50.0] = np.inf
        return re, im


class TestLineIntegrand:
    @pytest.mark.parametrize("model", _family_models())
    def test_reads_a_read_only_y_and_writes_no_argument(self, model):
        # one line per row: y of the points' shape, c and x0 columns
        c = np.array([[0.0], [0.1 / np.sqrt(model.variance())]])
        x0 = np.array([[model.mean()], [float(model.k1(c[1, 0]))]])
        y = np.broadcast_to(np.linspace(0.0, 20.0, 9) / np.sqrt(model.variance()), (2, 9))
        assert not y.flags.writeable
        before = [a.copy() for a in (c, x0, y)]
        got = line_integrand(model, c, x0, y)
        assert got.shape == (2, 9) and got.dtype == np.float64
        want = np.exp(_reference_k(model, c + 1j * y) - _reference_k(model, c) - 1j * y * x0).real
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        for a, b in zip((c, x0, y), before):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("model", _family_models())
    def test_one_line_shared_by_every_row_is_the_plain_cf(self, model):
        # c = 0 and y narrower than x0: Re phi(y) exp(-i y x) for each x
        s = np.linspace(0.0, 30.0, 13) / np.sqrt(model.variance())
        s.flags.writeable = False
        x = model.mean() + np.sqrt(model.variance()) * np.array([[-2.0], [0.0], [3.0]])
        got = line_integrand(model, 0.0, x, s)
        assert got.shape == (3, s.size)
        np.testing.assert_allclose(got, (_char_fn(model, s) * np.exp(-1j * s * x)).real, rtol=0.0, atol=1e-13)

    def test_direct_ift_refuses_a_cf_that_overflows(self):
        m = _OverflowingGaussian(GaussianParams(mu=0.0, sigma=1.0))
        with pytest.raises(InversionError, match=r"observation 0 \(x = 0\.5\)"):
            direct_ift_log_density_batch(m, [0.5, 1.0])


class TestStandardizedTiltedCf:
    def test_value_one_at_origin(self):
        for m in _family_models():
            x0 = m.mean() + 0.7 * np.sqrt(m.variance())
            sp = solve_saddlepoint(m, x0)
            v = standardized_tilted_cf(m, float(sp.tau[0]), float(sp.k2[0]), x0, 0.0)
            np.testing.assert_allclose(v, 1.0, atol=1e-10)

    def test_gaussian_is_standard_normal_cf(self):
        # Gaussian tilts are Gaussian, so the standardized tilted CF is
        # exactly exp(-s^2 / 2)
        m = Gaussian(GaussianParams(mu=-1.0, sigma=0.7))
        x0 = 1.3
        sp = solve_saddlepoint(m, x0)
        s = np.linspace(0.0, 8.0, 33)
        v = standardized_tilted_cf(m, float(sp.tau[0]), float(sp.k2[0]), x0, s)
        assert v.dtype == np.float64
        np.testing.assert_allclose(v, np.exp(-0.5 * s**2), atol=1e-13)

    @pytest.mark.parametrize("k2", [0.0, -1.0, [1.0, 0.0]], ids=["zero", "negative", "one-row-of-two"])
    def test_k2_that_is_not_positive_raises(self, k2):
        # the CF is standardized by sqrt(K''), which no tilt of a
        # non-degenerate law leaves at or below zero
        m = Gaussian(GaussianParams(mu=0.0, sigma=1.0))
        with pytest.raises(DomainError, match="K'' must be positive at the tilt"):
            standardized_tilted_cf(m, 0.0, k2, 0.0, np.linspace(0.0, 1.0, 5))


def _reference_k(model, z):
    """K(z) as one complex expression, with numpy's principal square root for NIG."""
    z = np.asarray(z, dtype=complex)
    if isinstance(model, Gaussian):
        p = model.params
        return p.mu * z + 0.5 * p.sigma**2 * z * z
    if isinstance(model, Nig):
        p = model.params
        u = z * z + 2.0 * z * p.gamma
        return z * p.mu + np.sqrt(p.chi) * u / (np.sqrt(p.psi) + np.sqrt(p.psi - u))
    if isinstance(model, MjdTransition):
        p = model.params
        jump = z * p.mu_j + 0.5 * p.nu**2 * z * z
        return z * model._base + 0.5 * model._var_diff * z * z + model._lam_dt * (np.exp(jump) - 1.0)
    return model._k(z)


def _reference_cf(model, tau_hat, x0, s):
    """exp(-K(tau) - i*s*x0/sqrt(K''(tau)) + K(tau + i*s/sqrt(K''(tau)))), term by term."""
    rk2 = np.sqrt(model.k2(tau_hat))
    s = np.asarray(s, dtype=float)
    return np.exp(-model.k(tau_hat) - 1j * s * x0 / rk2 + _reference_k(model, tau_hat + 1j * s / rk2))


class TestTiltedCfKernel:
    """The real kernel against the real part of the one-expression form, entry by entry."""

    _MODELS = _family_models() + [VarianceGamma(VgParams(sigma=0.01, nu=0.25, theta=-0.003, mu=0.001))]
    _S = np.linspace(0.0, 800.0, 1601)

    @pytest.mark.parametrize("model", _MODELS, ids=lambda m: type(m).__name__)
    def test_matches_reference_from_minus_8_to_8_sd(self, model):
        sd = np.sqrt(model.variance())
        x0 = model.mean() + sd * np.linspace(-8.0, 8.0, 17)
        tau = np.array([solve_saddlepoint(model, x).tau[0] for x in x0])
        k2 = model.k2(tau)
        cols = (tau[:, None].copy(), k2[:, None].copy(), x0[:, None].copy(), self._S.copy())
        with np.errstate(over="ignore", under="ignore"):
            got = standardized_tilted_cf(model, *cols)
            want = _reference_cf(model, cols[0], cols[2], cols[3])
        assert got.shape == (x0.size, self._S.size) and got.dtype == np.float64
        np.testing.assert_allclose(got, want.real, rtol=0.0, atol=1e-13)
        # the kernel reads its inputs and writes only arrays of its own
        np.testing.assert_array_equal(cols[0], tau[:, None])
        np.testing.assert_array_equal(cols[1], k2[:, None])
        np.testing.assert_array_equal(cols[2], x0[:, None])
        np.testing.assert_array_equal(cols[3], self._S)

    @pytest.mark.parametrize("params", [_family_models()[1].params, _family_models()[2].params])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_nig_tilt_near_domain_edge(self, params, side):
        m = Nig(params)
        dom = m.domain()
        # within 1% of the interval's width from one end
        tau = (dom.lo + 0.005 * (dom.hi - dom.lo)) if side < 0 else (dom.hi - 0.005 * (dom.hi - dom.lo))
        x0 = float(m.k1(tau))
        got = standardized_tilted_cf(m, tau, m.k2(tau), x0, self._S)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, _reference_cf(m, tau, x0, self._S).real, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("model", _MODELS, ids=lambda m: type(m).__name__)
    def test_zero_d_inputs(self, model):
        x0 = model.mean() + 1.5 * np.sqrt(model.variance())
        sp = solve_saddlepoint(model, x0)
        tau = float(sp.tau[0])
        for s in (0.0, 0.7, 3.0):
            got = standardized_tilted_cf(
                model, np.float64(tau), np.float64(sp.k2[0]), np.float64(x0), np.float64(s)
            )
            assert np.shape(got) == () and got.dtype == np.float64
            np.testing.assert_allclose(got, _reference_cf(model, tau, x0, s).real, rtol=0.0, atol=1e-13)
