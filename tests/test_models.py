"""Tests for the built-in model families and their closed-form densities."""

import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import stats

from spinv.cgf import Line
from spinv.errors import DomainError, ValidationError
from spinv.estimation import GbmParams
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
from spinv.saddlepoint import solve_saddlepoint_batch

_NIG_CASES = [
    NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0),
    NigParams(chi=1.0, psi=1.0, mu=0.0, gamma=0.0),
    NigParams(chi=0.5, psi=8.0, mu=-0.2, gamma=-1.5),
]


# each closed-form oracle, on a record of its family
_ORACLES = {
    "gaussian": lambda x: gaussian_log_density(GaussianParams(mu=0.1, sigma=1.0), x),
    "nig": lambda x: nig_exact_log_density(_NIG_CASES[0], x),
    "mjd": lambda x: mjd_truncated_log_density(
        MjdTransition(MjdParams(r=0.05, sigma=0.2, lam=3.0, mu_j=-0.05, nu=0.1)), x
    ),
}


@pytest.mark.parametrize("oracle", list(_ORACLES))
@pytest.mark.parametrize(
    "x, match",
    [
        (0.1, "x must be a 1-d array of points, got 0 dimensions"),
        ([0.1, math.nan], r"x must be finite, got x\[1\] = nan"),
        ([0.1, math.inf], r"x must be finite, got x\[1\] = inf"),
        ([-math.inf, 0.1], r"x must be finite, got x\[0\] = -inf"),
    ],
    ids=["0-d", "nan", "inf", "-inf"],
)
def test_every_oracle_refuses_other_x_alike(oracle, x, match):
    # the points of a batch, as every evaluator takes them (cgf.finite_points)
    with pytest.raises(ValidationError, match=match):
        _ORACLES[oracle](x)


# one record of each params type, every field away from its bound
_RECORDS = [
    GaussianParams(mu=0.1, sigma=1.0),
    NigParams(chi=1.0, psi=2.0, mu=0.1, gamma=0.2),
    MjdParams(r=0.05, sigma=0.2, lam=3.0, mu_j=-0.05, nu=0.1),
    GbmParams(r=0.05, sigma=0.2),
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "record, field",
        [(r, f.name) for r in _RECORDS for f in fields(r)],
        ids=[f"{type(r).__name__}-{f.name}" for r in _RECORDS for f in fields(r)],
    )
    def test_every_field_is_finite(self, record, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be .*finite, got {value}$"):
            replace(record, **{field: value})

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda p: MjdTransition(p, x0=0.0, dt=math.inf), "dt must be positive and finite, got inf"),
            (lambda p: MjdTransition(p, x0=math.nan), "x0 must be finite, got nan"),
            (lambda p: simulate_mjd_path(p, 0.0, math.inf, 5, 1), "dt must be positive and finite, got inf"),
        ],
        ids=["transition-dt", "transition-x0", "simulate-dt"],
    )
    def test_mjd_step_is_finite(self, call, match):
        with pytest.raises(ValidationError, match=match):
            call(MjdParams(r=0.0, sigma=0.1, lam=1.0, mu_j=0.0, nu=0.1))

    @pytest.mark.parametrize(
        "call, match",
        [
            # gamma^2 is finite, but its sum with psi is not
            (lambda: Nig(NigParams(chi=1.0, psi=1e308, gamma=1e154)),
             r"sqrt\(gamma\^2 \+ psi\) overflows at NigParams\(chi=1.0, psi=1e\+308, mu=0.0, gamma=1e\+154\)"),
            # the drift is finite, r cancelling sigma^2/2, but sigma^2 dt is not
            (lambda: MjdTransition(MjdParams(r=5e307, sigma=1e154, lam=0.0, mu_j=0.0, nu=0.1), dt=10.0),
             r"sigma\^2 dt overflows at MjdParams\(r=5e\+307, sigma=1e\+154"),
            (lambda: MjdTransition(MjdParams(r=0.0, sigma=0.2, lam=1e300, mu_j=0.0, nu=0.1), dt=1e10),
             r"lam dt overflows at MjdParams\(.*lam=1e\+300"),
            (lambda: MjdTransition(MjdParams(r=1e308, sigma=0.2, lam=0.0, mu_j=0.0, nu=0.1), x0=1e308, dt=1.0),
             r"x0 \+ drift overflows at MjdParams\(r=1e\+308"),
        ],
        ids=["nig-half-width", "mjd-variance", "mjd-jump-rate", "mjd-start"],
    )
    def test_derived_value_that_overflows_is_refused(self, call, match):
        # a finite value formed from finite fields can still overflow to inf;
        # the model refuses it where it is formed (the CLI tests cover the
        # squares and exponentials that raise OverflowError)
        with pytest.raises(ValidationError, match=match):
            call()


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

    def test_log_density_too_far_out_to_square_is_minus_inf(self):
        # and no overflow warning leaks out
        out = gaussian_log_density(GaussianParams(mu=-0.5, sigma=1.3), np.array([1e200, -1e200, 0.0]))
        assert out[0] == out[1] == -np.inf and np.isfinite(out[2])


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
            # and off the real axis, where k_complex states the increment
            # K(t + iy) - K(t) in real arithmetic: -y^2/2 + i t y in the limit
            y = np.array([0.0, 0.3, -1.0, 7.0, -40.0])
            re, im = m.k_complex(Line(t, y))
            np.testing.assert_allclose(re, -0.5 * y**2, rtol=1e-9)
            np.testing.assert_allclose(im, t * y, rtol=1e-9)
        # the oracle too: its exponent sqrt(chi*psi) - z is taken without
        # the subtraction, so it stays within the O(1/sqrt(chi*psi)) kurtosis
        # term of N(0, 1), 6e-11 here (the subtraction is off by 2.1e-4)
        x = np.linspace(-5.0, 5.0, 101)
        np.testing.assert_allclose(
            nig_exact_log_density(p, x), stats.norm.logpdf(x), rtol=0.0, atol=1e-9
        )

    @pytest.mark.parametrize("where", ["domain", "criterion-9 tilts"])
    def test_k_complex_small_y_is_quadratic_without_cancellation(self, where):
        # near the real axis the increment is -K2(c) y^2/2 + K4(c) y^4/24
        # + O(y^6), K2 and K4 the second and fourth derivatives. The
        # real-arithmetic form keeps Re to 1e-9 relative of that for y from
        # 1e-6 to 1e-3, where K(c + iy) - K(c) taken by subtraction loses up
        # to 15%. The quartic term reaches 5.3e-6 relative at y = 1e-3 on
        # the far tilts of the criterion-9 returns, so it is kept.
        p = NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
        m = Nig(p)
        if where == "domain":
            dom = m.domain()
            c = dom.lo + (dom.hi - dom.lo) * np.linspace(0.01, 0.99, 99)
        else:
            c = solve_saddlepoint_batch(m, simulate_nig(p, 4500, seed=11)).tau
        c = c[:, None]
        y = np.geomspace(1e-6, 1e-3, 31)
        re, _ = m.k_complex(Line(c, np.broadcast_to(y, (c.size, y.size))))
        d = p.psi - c * c - 2.0 * c * p.gamma
        k4 = 3.0 * math.sqrt(p.chi) * (p.psi + p.gamma**2) * d**-2.5 * (1.0 + 5.0 * (c + p.gamma) ** 2 / d)
        np.testing.assert_allclose(re, -0.5 * m.k2(c) * y**2 + k4 * y**4 / 24.0, rtol=1e-9, atol=0.0)

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
    _C6 = MjdParams(
        r=0.0445, sigma=np.exp(-2.41), lam=np.exp(4.96), mu_j=-0.00114, nu=np.exp(-4.32)
    )

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

    _SDS = np.linspace(-5.0, 5.0, 21)
    # where the sum runs past 20 jumps the floor leaves up to about 1e-11 nats
    _TAIL = {"rtol": 0.0, "atol": 1e-10}

    @pytest.mark.parametrize(
        "p, dt, x0, sds, tol",
        [
            (_P, 1.0 / 252.0, 0.02, _SDS, {"rtol": 1e-12}),
            # criterion 6: lam*dt = 0.566, where the 1e-14 weight floor
            # stops the sum near 13 jumps
            (_C6, 1.0 / 252.0, 0.0, _SDS, {"rtol": 1e-12}),
            (_P, 1.0 / 252.0, 0.02, np.array([1.5]), {"rtol": 1e-12}),
            # lam*dt = 4, 9.6 and 19.8: the floor stops the sum past 20 jumps
            (replace(_C6, lam=1008.0), 1.0 / 252.0, 0.0, _SDS, _TAIL),
            (replace(_C6, lam=500.0), 1.0 / 52.0, 0.0, _SDS, _TAIL),
            (replace(_C6, lam=5000.0), 1.0 / 252.0, 0.0, _SDS, _TAIL),
        ],
        ids=["bulk", "criterion-6", "one-point", "lam-dt-4", "lam-dt-9.6", "lam-dt-19.8"],
    )
    def test_mixture_matches_untruncated_sum(self, p, dt, x0, sds, tol):
        m = MjdTransition(p, x0=x0, dt=dt)
        mean, sd = m.mean(), np.sqrt(m.variance())
        x = mean + sd * sds
        ours = mjd_truncated_log_density(m, x)
        # brute force: the first 200 Poisson terms, no truncation heuristics
        lam_dt = p.lam * dt
        base = x0 + (p.r - p.lam * p.jump_compensator - 0.5 * p.sigma**2) * dt
        rows = []
        for i in range(200):
            log_w = stats.poisson.logpmf(i, lam_dt)
            mu_i = base + i * p.mu_j
            var_i = p.sigma**2 * dt + i * p.nu**2
            rows.append(log_w + stats.norm.logpdf(x, mu_i, np.sqrt(var_i)))
        expected = np.logaddexp.reduce(np.vstack(rows), axis=0)
        np.testing.assert_allclose(ours, expected, **tol)

    def test_one_pass_equals_row_loop(self):
        # the oracle takes each element through the operations of this
        # row-by-row loop in the same order, so the values are equal
        dt = 1.0 / 252.0
        m = MjdTransition(self._C6, x0=0.01, dt=dt)
        x = m.mean() + np.sqrt(m.variance()) * np.linspace(-10.0, 10.0, 201)
        p = self._C6
        base = m.x0 + p.drift(dt)
        lam_dt = p.lam * dt
        rows = []
        log_w = -lam_dt
        for i in itertools.count():
            v = p.sigma**2 * dt + i * p.nu**2
            rows.append(log_w - 0.5 * np.log(2.0 * np.pi * v) - (x - base - i * p.mu_j) ** 2 / (2.0 * v))
            log_w = log_w + math.log(lam_dt) - math.log(i + 1.0)
            if log_w < math.log(1e-14) and i + 1 > lam_dt:
                break
        stacked = np.vstack(rows)
        top = stacked.max(axis=0)
        expected = top + np.log(np.exp(stacked - top).sum(axis=0))
        np.testing.assert_array_equal(mjd_truncated_log_density(m, x), expected)

    def test_jump_rate_past_the_limit_raises(self):
        # lam*dt = 1700 needs more jump counts than the oracle sums over
        m = MjdTransition(replace(self._C6, lam=1700.0 * 252.0), dt=1.0 / 252.0)
        with pytest.raises(ValidationError, match="lambda\\*dt = 1700 needs more than 2000 jumps"):
            mjd_truncated_log_density(m, np.array([0.0]))

    @pytest.mark.parametrize("lam", [0.0, 100.0])
    def test_rows_too_far_out_to_square_are_minus_inf(self, lam):
        # (x - base)^2 overflows, so every component of the row is -inf
        m = MjdTransition(replace(self._P, lam=lam), dt=1.0 / 252.0)
        # and no overflow or divide warning leaks out
        out = mjd_truncated_log_density(m, np.array([1e200, -1e200, 0.0]))
        assert out[0] == out[1] == -np.inf and np.isfinite(out[2])

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
