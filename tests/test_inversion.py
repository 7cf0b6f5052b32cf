"""Tests for quadrature and the three log-density evaluation routes."""

import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import chebyshev

import spinv
import spinv.cgf as cgf
import spinv.inversion as inversion
from spinv.cgf import CgfModel, DomainInterval
from spinv.errors import InversionError, ValidationError
from spinv.estimation import ReturnSeries, negative_log_likelihood, transform_for
from spinv.inversion import (
    DEFAULT_DIRECT_QUAD,
    _FIT_DEGREES,
    _NODE_J,
    QuadratureSpec,
    _cheb_coeffs,
    _clenshaw,
    _even_odd,
    _lines,
    _p_bar_zero_rows,
    _tilt_map,
    direct_ift_log_density_batch,
    log_density_terms,
    p_bar_zero_batch,
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
    simulate_mjd_path,
    simulate_nig,
)
from spinv.saddlepoint import solve_saddlepoint, solve_saddlepoint_batch
from test_cgf import _reference_k
from test_registry import VarianceGamma, VgParams

_NIG_P = NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
_FINE_QUAD = QuadratureSpec(800.0, 16384)
# a fixed SPI rule that fails on heavy NIG tails, which the tests of
# per-row failures rely on
_FIXED_RULE = QuadratureSpec(100.0, 513)
_MJD_P = MjdParams(
    r=0.0445, sigma=math.exp(-2.41), lam=math.exp(4.96), mu_j=-0.00114, nu=math.exp(-4.32)
)


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
        # a count that is not an integer is refused, not met later by grid
        for n in (2.5, 3.5, 4.0):
            with pytest.raises(ValidationError, match=f"n_points must be an integer of at least 3, got {n}"):
                QuadratureSpec(10.0, n)

    @pytest.mark.parametrize("upper", [math.inf, math.nan])
    def test_non_finite_upper_limit_rejected(self, upper):
        with pytest.raises(ValidationError, match="positive and finite"):
            QuadratureSpec(upper, 513)

    def test_grid_is_the_rules_points_and_step(self):
        s, h = QuadratureSpec(3.0, 7).grid()
        assert s.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0] and h == 0.5


_BATCH_EVALUATORS = {
    "spi": spi_log_density_batch,
    "spa": spa_log_density_batch,
    "terms": log_density_terms,
    "direct": direct_ift_log_density_batch,
}


class TestPoints:
    """Every batch evaluator takes x as a 1-d array of finite points, and nothing else."""

    @pytest.mark.parametrize("name", list(_BATCH_EVALUATORS))
    @pytest.mark.parametrize(
        "x, match",
        [
            (0.1, "x must be a 1-d array of points, got 0 dimensions"),
            ([[0.1, 0.2]], "x must be a 1-d array of points, got 2 dimensions"),
            ([0.1, math.nan], r"x must be finite, got x\[1\] = nan"),
            ([0.1, 0.2, -math.inf], r"x must be finite, got x\[2\] = -inf"),
        ],
        ids=["0-d", "2-d", "nan", "inf"],
    )
    def test_other_x_is_refused(self, name, x, match):
        with pytest.raises(ValidationError, match=match):
            _BATCH_EVALUATORS[name](Nig(_NIG_P), x)

    @pytest.mark.parametrize(
        "evaluator", [solve_saddlepoint, spi_log_density, spa_log_density], ids=lambda f: f.__name__
    )
    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_one_point_evaluators_refuse_a_point_that_is_not_finite(self, evaluator, x0):
        # at once: a NaN point once ran the solver's 100 iterations first
        with pytest.raises(ValidationError, match=rf"x0 must be finite, got x0\[0\] = {x0}"):
            evaluator(Nig(_NIG_P), x0)

    @pytest.mark.parametrize("name", list(_BATCH_EVALUATORS))
    def test_empty_x_gives_empty_rows(self, name):
        out = _BATCH_EVALUATORS[name](Nig(_NIG_P), [])
        for v in out[:5] if name == "terms" else [out]:
            assert isinstance(v, np.ndarray) and v.shape == (0,)


class TestEvenOdd:
    """The one sum of every rule: a row's (even, odd, last) depend on its own points alone."""

    # magnitudes over 16 decades, so that any other grouping of the
    # additions moves the last bits
    _rng = np.random.default_rng(23)
    _VALS = _rng.standard_normal((6, 129)) * np.exp(_rng.uniform(-18.0, 18.0, (6, 129)))

    def test_the_sums_of_a_row(self):
        row = self._VALS[2, :33]
        even, odd, last = _even_odd(self._VALS[:3, :33], np.array([9, 17, 33]))
        assert last[2] == row[-1]
        assert even[2] == pytest.approx(math.fsum(row[::2]) - 0.5 * (row[0] + row[-1]), rel=1e-12)
        assert odd[2] == pytest.approx(math.fsum(row[1::2]), rel=1e-12)

    @pytest.mark.parametrize("n", [[129] * 6, [3, 17, 17, 65, 127, 129]], ids=["full", "ragged"])
    def test_each_row_of_a_block_sums_as_it_does_alone(self, n):
        n = np.array(n)
        block = _even_odd(self._VALS, n)
        for r in range(n.size):
            alone = _even_odd(self._VALS[r : r + 1, : n[r]], n[r : r + 1])
            assert [float(v[r]) for v in block] == [float(v[0]) for v in alone]

    def test_a_full_row_sums_alike_whichever_index_its_block_takes(self):
        # in the first block every row takes all of its points, which is
        # summed from the row starts alone; in the second the first row
        # stops short, and every row is summed by its own segments
        full = _even_odd(self._VALS, np.full(6, 129))
        ragged = _even_odd(self._VALS, np.array([65, 129, 129, 129, 129, 129]))
        for got, want in zip(ragged, full):
            assert got[1:].tolist() == want[1:].tolist()


class TestGaussianCollapse:
    """Gaussian tilts are Gaussian, so SPA is exact and the SPI
    correction integral contributes exactly -log(sqrt(2 pi))."""

    def test_spi_spa_analytic_agree(self):
        p = GaussianParams(mu=0.3, sigma=2.0)
        m = Gaussian(p)
        xs = 0.3 + 2.0 * np.linspace(-10.0, 10.0, 21)
        for x, exact in zip(xs, gaussian_log_density(p, xs)):
            spi = spi_log_density(m, float(x))
            spa = spa_log_density(m, float(x))
            np.testing.assert_allclose(spi, exact, atol=1e-10)
            np.testing.assert_allclose(spa, exact, atol=1e-12)

    def test_p_bar_is_standard_normal_density(self):
        m = Gaussian(GaussianParams(mu=0.0, sigma=1.0))
        np.testing.assert_allclose(
            math.exp(log_density_terms(m, [1.5])[3][0]), 1.0 / np.sqrt(2 * np.pi), rtol=1e-12
        )


class TestDecomposition:
    def test_parts_sum_to_log_density(self):
        m = Nig(_NIG_P)
        mean, var = nig_moments(_NIG_P)
        for z in (-3.0, 0.5, 4.0):
            x = mean + z * np.sqrt(var)
            log_density, tilt_term, jacobian_term, log_p_bar, _, sp = log_density_terms(m, [x])
            np.testing.assert_allclose(log_density, tilt_term + jacobian_term + log_p_bar, rtol=1e-13)
            tau = float(sp.tau[0])
            np.testing.assert_allclose(tilt_term, float(m.k(tau)) - tau * x, rtol=1e-12)
            np.testing.assert_allclose(jacobian_term, -0.5 * np.log(sp.k2[0]), rtol=1e-12)

    def test_spa_differs_only_in_correction(self):
        m = Nig(_NIG_P)
        mean, var = nig_moments(_NIG_P)
        x = mean + 2.5 * np.sqrt(var)
        _, spi_tilt, spi_jacobian, _, _, _ = log_density_terms(m, [x], "spi")
        _, spa_tilt, spa_jacobian, spa_log_p_bar, _, _ = log_density_terms(m, [x], "spa")
        np.testing.assert_allclose(spi_tilt, spa_tilt, rtol=1e-14)
        np.testing.assert_allclose(spi_jacobian, spa_jacobian, rtol=1e-14)
        np.testing.assert_allclose(spa_log_p_bar, -0.5 * np.log(2 * np.pi), rtol=1e-14)


class TestNigAgainstBesselForm:
    def test_spi_matches_exact_density(self):
        # the closed form uses a Bessel function; SPI reaches the same
        # values purely through the CGF, quadrature error ~5e-9 at 8 sd
        m = Nig(_NIG_P)
        mean, var = nig_moments(_NIG_P)
        sd = np.sqrt(var)
        for z in (-8.0, -3.0, 0.0, 3.0, 8.0):
            x = mean + z * sd
            spi = spi_log_density(m, x, quad=_FINE_QUAD)
            exact = nig_exact_log_density(_NIG_P, [x])[0]
            np.testing.assert_allclose(spi, exact, atol=1e-6)

    def test_default_quad_accurate_near_mode(self):
        m = Nig(_NIG_P)
        mean, var = nig_moments(_NIG_P)
        sd = np.sqrt(var)
        for z in (-2.0, 0.0, 2.0):
            x = mean + z * sd
            spi = spi_log_density(m, x)
            np.testing.assert_allclose(spi, nig_exact_log_density(_NIG_P, [x])[0], atol=1e-5)


class TestDirectIft:
    def test_tail_floor_equals_log_clamp(self):
        # N(0,1) at x = 8: the oscillatory integral collapses to noise
        # around 1e-14 and the clamp takes over
        m = Gaussian(GaussianParams(mu=0.0, sigma=1.0))
        val = direct_ift_log_density_batch(m, [8.0])[0]
        np.testing.assert_allclose(val, -32.23619130191664, rtol=1e-10)
        assert abs(val - np.log(1e-14)) < 0.1

    def test_accurate_near_mode(self):
        m = Gaussian(GaussianParams(mu=0.0, sigma=1.0))
        for x in (-1.0, 0.0, 2.0):
            np.testing.assert_allclose(
                direct_ift_log_density_batch(m, [x])[0],
                gaussian_log_density(GaussianParams(mu=0.0, sigma=1.0), [x])[0],
                atol=1e-10,
            )

    def test_nig_at_mean_regression(self):
        # the default 512-point direct rule underresolves this CF; the
        # value is frozen to catch accidental changes in the quadrature
        m = Nig(_NIG_P)
        mean, _ = nig_moments(_NIG_P)
        val = direct_ift_log_density_batch(m, [mean], quad=DEFAULT_DIRECT_QUAD)[0]
        np.testing.assert_allclose(val, 3.14942447, atol=1e-6)
        exact = nig_exact_log_density(_NIG_P, [mean])[0]
        np.testing.assert_allclose(exact, 3.24020957, atol=1e-6)
        assert abs(val - exact) > 0.05


class TestMjdRoutes:
    def test_spi_matches_mixture(self):
        p = MjdParams(r=0.0445, sigma=np.exp(-2.41), lam=np.exp(4.96), mu_j=-0.00114, nu=np.exp(-4.32))
        m = MjdTransition(p, x0=0.0, dt=1.0 / 252.0)
        mean, sd = m.mean(), np.sqrt(m.variance())
        xs = mean + sd * np.linspace(-5.0, 5.0, 11)
        quad = QuadratureSpec(64.0, 513)
        for x, mix in zip(xs, mjd_truncated_log_density(m, xs)):
            spi = spi_log_density(m, float(x), quad=quad)
            np.testing.assert_allclose(spi, mix, atol=1e-8)

    @pytest.mark.parametrize("case, bound", [("criterion-6", 1e-4), ("10-sd-grid", 1e-3)])
    def test_default_rule_matches_mixture(self, case, bound):
        # the default trapezoid rule (32, 65) is off by 4.2e-6 and 7.9e-5
        # nats here
        m = MjdTransition(_MJD_P, x0=0.0, dt=1.0 / 252.0)
        x = {
            "criterion-6": np.diff(simulate_mjd_path(_MJD_P, 0.0, 1.0 / 252.0, 4500, seed=7)),
            "10-sd-grid": _sd_grid(m, 10.0, 801),
        }[case]
        gap = np.abs(spi_log_density_batch(m, x) - mjd_truncated_log_density(m, x))
        assert np.max(gap) <= bound

    @pytest.mark.parametrize(
        "coordinate, se",
        [("r", 0.0446), ("log_sigma", 0.0349), ("log_lambda", 0.0919), ("mu_j", 4.05e-4), ("log_nu", 0.0424)],
    )
    def test_nll_follows_the_oracle_along_each_coordinate(self, coordinate, se):
        # criterion 6's rule and data; over +-3 se of each coordinate (se at
        # the oracle optimum of these increments) the SPI NLL stays on the
        # oracle's within the fit's fatol of 1e-10, so no change of fit
        # level or node moves the search. The default rule (32, 65) is off
        # by about 1e-4 nats here, and is not the one pinned
        increments = np.diff(simulate_mjd_path(_MJD_P, 0.0, 1.0 / 252.0, 4500, seed=7))
        data = ReturnSeries(dt=1.0 / 252.0, returns=increments)
        quad = QuadratureSpec(64.0, 512)
        tr = transform_for("mjd")
        center = tr.to_vector(_MJD_P)
        i = tr.names.index(coordinate)
        for d in np.linspace(-3.0, 3.0, 41) * se:
            v = center.copy()
            v[i] += d
            p = tr.from_vector(v)
            spi = negative_log_likelihood("mjd", p, data, "spi", quad)
            assert abs(spi - negative_log_likelihood("mjd", p, data, "oracle")) <= 1e-10


class TestBatchRoutes:
    def test_spi_batch_matches_scalar(self):
        # 25 rows are too few for the fit, so the batch takes each row by
        # its own rule, as a scalar row does, and the two are equal. On
        # the contour, NIG's own rule, rows of different lengths share a
        # block, and each is summed over its own points
        m = Nig(_NIG_P)
        xs = _sd_grid(m, 6.0, 25)
        batch = spi_log_density_batch(m, xs)
        scalar = np.array([spi_log_density(m, float(x)) for x in xs])
        assert batch.tolist() == scalar.tolist()

    def test_spi_batch_matches_scalar_to_the_bit_on_a_fixed_rule(self):
        # a fixed rule takes the same points on every row, so a row's sums
        # do not depend on the block it falls in
        m = Nig(_NIG_P)
        xs = _sd_grid(m, 6.0, 25)
        batch = spi_log_density_batch(m, xs, _FIXED_RULE)
        scalar = np.array([spi_log_density(m, float(x), _FIXED_RULE) for x in xs])
        assert batch.tolist() == scalar.tolist()

    def test_spa_batch_matches_scalar(self):
        m = Nig(_NIG_P)
        mean, var = nig_moments(_NIG_P)
        xs = mean + np.sqrt(var) * np.linspace(-6.0, 6.0, 25)
        batch = spa_log_density_batch(m, xs)
        scalar = np.array([spa_log_density(m, float(x)) for x in xs])
        # the scalar solve is one row of the batch solve, and both take the
        # terms and their sum from one expression
        assert batch.tolist() == scalar.tolist()

    def test_direct_batch_matches_scalar(self):
        # 41 rows take three blocks of the rule; a row's sums do not depend
        # on the block it falls in, so each equals the row by itself
        for m in (
            Gaussian(GaussianParams(mu=0.0, sigma=1.0)),
            Nig(_NIG_P),
            MjdTransition(_MJD_P, 0.0, 1.0 / 252.0),
        ):
            xs = _sd_grid(m, 6.0, 41)
            batch = direct_ift_log_density_batch(m, xs)
            assert batch.tolist() == [direct_ift_log_density_batch(m, [x])[0] for x in xs]

    @pytest.mark.parametrize("rule", [None, _FIXED_RULE], ids=["contour", "fixed-rule"])
    def test_one_point_is_the_first_row_of_log_density_terms(self, rule):
        # spi_log_density and spa_log_density are one-row reads of the
        # batch code: each equals the log-density log_density_terms gives
        # for the one-element array, to the bit
        m = Nig(_NIG_P)
        for x in _sd_grid(m, 8.0, 17).tolist():
            assert spi_log_density(m, x, rule) == log_density_terms(m, [x], "spi", rule)[0][0]
            assert spa_log_density(m, x) == log_density_terms(m, [x], "spa")[0][0]

    def test_log_density_terms_rejects_unknown_method(self):
        with pytest.raises(ValidationError, match="unknown method 'bogus'"):
            log_density_terms(Nig(NigParams(1.0, 1.0)), [0.1, 0.2], "bogus")


class TestInversionErrors:
    def test_negative_p_bar_raises(self):
        # heavy-tailed NIG deep in the tail: 513 points over [0, 100]
        # cannot resolve the slowly decaying tilted CF and the integral
        # goes negative
        m = Nig(NigParams(chi=0.125, psi=0.125, mu=0.0, gamma=0.0))
        with pytest.raises(InversionError, match="quadrature spec inadequate"):
            spi_log_density(m, -20.0, _FIXED_RULE)

    def test_batch_names_the_observation_it_cannot_invert(self):
        # the batch pass raises for the first row whose p_bar(0) is
        # unusable, after the solve has succeeded for every row
        m = Nig(NigParams(chi=0.125, psi=0.125, mu=0.0, gamma=0.0))
        with pytest.raises(InversionError, match=r"for observation 1 \(x = -20\.0\)"):
            spi_log_density_batch(m, np.array([0.0, -20.0]), _FIXED_RULE)

    def test_fine_quadrature_fixes_it(self):
        # the tilted CF decays like exp(-sqrt(chi) s / sqrt(K'')), so an
        # extreme tilt needs a long contour, not just more points
        p = NigParams(chi=0.125, psi=0.125, mu=0.0, gamma=0.0)
        val = spi_log_density(Nig(p), -6.0, quad=QuadratureSpec(4000.0, 32768))
        np.testing.assert_allclose(val, nig_exact_log_density(p, [-6.0])[0], atol=1e-3)


class _Gamma(CgfModel):
    """Gamma(alpha, rate beta): K(t) = -alpha log(1 - t/beta) on (-inf, beta)."""

    def __init__(self, alpha, beta):
        self.alpha, self.beta = alpha, beta

    def _k(self, t):
        return -self.alpha * np.log1p(-t / self.beta)

    def k(self, t):
        return self._k(np.asarray(t, dtype=float))

    def k_complex(self, line):
        w = self._k(line.c + 1j * line.y) - self._k(line.c)
        return w.real, w.imag

    def k1_k2(self, t):
        u = self.beta - np.asarray(t)
        return self.alpha / u, self.alpha / u**2

    def domain(self):
        return DomainInterval(-math.inf, self.beta)


class _Reflected(CgfModel):
    """The law of -X for a law X: K(t) = K_X(-t), on the reflected domain.

    X states K_X as one expression, _k, over real and complex arguments."""

    def __init__(self, law):
        self.law = law

    def k(self, t):
        return self.law.k(-np.asarray(t))

    def k_complex(self, line):
        w = self.law._k(-(line.c + 1j * line.y)) - self.law._k(-line.c)
        return w.real, w.imag

    def k1_k2(self, t):
        k1, k2 = self.law.k1_k2(-np.asarray(t))
        return -k1, k2

    def domain(self):
        dom = self.law.domain()
        return DomainInterval(-dom.hi, -dom.lo)


def _sd_grid(m, width, rows):
    return m.mean() + math.sqrt(m.variance()) * np.linspace(-width, width, rows)


def _core(m, x, sp, quad, caplog):
    """The batch core's p_bar(0) at x and the solver's tau and K'', each row's own rule there, and the core's log record."""
    with caplog.at_level(logging.DEBUG, logger="spinv.inversion"):
        caplog.clear()
        core = p_bar_zero_batch(m, x, sp.tau, sp.k2, m.k1(sp.tau) - x, quad)
    (record,) = caplog.records
    return core, _own_rule(m, x, sp.tau, sp.k2, quad)[0], record.getMessage()


def _own_rule(m, x, tau, k2, quad):
    """(p_bar, indicators) of every row by quad, each row on its own line (the core's per-row path)."""
    return _p_bar_zero_rows(_lines(m, x, tau, k2, quad), np.arange(x.size))


def _max_log_gap(p, q):
    return np.max(np.abs(np.log(p) - np.log(q)))


class TestInterpolatedCore:
    """A batch of more than 33 rows reads p_bar(0) off a Chebyshev fit of
    log p_bar over the tilt. The fit is checked against each row's own
    rule twice: at x = K'(tau), the fit's own nodes' setting, and at the
    data x, where the rule sees the solver's residual |x - K'(tau)|,
    worth up to 1.1e-8 nats on these sets, and the fit must see it too."""

    def test_coefficients_and_clenshaw_match_numpy(self):
        n = 32
        t = np.cos(np.pi * np.arange(n + 1) / n)
        vals = np.exp(np.sin(3.0 * t))
        c = _cheb_coeffs(vals)
        np.testing.assert_allclose(c, chebyshev.chebfit(t, vals, n), rtol=0, atol=1e-12)
        s = np.linspace(-1.0, 1.0, 101)
        np.testing.assert_allclose(_clenshaw(c, s), chebyshev.chebval(s, c), rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "case",
        ["nig-criterion-9", "mjd-criterion-6", "mjd-criterion-6-fine", "mjd-10-sd-grid"],
    )
    def test_fit_matches_per_row(self, case, caplog):
        mjd = MjdTransition(_MJD_P, 0.0, 1.0 / 252.0)
        incr = np.diff(simulate_mjd_path(_MJD_P, 0.0, 1.0 / 252.0, 4500, seed=7))
        m, x, quad = {
            "nig-criterion-9": (Nig(_NIG_P), simulate_nig(_NIG_P, 4500, seed=11), Nig.spi_quad),
            "mjd-criterion-6": (mjd, incr, mjd.spi_quad),
            "mjd-criterion-6-fine": (mjd, incr, QuadratureSpec(64.0, 512)),
            "mjd-10-sd-grid": (mjd, _sd_grid(mjd, 10.0, 801), mjd.spi_quad),
        }[case]
        sp = solve_saddlepoint_batch(m, x)
        # the solver's residual is K'(tau) - x to the bit, so the core may read it
        assert np.array_equal(sp.residual, m.k1(sp.tau) - x)
        for at in (m.k1(sp.tau), x):
            core, rows, message = _core(m, at, sp, quad, caplog)
            assert "interpolated" in message
            assert _max_log_gap(core, rows) <= 1e-9

    def test_one_sided_domain_gamma(self, caplog):
        # the map is v = log(beta - tau). The standardized tilted gamma
        # does not depend on the tilt, so the fit must return a constant
        alpha, beta = 5.0, 2.0
        m = _Gamma(alpha, beta)
        x = np.linspace(0.05, 4.0, 1000) * alpha / beta
        core, rows, message = _core(m, x, solve_saddlepoint_batch(m, x), m.spi_quad, caplog)
        assert "interpolated" in message
        assert _max_log_gap(core, rows) <= 1e-9
        exact = [
            alpha * math.log(beta) - math.lgamma(alpha) + (alpha - 1.0) * math.log(v) - beta * v
            for v in x.tolist()
        ]
        np.testing.assert_allclose(spi_log_density_batch(m, x), exact, rtol=0, atol=1e-6)

    def test_domain_bounded_below(self, caplog):
        # the reflected gamma lives on (-beta, inf), so the map is
        # v = -log(tau + beta), and the default start is kept at -beta / 2
        # or above
        alpha, beta = 5.0, 2.0
        m = _Reflected(_Gamma(alpha, beta))
        x = -np.linspace(0.05, 4.0, 40) * alpha / beta
        start = m.saddlepoint_start(x, *m.k1_k2(0.0))
        assert np.count_nonzero(start == -0.5 * beta) > 0
        core, rows, message = _core(m, x, solve_saddlepoint_batch(m, x), m.spi_quad, caplog)
        assert "interpolated" in message
        assert _max_log_gap(core, rows) <= 1e-9
        exact = [
            alpha * math.log(beta) - math.lgamma(alpha) + (alpha - 1.0) * math.log(-v) + beta * v
            for v in x.tolist()
        ]
        np.testing.assert_allclose(spi_log_density_batch(m, x), exact, rtol=0, atol=1e-6)

    @pytest.mark.parametrize(
        "case, reason, failing",
        [
            ("empty", "too few rows", 0),
            ("one point 1000 times", "all rows share one tilt", 0),
            ("25-row grid", "too few rows", 0),
            ("nig-50-sd-grid", "unusable node", 296),
        ],
    )
    def test_per_row_path_is_the_rows_own_rule(self, case, reason, failing, caplog):
        # the model's own rule, the contour, except on the 50 sd grid,
        # where the fixed rule (100, 513) fails the nodes and rows that
        # the contour does not
        m = Nig(_NIG_P)
        quad = _FIXED_RULE if case == "nig-50-sd-grid" else m.spi_quad
        x = {
            "empty": np.empty(0),
            "one point 1000 times": np.full(1000, m.mean() + 0.5 * math.sqrt(m.variance())),
            "25-row grid": _sd_grid(m, 6.0, 25),
            "nig-50-sd-grid": _sd_grid(m, 50.0, 801),
        }[case]
        core, rows, message = _core(m, x, solve_saddlepoint_batch(m, x), quad, caplog)
        assert f"per row ({reason}" in message
        assert np.array_equal(core, rows, equal_nan=True)
        assert np.sum(~(np.isfinite(core) & (core > 0.0))) == failing

    def test_debug_record_per_batch(self, caplog):
        m = Nig(_NIG_P)
        with caplog.at_level(logging.DEBUG, logger="spinv.inversion"):
            spi_log_density_batch(m, _sd_grid(m, 6.0, 401))
            log_density_terms(m, _sd_grid(m, 50.0, 801), quad=_FIXED_RULE)
        fit, rows = (r.getMessage() for r in caplog.records)
        assert all(r.levelname == "DEBUG" for r in caplog.records)
        assert fit.startswith("p_bar(0) of 401 rows by the contour 2 nats above the tilt: interpolated after ")
        assert "last-quarter coefficients" in fit
        rule = "by the rule on [0, 100] of 513 points"
        assert rows.startswith(f"p_bar(0) of 801 rows {rule}: per row (unusable node at tau = ")
        assert "after 17 nodes" in rows

    @pytest.mark.parametrize(
        "case, rule, path, step, truncation",
        [
            # both indicators small where the rule is good to 4.2e-6 nats
            ("mjd-criterion-6", "[0, 32] of 65", "interpolated", (5e-4, 6e-4), (1.1e-5, 1.3e-5)),
            # the fixed rule (100, 513) is off by up to 2.25 nats on these
            # rows and raises nothing; the integrand is still at 0.8 where
            # it is cut
            ("nig-heavy-tail", "[0, 100] of 513", "per row", (2e-3, 4e-3), (0.79, 0.81)),
        ],
    )
    def test_debug_record_error_indicators(self, case, rule, path, step, truncation, caplog):
        if case == "mjd-criterion-6":
            # no rule is given, so the record names the one the model states
            m, quad = MjdTransition(_MJD_P, 0.0, 1.0 / 252.0), None
            x = np.diff(simulate_mjd_path(_MJD_P, 0.0, 1.0 / 252.0, 4500, seed=7))
        else:
            m, quad = Nig(NigParams(chi=0.125, psi=0.125, mu=0.0, gamma=0.0)), _FIXED_RULE
            x = np.arange(-11.0, -1.0)
        with caplog.at_level(logging.DEBUG, logger="spinv.inversion"):
            log_density_terms(m, x, quad=quad)
        (record,) = caplog.records
        message = record.getMessage()
        assert message.startswith(f"p_bar(0) of {x.size} rows by the rule on {rule} points: {path}")
        found = re.search(r"step error (\S+), truncation (\S+)$", message)
        assert step[0] < float(found.group(1)) < step[1]
        assert truncation[0] < float(found.group(2)) < truncation[1]

    def test_no_logging_import_for_a_process_that_does_not_log(self):
        # an unconfigured process could not see a record, so the core does
        # not import logging for it (3-5 ms at each CLI start)
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from spinv import Nig, NigParams, spi_log_density_batch\n"
            "spi_log_density_batch(Nig(NigParams(3e-4, 1000.0)), np.linspace(-0.01, 0.01, 100))\n"
            "print('logging' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(spinv.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestContour:
    """SPI's own rule where the CGF domain has a finite end: a trapezoid rule
    on a line moved off the tilt, with its step and length set per node or
    row, accurate to the tails."""

    @pytest.mark.parametrize("rows", [801, 25], ids=["fit", "per-row"])
    @pytest.mark.parametrize(
        "params",
        [_NIG_P, NigParams(chi=0.5, psi=0.5), NigParams(chi=0.125, psi=0.125)],
        ids=["criterion-9", "chi-psi-0.5", "chi-psi-0.125"],
    )
    def test_nig_within_1e_10_of_the_oracle_over_50_sd(self, params, rows, caplog):
        m = Nig(params)
        x = _sd_grid(m, 50.0, rows)
        with caplog.at_level(logging.DEBUG, logger="spinv.inversion"):
            log_density, *_, p_bar, sp = log_density_terms(m, x)
        assert ("interpolated" if rows == 801 else "per row") in caplog.records[-1].getMessage()
        assert np.all(np.isfinite(p_bar) & (p_bar > 0.0))
        assert np.max(np.abs(log_density - nig_exact_log_density(params, x))) <= 1e-10

    @pytest.mark.parametrize("rows", [1000, 25], ids=["fit", "per-row"])
    @pytest.mark.parametrize("reflected", [False, True], ids=["gamma", "reflected-gamma"])
    def test_gamma_within_1e_10_of_its_density(self, reflected, rows):
        # a pole of K at the domain's end, approached along the strip's
        # edge; the CF decays only like |y|^-alpha
        alpha, beta = 5.0, 2.0
        m = _Reflected(_Gamma(alpha, beta)) if reflected else _Gamma(alpha, beta)
        v = np.linspace(0.05, 4.0, rows) * alpha / beta
        exact = alpha * math.log(beta) - math.lgamma(alpha) + (alpha - 1.0) * np.log(v) - beta * v
        got = spi_log_density_batch(m, -v if reflected else v)
        assert np.max(np.abs(got - exact)) <= 1e-10

    def test_an_algebraic_tail_is_unusable_on_the_contour(self):
        # a gamma law of shape 2: exp(Re) falls only like y^-2 on every
        # line, so no line reaches 1e-16 within 2^16 steps and every row
        # is marked. A model of such a law states a fixed rule, which
        # gives these rows with its own error
        m = _Gamma(2.0, 2.0)
        v = np.linspace(0.05, 4.0, 40)
        assert np.isnan(log_density_terms(m, v)[4]).all()
        with pytest.raises(InversionError, match="decays too slowly; the model's SPI rule cannot resolve it"):
            spi_log_density_batch(m, v)
        exact = 2.0 * math.log(2.0) + np.log(v) - 2.0 * v
        err = np.max(np.abs(spi_log_density_batch(m, v, _FIXED_RULE) - exact))
        assert 1e-6 < err < 1e-5

    def test_criterion_9_record(self, caplog):
        # the fit needs 65 nodes, not the 129 of the fixed rule, whose
        # truncation error oscillates with the tilt; the record names the
        # rule and what it took
        x = simulate_nig(_NIG_P, 4500, seed=11)
        with caplog.at_level(logging.DEBUG, logger="spinv.inversion"):
            log_density = spi_log_density_batch(Nig(_NIG_P), x)
        (record,) = caplog.records
        found = re.fullmatch(
            r"p_bar\(0\) of 4500 rows by the contour 2 nats above the tilt: interpolated after 65 nodes "
            r"\(65 placed\), "
            r"(\d+) points, at most (\d+) a line, smallest step (\S+), last-quarter coefficients (\S+), "
            r"step error (\S+), truncation (\S+)",
            record.getMessage(),
        )
        assert found
        points, most, h, tail, step, truncation = (float(v) for v in found.groups())
        assert 65 * 361 <= points <= 65 * most and most < 1000 and 1.0 < h < 6.0
        assert tail <= 1e-10
        # the step of twice h is off by about exp(-16), the rule's own by exp(-32)
        assert 1e-9 < step < 1e-6 and truncation < 1e-16
        assert np.max(np.abs(log_density - nig_exact_log_density(_NIG_P, x))) <= 1e-13

    def test_nll_follows_the_oracle_along_log_chi(self):
        # a per-node choice of line, step and length moves in steps with the
        # parameters; over +-3 se of log chi (se 0.081 at the oracle
        # optimum of these returns) the SPI NLL stays on the oracle's, far
        # inside the fit's fatol of 1e-10 per evaluation step
        data = ReturnSeries(dt=1.0 / 252.0, returns=simulate_nig(_NIG_P, 4500, seed=11))
        for d in np.linspace(-3.0, 3.0, 41) * 0.081:
            p = NigParams(chi=_NIG_P.chi * math.exp(d), psi=_NIG_P.psi, mu=_NIG_P.mu, gamma=_NIG_P.gamma)
            spi = negative_log_likelihood("nig", p, data, "spi")
            assert abs(spi - negative_log_likelihood("nig", p, data, "oracle")) <= 1e-9

    def test_a_line_too_long_is_unusable(self):
        # 630 sd out on a heavy-tailed NIG the budget keeps the line so
        # near the domain's end that the step would need more than 2^16
        # points: the row is marked, where the fixed rule returned a value
        # 4 nats off
        m = Nig(NigParams(chi=0.125, psi=0.125))
        with pytest.raises(InversionError, match="decays too slowly; the model's SPI rule cannot resolve it"):
            spi_log_density_batch(m, np.array([0.0, -630.0]))


class _OneExpressionNig(Nig):
    """NIG whose increment on a line is the difference of two complex K, one expression each."""

    def k_complex(self, line):
        w = _reference_k(self, line.c + 1j * line.y) - _reference_k(self, line.c)
        return w.real, w.imag


class TestRealKernel:
    """The core on the real kernel against the same rule on the one-expression CF."""

    @staticmethod
    def _terms_both_ways(monkeypatch, model, x, quad):
        # the reference integrand is the real part of exp of the complex
        # exponent on the line and at the points it is given, in place of
        # the one integrand of every rule; everything else in the core
        # stays the same
        def reference(m, c, x0, y):
            return np.exp(_reference_k(m, c + 1j * y) - _reference_k(m, c) - 1j * y * x0).real

        got = log_density_terms(model, x, quad=quad)
        with monkeypatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
            mp.setattr(cgf, "line_integrand", reference)
            mp.setattr(inversion, "line_integrand", reference)
            want = log_density_terms(model, x, quad=quad)
        return got, want

    @staticmethod
    def _usable(terms):
        p_bar = terms[4]
        return np.isfinite(p_bar) & (p_bar > 0.0)

    @pytest.mark.parametrize("case", ["criterion-9 NIG", "criterion-6 MJD"])
    def test_matches_the_one_expression_cf_on_the_criterion_data(self, monkeypatch, case):
        # each model's own rule: the contour for NIG, (32, 65) for MJD
        if case == "criterion-9 NIG":
            model, x, quad = Nig(_NIG_P), simulate_nig(_NIG_P, 4500, seed=11), None
        else:
            model, quad = MjdTransition(_MJD_P, x0=0.0, dt=1.0 / 252.0), None
            x = np.diff(simulate_mjd_path(_MJD_P, 0.0, 1.0 / 252.0, 4500, seed=7))
        got, want = self._terms_both_ways(monkeypatch, model, x, quad)
        assert self._usable(got).all() and self._usable(want).all()
        np.testing.assert_allclose(got[0], want[0], rtol=0.0, atol=1e-11)

    def test_same_unusable_rows_on_the_50_sd_nig_grid(self, monkeypatch):
        # the CLI benchmark's grid: 801 rows from -50 to +50 sd, where the
        # fixed rule (100, 513) fails 296 rows
        model = Nig(_NIG_P)
        x = _sd_grid(model, 50.0, 801)
        got, want = self._terms_both_ways(monkeypatch, model, x, _FIXED_RULE)
        usable = self._usable(got)
        assert np.array_equal(usable, self._usable(want))
        assert np.count_nonzero(~usable) == 296
        np.testing.assert_allclose(got[0][usable], want[0][usable], rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("case", ["criterion-9", "50-sd-grid"])
    def test_contour_matches_the_one_expression_increment(self, case):
        # the contour takes k_complex on lines off the tilt; NIG's
        # cancellation-free increment against K(c + iy) - K(c) by complex
        # arithmetic, on the same lines, steps and cuts
        x = simulate_nig(_NIG_P, 4500, seed=11) if case == "criterion-9" else _sd_grid(Nig(_NIG_P), 50.0, 801)
        got = log_density_terms(Nig(_NIG_P), x)
        want = log_density_terms(_OneExpressionNig(_NIG_P), x)
        assert self._usable(got).all() and self._usable(want).all()
        np.testing.assert_allclose(got[0], want[0], rtol=0.0, atol=1e-11)


class TestKAtTheTilt:
    """K(tau) is taken once per SPI batch at the rows, for the tilt term:
    the kernel never needs it, and the contour takes K at its nodes."""

    @pytest.mark.parametrize("rows, path", [(101, "interpolated"), (21, "per row")])
    def test_one_k_call_in_solved_terms(self, caplog, rows, path):
        calls = []

        class CountingNig(Nig):
            def k(self, t):
                calls.append((sys._getframe(1).f_code.co_name, np.size(t)))
                return super().k(t)

        model = CountingNig(_NIG_P)
        with caplog.at_level(logging.DEBUG, logger="spinv.inversion"):
            spi_log_density_batch(model, _sd_grid(model, 3.0, rows))
        (record,) = caplog.records
        message = record.getMessage()
        assert f": {path}" in message
        placed = int(re.search(r"after \d+ nodes \((\d+) placed\)", message).group(1))
        assert [c for c in calls if c[0] != "_contour_lines"] == [("_solved_terms", rows)]
        # the contour takes K at each of its lines' tilts, its first guess,
        # its two Newton steps and its strip's two edges: at the nodes
        # placed, and on the per-row path at the rows too
        lines = placed + (rows if path == "per row" else 0)
        assert sum(n for c, n in calls if c == "_contour_lines") == 6 * lines


_HEAVY_NIG = NigParams(chi=0.125, psi=0.125)


class TestPlacement:
    """The core places its nodes' lines once for the fit levels up to 65
    nodes, not once a level, and then once for each deeper level reached.
    Every number stays what it was when each level placed its own nodes,
    and so does the work each level sums."""

    def test_node_table_orders_every_node_by_the_first_level_that_has_it(self):
        # log_p is kept at every j of the last grid, and level n reads
        # log_p[::256 // n]: so the first n + 1 nodes must be exactly its points
        assert sorted(_NODE_J.tolist()) == list(range(257))
        for n in _FIT_DEGREES:
            assert sorted(_NODE_J[:n + 1].tolist()) == list(range(0, 257, 256 // n))
        # within a level, the nodes ascend in j, as the levels placed them
        assert np.array_equal(_NODE_J[:17], np.arange(17) * 16)
        for n in _FIT_DEGREES[1:]:
            assert np.array_equal(_NODE_J[n // 2 + 1:n + 1], np.arange(1, n, 2) * (256 // n))

    @staticmethod
    def _placements(monkeypatch, m, x, rule, caplog):
        """The core's message and the (tau, x, k2, lines) of each placement it makes on x."""
        placements = []

        def spy(model, x, tau, k2, rule):
            lines = _lines(model, x, tau, k2, rule)
            placements.append((tau, x, k2, lines))
            return lines

        sp = solve_saddlepoint_batch(m, x)
        monkeypatch.setattr(inversion, "_lines", spy)
        with caplog.at_level(logging.DEBUG, logger="spinv.inversion"):
            p_bar_zero_batch(m, x, sp.tau, sp.k2, sp.residual, rule)
        (record,) = caplog.records
        return sp, record.getMessage(), placements

    @staticmethod
    def _line(lines, i):
        """Node i's point count, prefactor, step, integrand at its points (which takes c) and p_bar."""
        n, integrand, prefactor, h = lines
        row = np.array([i])
        return n[i], prefactor[i], h[i], integrand(row, n[i]), _p_bar_zero_rows(lines, row)[0]

    @pytest.mark.parametrize(
        "case, nodes, node_placements",
        [
            ("heavy NIG, contour", 129, [65, 64]),
            ("MJD criterion-6, fixed rule", 129, [65, 64]),
            ("MJD over 10 sd, fixed rule", 257, [65, 64, 128]),
        ],
    )
    def test_a_node_is_the_same_alone_with_its_level_or_with_the_batch(
        self, monkeypatch, case, nodes, node_placements, caplog
    ):
        if case == "heavy NIG, contour":
            m, rule = Nig(_HEAVY_NIG), None
            x = _sd_grid(m, 50.0, 801)
        else:
            m = MjdTransition(_MJD_P, 0.0, 1.0 / 252.0)
            rule = m.spi_quad
            if case == "MJD criterion-6, fixed rule":
                x = np.diff(simulate_mjd_path(_MJD_P, 0.0, 1.0 / 252.0, 4500, seed=7))
            else:
                x = _sd_grid(m, 10.0, 801)
        sp, message, placements = self._placements(monkeypatch, m, x, rule, caplog)
        assert f"interpolated after {nodes} nodes ({nodes} placed)" in message
        assert [p[0].size for p in placements] == node_placements
        # each level's tilts by its own formula, from_v(mid + half cos(pi j/n))
        to_v, from_v = _tilt_map(m.domain())
        v = to_v(sp.tau)
        a, b = float(v.min()), float(v.max())
        degrees = [n for n in _FIT_DEGREES if n < nodes]
        levels = [np.arange(17)] + [np.arange(1, n, 2) for n in degrees[1:]]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        own = [from_v(mid + half * np.cos(np.pi * j / n)) for j, n in zip(levels, degrees)]
        assert np.array_equal(np.concatenate([p[0] for p in placements]), np.concatenate(own))
        # each node's line and p_bar placed alone, with its own level, and
        # in the batch's placement
        sizes = iter(j.size for j in levels)
        for tau, x_j, k2_j, batch in placements:
            assert np.array_equal(m.k1_k2(tau), (x_j, k2_j))
            lo = 0
            while lo < tau.size:
                level = slice(lo, lo + next(sizes))
                lo = level.stop
                with_level = _lines(m, *(v[level] for v in (x_j, tau, k2_j)), rule)
                for i in range(level.start, level.stop):
                    x_i, k2_i = m.k1_k2(tau[i:i + 1])
                    alone = _lines(m, x_i, tau[i:i + 1], k2_i, rule)
                    want = self._line(batch, i)
                    assert want[0] > 0
                    for got in (self._line(alone, 0), self._line(with_level, i - level.start)):
                        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize(
        "case, node_placements, path",
        [
            # the points are those each level summed when it placed its own nodes
            ("gamma, converges at 17", [65], "interpolated after 17 nodes (65 placed), 177395 points"),
            ("criterion-9 NIG", [65], "interpolated after 65 nodes (65 placed), 36031 points"),
            ("heavy NIG, 801 rows", [65, 64], "interpolated after 129 nodes (129 placed), 711501 points"),
            ("heavy NIG, 200 rows", [65, 64], "interpolated after 129 nodes (129 placed), 711501 points"),
            ("heavy NIG, 100 rows", [65], "per row (too few rows) after 65 nodes (65 placed), 735770 points"),
            ("MJD over 10 sd, 801 rows", [65, 64, 128], "interpolated after 257 nodes (257 placed), 16705 points"),
            (
                "VG on (100, 513), 300 rows", [65, 64, 128],
                "per row (257 nodes not converged) after 257 nodes (257 placed), 153900 points",
            ),
        ],
    )
    def test_one_k1_k2_and_one_decay_probe_per_placement(self, case, node_placements, path, caplog):
        calls = []

        def counting(base):
            class Counting(base):
                def k1_k2(self, t):
                    calls.append(("k1_k2", sys._getframe(1).f_code.co_name, np.size(t)))
                    return super().k1_k2(t)

                def k_complex(self, line):
                    calls.append(("k_complex", sys._getframe(1).f_code.co_name, np.shape(line.c)[0]))
                    return super().k_complex(line)

            return Counting

        heavy, mjd = Nig(_HEAVY_NIG), (_MJD_P, 0.0, 1.0 / 252.0)
        vg = VgParams(sigma=0.5, nu=0.5, theta=-0.1, mu=0.0)
        base, args, x = {
            "gamma, converges at 17": (_Gamma, (5.0, 2.0), np.linspace(0.05, 4.0, 1000) * 2.5),
            "criterion-9 NIG": (Nig, (_NIG_P,), simulate_nig(_NIG_P, 4500, seed=11)),
            "heavy NIG, 801 rows": (Nig, (_HEAVY_NIG,), _sd_grid(heavy, 50.0, 801)),
            "heavy NIG, 200 rows": (Nig, (_HEAVY_NIG,), _sd_grid(heavy, 50.0, 200)),
            "heavy NIG, 100 rows": (Nig, (_HEAVY_NIG,), _sd_grid(heavy, 50.0, 100)),
            "MJD over 10 sd, 801 rows": (MjdTransition, mjd, _sd_grid(MjdTransition(*mjd), 10.0, 801)),
            "VG on (100, 513), 300 rows": (VarianceGamma, (vg,), _sd_grid(VarianceGamma(vg), 8.0, 300)),
        }[case]
        m = counting(base)(*args)
        rule = _FIXED_RULE if case.startswith("VG") else None
        with caplog.at_level(logging.DEBUG, logger="spinv.inversion"):
            log_density_terms(m, x, quad=rule)
        (record,) = caplog.records
        assert f": {path}, " in record.getMessage()
        assert [n for f, c, n in calls if (f, c) == ("k1_k2", "_interpolated")] == node_placements
        # the contour probes the decay once a placement: of the nodes, and
        # on the per-row path of the rows; a fixed rule (MJD's) never does
        rows = [x.size] if path.startswith("per row") else []
        probes = node_placements + rows if rule is None and m.spi_quad is None else []
        assert [n for f, c, n in calls if (f, c) == ("k_complex", "_decay_cut")] == probes

    @pytest.mark.parametrize(
        "width, rows, rule, path, points",
        [
            # the contour on 40 rows of the criterion-9 NIG: 33 nodes, then too few rows for 65
            (6.0, 40, None, "per row (too few rows) after 33 nodes (33 placed)", 20628),
            # (100, 513) over 50 sd: a node of the first level is unusable, 48 nodes placed and not summed
            (
                50.0, 801, _FIXED_RULE,
                "per row (unusable node at tau = 29.678675642525135) after 17 nodes (65 placed)", 801 * 513,
            ),
        ],
    )
    def test_a_batch_that_falls_back_sums_only_its_rows(self, width, rows, rule, path, points, caplog):
        # the record counts the rows' own rule alone, as it did when each
        # level placed its own nodes
        m = Nig(_NIG_P)
        x = _sd_grid(m, width, rows)
        sp = solve_saddlepoint_batch(m, x)
        with caplog.at_level(logging.DEBUG, logger="spinv.inversion"):
            p_bar_zero_batch(m, x, sp.tau, sp.k2, sp.residual, rule)
        (record,) = caplog.records
        assert f": {path}, {points} points, " in record.getMessage()
        assert _own_rule(m, x, sp.tau, sp.k2, rule)[1][2] == points
