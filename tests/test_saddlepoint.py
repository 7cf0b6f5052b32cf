"""Tests for the safeguarded saddlepoint solver."""

import logging
import math
import re

import numpy as np
import pytest

from spinv.cgf import CgfModel, DomainInterval
from spinv.errors import ConvergenceError, DomainError, UnattainableMeanError
from spinv.models import (
    Gaussian,
    GaussianParams,
    MjdParams,
    MjdTransition,
    Nig,
    NigParams,
)
from spinv import saddlepoint
from spinv.inversion import spa_log_density_batch
from spinv.saddlepoint import (
    NOT_CONVERGED,
    UNATTAINABLE,
    UNRESOLVABLE,
    solve_saddlepoint,
    solve_saddlepoint_batch,
)


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
# criterion 6's MJD, and a jump-dominated MJD
_C6 = MjdParams(r=0.0445, sigma=np.exp(-2.41), lam=np.exp(4.96), mu_j=-0.00114, nu=np.exp(-4.32))
_LAM3 = MjdParams(r=0.05, sigma=0.2, lam=3.0, mu_j=-0.05, nu=0.1)
# tilts out to where the MJD jump exponential overflows, and past it
_MJD_T = np.array([-np.inf, -1e6, -3e3, -50.0, -1.0, 0.0, 1.0, 50.0, 3e3, 1e6, np.inf, np.nan])


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

    def k_complex(self, line):
        w = -np.log1p(-(line.c + 1j * line.y) / self.rate) - self.k(line.c)
        return w.real, w.imag

    def k1_k2(self, t):
        u = self.rate - np.asarray(t, dtype=float)
        return 1.0 / u, 1.0 / u**2

    def domain(self) -> DomainInterval:
        return DomainInterval(-np.inf, self.rate)


class Knee(CgfModel):
    """A convex K whose K'' rises from 1 at t = 0 to `a` within about eps
    of it, so that log(K'(t) - K'(0)) is concave: from a far overshoot,
    the Newton step in log space lands on the wrong side of 0. A shape for
    the solver, not the CGF of a law used elsewhere."""

    def __init__(self, a: float, eps: float):
        self.a, self.eps = a, eps

    def k(self, t):
        return self._k(np.asarray(t, dtype=float))

    def k_complex(self, line):
        w = self._k(line.c + 1j * line.y) - self._k(line.c)
        return w.real, w.imag

    def _k(self, t):
        e = self.eps
        bend = e * (t * np.arctan(t / e) - 0.5 * e * np.log1p((t / e) ** 2))
        return 0.5 * t**2 + (self.a - 1.0) * (0.5 * t**2 - bend)

    def k1_k2(self, t):
        t = np.asarray(t, dtype=float)
        k1 = t + (self.a - 1.0) * (t - self.eps * np.arctan(t / self.eps))
        return k1, 1.0 + (self.a - 1.0) * t**2 / (t**2 + self.eps**2)

    def domain(self) -> DomainInterval:
        return DomainInterval(-np.inf, np.inf)


class TestExactCases:
    def test_gaussian_closed_form_few_iterations(self):
        m = Gaussian(GaussianParams(mu=0.3, sigma=2.0))
        sp = solve_saddlepoint(m, 1.7)
        np.testing.assert_allclose(sp.tau[0], (1.7 - 0.3) / 4.0, rtol=1e-12)
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
            assert sp.tau[0] == 0.0
            assert sp.iterations == 0

    def test_solution_fields(self):
        m = Nig(NigParams(chi=1.0, psi=4.0, mu=0.0, gamma=0.5))
        x0 = m.mean() + 1.5 * np.sqrt(m.variance())
        sp = solve_saddlepoint(m, x0)
        np.testing.assert_allclose(sp.k2[0], float(m.k2(sp.tau[0])), rtol=1e-14)
        np.testing.assert_allclose(sp.residual[0], float(m.k1(sp.tau[0])) - x0, atol=1e-12)


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
            assert abs(sp.residual[0]) <= 1e-10 * max(1.0, abs(x0))
            assert m.domain().contains(sp.tau[0])

    def test_far_overshooting_initial_guess(self):
        # rare-jump regime: the quadratic-CGF initial guess lands two
        # orders of magnitude past the root, where the jump exponential
        # dominates and plain Newton would crawl back too slowly
        m = MjdTransition(_MJD_OVERSHOOT, x0=0.0, dt=1.0 / 252.0)
        x0 = _X_OVERSHOOT
        sp = solve_saddlepoint(m, x0)
        assert abs(sp.residual[0]) <= 1e-10 * max(1.0, abs(x0))
        assert sp.iterations <= 40


class TestMonotonicity:
    @pytest.mark.parametrize(
        "model",
        [
            Gaussian(GaussianParams(mu=0.1, sigma=1.2)),
            Nig(NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)),
            Nig(NigParams(chi=1.0, psi=1.0, mu=0.0, gamma=-0.5)),
            MjdTransition(_C6, 0.0, 1.0 / 252.0),
        ],
    )
    def test_tau_increasing_in_x0(self, model):
        # K' is increasing, so its inverse tau_hat(x0) must be as well
        sd = np.sqrt(model.variance())
        xs = model.mean() + sd * np.linspace(-6.0, 6.0, 61)
        taus = np.array([solve_saddlepoint(model, float(x)).tau[0] for x in xs])
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
        np.testing.assert_allclose(sp.tau[0], 1.75, rtol=1e-10)


class TestBatch:
    def test_matches_scalar(self):
        m = Nig(_NIG_P)
        xs = m.mean() + np.sqrt(m.variance()) * np.linspace(-6.0, 6.0, 41)
        batch = solve_saddlepoint_batch(m, xs).tau
        scalar = np.array([solve_saddlepoint(m, float(x)).tau[0] for x in xs])
        _assert_within_scalar_gap(m, xs, batch, scalar)  # K'' here is ~5e-4

    def test_residuals_within_tolerance(self):
        m = MjdTransition(_LAM3, x0=0.0, dt=1.0 / 252.0)
        xs = m.mean() + np.sqrt(m.variance()) * np.linspace(-6.0, 6.0, 101)
        taus = solve_saddlepoint_batch(m, xs).tau
        res = np.abs(m.k1(taus) - xs)
        assert np.all(res <= 1e-10 * np.maximum(1.0, np.abs(xs)))

    def test_error_carries_observation_index(self):
        # the batch marks the row it cannot solve; the density raises for it
        m = Exponential(2.0)
        xs = np.array([0.6, 1.0, -0.5])
        sol = solve_saddlepoint_batch(m, xs)
        assert sol.reason.tolist() == [0, 0, UNATTAINABLE]
        assert np.isnan(sol.tau[2]) and np.isnan(sol.k2[2])
        assert np.all(np.isfinite(sol.tau[:2]))
        assert type(sol.error(2)) is UnattainableMeanError and sol.error(0) is None
        with pytest.raises(UnattainableMeanError, match="observation 2"):
            spa_log_density_batch(m, xs)


class TestStart:
    def test_random_nig_batch_meets_tolerance_and_matches_scalar(self):
        # NIG starts at its exact root; the parameters are drawn as in
        # test_random_models_and_targets
        rng = np.random.default_rng(321)
        for _ in range(100):
            m = _random_nig(rng)
            xs = m.mean() + rng.uniform(-6, 6, 20) * np.sqrt(m.variance())
            batch = solve_saddlepoint_batch(m, xs).tau
            assert np.all(np.abs(m.k1(batch) - xs) <= 1e-10 * np.maximum(1.0, np.abs(xs)))
            scalar = np.array([solve_saddlepoint(m, float(x)).tau[0] for x in xs])
            _assert_within_scalar_gap(m, xs, batch, scalar)

    @pytest.mark.parametrize(
        "params, sds, reason",
        [
            (_NIG_P, 50.0, 0),
            (_NIG_P, 1e3, 0),
            (_NIG_P, 1e6, UNRESOLVABLE),
            (_NIG_P, 1e9, UNATTAINABLE),
            (_NIG_P, 1e12, UNATTAINABLE),
            (_NIG_SMALL, 50.0, 0),
            (_NIG_SMALL, 1e3, UNRESOLVABLE),
            (_NIG_SMALL, 1e6, UNRESOLVABLE),
            (_NIG_SMALL, 1e9, UNATTAINABLE),
            (_NIG_SMALL, 1e12, UNATTAINABLE),
        ],
    )
    def test_far_nig_rows_solve_or_raise_as_from_the_quadratic_start(self, params, sds, reason):
        # reason is 0 where the solve succeeds, else the row's reason,
        # which sets the exact exception type it raises
        # (UnattainableMeanError is a ConvergenceError); starting NIG at its
        # exact root must not change either. At 1e6 sd for _NIG_SMALL, K'
        # at the last float before the end of the domain is past x, so the
        # mean is attainable but not resolvable; at 1e3 sd (1e6 for _NIG_P)
        # rounding moves K' by more than the tolerance between neighbouring
        # floats, so the bracket stops splitting short of it: unresolvable
        # too.
        m = Nig(params)
        outcome = ConvergenceError if reason == UNRESOLVABLE else UnattainableMeanError
        for x in m.mean() + np.array([-sds, sds]) * math.sqrt(m.variance()):
            assert solve_saddlepoint_batch(m, np.array([x])).reason.tolist() == [reason]
            for solve in (
                lambda: solve_saddlepoint(m, x).tau[0],
                lambda: _batch_row(solve_saddlepoint_batch(m, np.array([x]))),
            ):
                if not reason:
                    tau = solve()
                    assert m.domain().contains(tau)
                    assert abs(float(m.k1(tau)) - x) <= 1e-10 * max(1.0, abs(x))
                else:
                    with pytest.raises(ConvergenceError) as excinfo:
                        solve()
                    assert type(excinfo.value) is outcome

    @pytest.mark.parametrize(
        "params",
        [
            NigParams(0.22753870571391377, 0.05985072883449781, 0.010535350315951549, -6.618744946765491),
            NigParams(0.00017236368895826086, 0.1441347084959013, -0.0035192232720199492, -6.402068854529105),
            NigParams(0.011984465646894243, 0.24947942973383083, 0.010247201882302291, -5.146626895851042),
        ],
    )
    def test_rows_at_a_domain_end_nig_rounds_away_are_marked(self, params):
        # K' cannot be taken at the last float before the upper end of
        # these domains: D(t) rounds to <= 0 there, and k1 raises. The row
        # 5e4 sd out probes toward that end; one float further in K' is
        # past x, so it is unresolvable, and the batch keeps every row as
        # that row alone has it
        m = Nig(params)
        with pytest.raises(DomainError):
            m.k1(np.nextafter(m.domain().hi, 0.0))
        xs = m.mean() + math.sqrt(m.variance()) * np.array([-3000.0, 0.0, 3000.0, 2e4, 5e4])
        sol = solve_saddlepoint_batch(m, xs)
        assert sol.reason.tolist() == [UNRESOLVABLE, 0, UNRESOLVABLE, UNRESOLVABLE, UNRESOLVABLE]
        alone = [solve_saddlepoint_batch(m, xs[i : i + 1]).tau for i in range(xs.size)]
        assert np.array_equal(sol.tau, np.concatenate(alone), equal_nan=True)

    def test_unresolvable_row_stops_early_and_names_its_residual(self):
        # at 1e3 sd of _NIG_SMALL the bracket stops splitting between two
        # neighbouring floats long before the iteration budget runs out
        m = Nig(_NIG_SMALL)
        x = m.mean() + 1e3 * math.sqrt(m.variance())
        sol = solve_saddlepoint_batch(m, np.array([x]))
        assert sol.reason.tolist() == [UNRESOLVABLE] and sol.iterations < saddlepoint._MAX_ITER
        assert abs(sol.residual[0]) > 1e-10 * x
        assert str(sol.error(0)) == (
            f"K' crosses x0={x} within float resolution; the root cannot be resolved "
            f"(residual {float(sol.residual[0]):.3e})"
        )

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
        np.testing.assert_array_equal(CgfModel.saddlepoint_start(m, xs, *m.k1_k2(0.0)), t)

    def test_closed_form_starts_are_roots(self):
        for m in (Gaussian(GaussianParams(mu=0.3, sigma=2.0)), Nig(_NIG_P), Nig(_NIG_SMALL)):
            xs = m.mean() + np.sqrt(m.variance()) * np.linspace(-50.0, 50.0, 41)
            t = m.saddlepoint_start(xs, *m.k1_k2(0.0))
            np.testing.assert_allclose(m.k1(t), xs, rtol=1e-10, atol=1e-10)


def _batch_row(sol):
    """tau of a one-row batch, or the row's exception raised."""
    exc = sol.error(0)
    if exc is not None:
        raise exc
    return float(sol.tau[0])


def _batch_record(caplog, m, xs):
    """(rows, iterations, row steps in log space, rows guarded,
    bisections, failed rows not converged, unattainable, unresolvable)
    from the batch solver's DEBUG record, which must give the counts of
    the record the solver returns."""
    with caplog.at_level(logging.DEBUG, logger="spinv.saddlepoint"):
        caplog.clear()
        sol = solve_saddlepoint_batch(m, xs)
    (record,) = caplog.records
    counts = re.fullmatch(
        r"saddlepoint of (\d+) rows: (\d+) iterations, (\d+) row steps in log space, "
        r"(\d+) rows guarded, (\d+) bisections, failed: (\d+) not converged, "
        r"(\d+) unattainable, (\d+) unresolvable",
        record.getMessage(),
    ).groups()
    counts = tuple(int(c) for c in counts)
    failed = tuple(int(np.count_nonzero(sol.reason == k)) for k in (1, 2, 3))
    assert counts == (
        sol.tau.size, sol.iterations, sol.log_steps, sol.guarded, sol.bisections, *failed
    )
    return counts


def _grid(m, sds, n):
    return m.mean() + np.sqrt(m.variance()) * np.linspace(-sds, sds, n)


class TestBatchLog:
    def test_nig_starts_at_its_root(self, caplog):
        m = Nig(_NIG_P)
        assert _batch_record(caplog, m, _grid(m, 6.0, 41)) == (41, 0, 0, 0, 0, 0, 0, 0)

    def test_mjd_iterates(self, caplog):
        # plain Newton from the quadratic start took 29 iterations here
        m = MjdTransition(_C6)
        rows, iterations, log_steps, guarded, _, *failed = _batch_record(caplog, m, _grid(m, 6.0, 101))
        assert rows == 101 and 0 < iterations <= 10 and log_steps > 0
        assert guarded == 0 and failed == [0, 0, 0]

    def test_jump_dominated_rows_converge_in_the_batch(self, caplog):
        # TestBatch's lambda = 3 input: plain Newton crawled back from the
        # overshoot for 100 iterations and left 61 rows unsolved
        m = MjdTransition(_LAM3, x0=0.0, dt=1.0 / 252.0)
        rows, iterations, log_steps, _, _, *failed = _batch_record(caplog, m, _grid(m, 6.0, 101))
        assert rows == 101 and iterations <= 12 and log_steps > 0 and failed == [0, 0, 0]

    @pytest.mark.parametrize("a", [1000.0, 1e4])
    def test_log_step_stays_on_the_roots_side_of_zero(self, caplog, a):
        # a log step taken across 0 and the plain step back from there
        # cycle; without the side test, 20 of the a = 1000 rows are left
        # unsolved. Where log K' is concave (a = 1e4), the log step lands
        # short of the root and plain Newton jumps past it again: the row
        # zigzags until it is guarded (30 iterations if it never were).
        m = Knee(a=a, eps=0.01)
        xs = np.linspace(-50.0, 50.0, 101)
        rows, iterations, *_, nc, un, ur = _batch_record(caplog, m, xs)
        assert rows == 101 and iterations <= 15 and (nc, un, ur) == (0, 0, 0)
        taus = solve_saddlepoint_batch(m, xs).tau
        assert np.all(np.abs(m.k1(taus) - xs) <= 1e-10 * np.maximum(1.0, np.abs(xs)))

    def test_unconverged_rows_are_marked(self, caplog, monkeypatch):
        # two iterations leave rows short of the tolerance: they fail
        # alone, with NaN tau and K'', and the rest keep their roots
        monkeypatch.setattr(saddlepoint, "_MAX_ITER", 2)
        m = MjdTransition(_C6)
        xs = _grid(m, 6.0, 101)
        rows, iterations, *_, nc, un, ur = _batch_record(caplog, m, xs)
        assert (rows, iterations, un, ur) == (101, 2, 0, 0) and 0 < nc < rows
        sol = solve_saddlepoint_batch(m, xs)
        failed = sol.reason == NOT_CONVERGED
        assert np.count_nonzero(failed) == nc
        assert np.all(np.isnan(sol.tau[failed])) and np.all(np.isnan(sol.k2[failed]))
        ok = ~failed
        assert np.all(np.abs(m.k1(sol.tau[ok]) - xs[ok]) <= 1e-10 * np.maximum(1.0, np.abs(xs[ok])))
        (i, *_) = np.flatnonzero(failed)
        assert re.fullmatch(
            rf"saddlepoint iteration did not converge for x0={float(xs[i])} "
            r"\(residual -?\d\.\d{3}e[+-]\d+ after 2 iterations\)",
            str(sol.error(i)),
        )

    def test_last_step_is_checked(self, caplog, monkeypatch):
        # the grid converges on the 7th step, so with a budget of 7 only a
        # check of the residual after the last step keeps its rows from
        # failing
        monkeypatch.setattr(saddlepoint, "_MAX_ITER", 7)
        m = MjdTransition(_C6)
        _, iterations, *_, nc, un, ur = _batch_record(caplog, m, _grid(m, 6.0, 101))
        assert (iterations, nc, un, ur) == (7, 0, 0, 0)


class TestK1K2:
    @pytest.mark.parametrize("params", [_C6, _LAM3])
    def test_mjd_is_inf_and_nan_where_the_jump_exponential_is(self, params):
        # _MJD_T reaches where exp(jump exponent) overflows (inf) and
        # where it is not defined (nan); k1_k2 raises for neither
        m = MjdTransition(params, x0=0.0, dt=1.0 / 252.0)
        with np.errstate(over="ignore", invalid="ignore"):
            k1, k2 = m.k1_k2(_MJD_T)
        assert np.isinf(k2).any() and np.isnan(k2).any()
        assert np.array_equal(np.isnan(k1), np.isnan(k2))
        assert np.all(np.isfinite(k2[np.abs(_MJD_T) <= 50.0]))

    @pytest.mark.parametrize("params", [_NIG_P, _NIG_SMALL])
    def test_nig_raises_outside_the_domain_as_k1_does(self, params):
        m = Nig(params)
        dom = m.domain()
        width = dom.hi - dom.lo
        for t in (dom.lo - 1e-6 * width, dom.hi + 1.0, np.array([0.0, dom.hi + 1e-6 * width])):
            for f in (m.k1, m.k1_k2):
                with pytest.raises(DomainError):
                    f(t)

    def test_returned_k2_is_k2_at_tau(self, monkeypatch):
        # from the solver's last evaluation; a budget of 2 iterations
        # leaves rows unconverged, which are marked failed with NaN tau and K''
        for m, short in (
            (Gaussian(GaussianParams(mu=0.3, sigma=2.0)), False),
            (Nig(_NIG_P), False),
            (Knee(a=1000.0, eps=0.01), False),
            (Knee(a=1e4, eps=0.01), False),
            (MjdTransition(_C6), False),
            (MjdTransition(_C6), True),
        ):
            if short:
                monkeypatch.setattr(saddlepoint, "_MAX_ITER", 2)
            sol = solve_saddlepoint_batch(m, _grid(m, 6.0, 101))
            ok = sol.reason == 0
            assert ok.all() != short
            assert np.array_equal(sol.k2[ok], m.k2(sol.tau[ok]))
            assert np.all(np.isnan(sol.tau[~ok])) and np.all(np.isnan(sol.k2[~ok]))


def _random_mjd_batches(seed, n):
    """n random MJD models, each with 50 targets within 6 sd of its mean."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m = MjdTransition(
            MjdParams(
                r=rng.uniform(-0.2, 0.2),
                sigma=10 ** rng.uniform(-2, 0),
                lam=10 ** rng.uniform(-1, 3),
                mu_j=rng.uniform(-0.1, 0.1),
                nu=10 ** rng.uniform(-3, -0.5),
            ),
            x0=0.0,
            dt=1.0 / 252.0,
        )
        yield m, m.mean() + rng.uniform(-6, 6, 50) * np.sqrt(m.variance())


class TestRandomMjd:
    def test_overflowing_rows_are_guarded(self):
        # rows whose iterate lands where K' overflows must find their way
        # back inside their bracket rather than sit there until the
        # iteration budget runs out; the slowest batch takes 16 iterations
        guarded = slowest = 0
        for m, xs in _random_mjd_batches(7, 200):
            sol = solve_saddlepoint_batch(m, xs)
            assert not sol.reason.any()
            assert np.all(np.abs(m.k1(sol.tau) - xs) <= 1e-10 * np.maximum(1.0, np.abs(xs)))
            guarded += sol.guarded
            slowest = max(slowest, sol.iterations)
        assert guarded > 0 and slowest <= 18

    def test_batch_meets_tolerance_and_matches_scalar(self):
        for m, xs in _random_mjd_batches(2024, 60):
            batch = solve_saddlepoint_batch(m, xs).tau
            assert np.all(np.abs(m.k1(batch) - xs) <= 1e-10 * np.maximum(1.0, np.abs(xs)))
            solved = []
            for i, x in enumerate(xs):
                try:
                    solved.append((i, solve_saddlepoint(m, float(x)).tau[0]))
                except ConvergenceError:
                    pass
            idx, scalar = (np.array(v) for v in zip(*solved))
            _assert_within_scalar_gap(m, xs[idx], batch[idx], scalar)
