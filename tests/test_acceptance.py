"""Acceptance suite: nine numbered end-to-end checks.

Each test prints one line, "criterion N: PASS ..." or "criterion N:
FAIL ...", with the measured quantities, then asserts the stated
tolerances. The lines bypass pytest's capture so a plain `pytest -v`
run shows every verdict.

One check is expected to fail and is left asserting its stated
tolerance anyway: the correction-factor tail asymptote (criterion 4).
Its bound of 1e-3 at 8 sd is unreachable: the closed-form Bessel density
implies p_bar(-8 sd) = 0.42298 and p_bar(+8 sd) = 0.42272, and SPI
matches both to 1e-7. The check is not moved further out either, since
a distance where the approach to (2 pi)^-1/2 shows (20-50 sd) is one
where SPI's p_bar is itself wrong today.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, optimize

from spinv.estimation import (
    ReturnSeries,
    fit_mle,
    kl_asymptotic_estimator,
)
from spinv.inversion import (
    DEFAULT_DIRECT_QUAD,
    QuadratureSpec,
    direct_ift_log_density,
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
from spinv.saddlepoint import solve_saddlepoint

_NIG_P = NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
_FINE = QuadratureSpec(800.0, 16384)
_DT = 1.0 / 252.0


@pytest.fixture()
def report(capfd):
    # capture is re-enabled for the call phase, so the disable must wrap
    # each print; this keeps the verdict visible for passing tests too
    def emit(text):
        with capfd.disabled():
            print(text, flush=True)

    return emit


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def _simulate_nig_mixture(p, n, seed):
    # variance-mean mixture draw: X = mu + gamma W + sqrt(W) Z with
    # W inverse-Gaussian(mean sqrt(chi/psi), shape chi)
    rng = np.random.default_rng(seed)
    w = rng.wald(np.sqrt(p.chi / p.psi), p.chi, n)
    return p.mu + p.gamma * w + np.sqrt(w) * rng.standard_normal(n)


def test_criterion_1_gaussian_exactness(report):
    """SPI on N(0,1) matches the analytic log-density at |x| up to 10."""
    t0 = time.time()
    p = GaussianParams(mu=0.0, sigma=1.0)
    m = Gaussian(p)
    xs = np.arange(-10.0, 10.5, 2.0)
    errs = np.array(
        [abs(spi_log_density(m, float(x)).log_density - gaussian_log_density(p, float(x))) for x in xs]
    )
    elapsed = time.time() - t0
    ok = errs.max() < 1e-5 and elapsed < 1.0
    report(
        f"criterion 1: {_verdict(ok)} gaussian exactness: max |spi - analytic| = "
        f"{errs.max():.3e} (tol 1e-5) over x in [-10, 10], runtime {elapsed:.2f}s (< 1s)"
    )
    assert errs.max() < 1e-5
    assert elapsed < 1.0


def test_criterion_2_direct_tail_failure(report):
    """Direct inversion collapses to the 1e-14 floor at N(0,1) x=8; SPI holds."""
    m = Gaussian(GaussianParams(mu=0.0, sigma=1.0))
    truth = gaussian_log_density(GaussianParams(mu=0.0, sigma=1.0), 8.0)
    direct = direct_ift_log_density(m, 8.0, quad=DEFAULT_DIRECT_QUAD)
    spi = spi_log_density(m, 8.0).log_density
    dev_direct = abs(direct - truth)
    dev_spi = abs(spi - truth)
    floor_gap = abs(direct - np.log(1e-14))
    ok = dev_direct > 0.5 and dev_spi < 1e-5 and floor_gap < 0.5
    report(
        f"criterion 2: {_verdict(ok)} tail failure: direct = {direct:.4f} "
        f"(truth {truth:.4f}, dev {dev_direct:.3f} > 0.5), spi dev = {dev_spi:.2e} "
        f"(< 1e-5), |direct - log(1e-14)| = {floor_gap:.3f}"
    )
    assert dev_direct > 0.5
    assert dev_spi < 1e-5
    assert floor_gap < 0.5


def test_criterion_3_nig_oracle_agreement(report):
    """SPI log-likelihood tracks the closed form over parameter sweeps."""
    t0 = time.time()
    obs = _simulate_nig_mixture(_NIG_P, 100, seed=42)
    mean, var = nig_moments(_NIG_P)
    sd = np.sqrt(var)

    def sweep(make_params, values):
        spi_gap = 0.0
        offsets = []
        for v in values:
            p = make_params(v)
            m = Nig(p)
            ll_spi = spi_log_density_batch(m, obs, quad=_FINE).sum()
            ll_spa = spa_log_density_batch(m, obs).sum()
            ll_ex = nig_exact_log_density(p, obs).sum()
            spi_gap += abs(ll_spi - ll_ex)
            offsets.append(ll_spa - ll_ex)
        return spi_gap, np.array(offsets)

    gamma_gap, gamma_off = sweep(
        lambda g: NigParams(chi=_NIG_P.chi, psi=_NIG_P.psi, mu=_NIG_P.mu, gamma=g),
        np.linspace(2.0, 150.0, 50),
    )
    mu_gap, _ = sweep(
        lambda u: NigParams(chi=_NIG_P.chi, psi=_NIG_P.psi, mu=u, gamma=_NIG_P.gamma),
        np.linspace(_NIG_P.mu - 4 * sd, _NIG_P.mu + 4 * sd, 50),
    )
    offset_range = gamma_off.max() - gamma_off.min()
    elapsed = time.time() - t0
    ok = gamma_gap < 1e-3 and mu_gap < 1e-3 and offset_range > 0.1 and elapsed < 30.0
    report(
        f"criterion 3: {_verdict(ok)} nig oracle agreement: total |spi - exact| = "
        f"{gamma_gap:.3e} (gamma sweep), {mu_gap:.3e} (mu sweep), both < 1e-3; "
        f"spa offset range = {offset_range:.3f} (> 0.1); runtime {elapsed:.1f}s (< 30s)"
    )
    assert gamma_gap < 1e-3
    assert mu_gap < 1e-3
    assert offset_range > 0.1
    assert elapsed < 30.0


def test_criterion_4_p_bar_tail_asymptote(report):
    """p_bar(0) should approach (2 pi)^(-1/2) eight sd out and exceed it
    at the mean. The tail legs measure ~0.024 rather than < 1e-3: at
    these tilts the standardized tilted density is genuinely non-normal
    at zero, so this check fails by a margin no quadrature can remove."""
    m = Nig(_NIG_P)
    mean, var = nig_moments(_NIG_P)
    sd = np.sqrt(var)
    target = 1.0 / np.sqrt(2.0 * np.pi)
    vals = {}
    for label, x0 in (("-8sd", mean - 8 * sd), ("mean", mean), ("+8sd", mean + 8 * sd)):
        vals[label] = math.exp(spi_log_density(m, x0, quad=_FINE).log_p_bar)
    dev_lo = abs(vals["-8sd"] - target)
    dev_hi = abs(vals["+8sd"] - target)
    ok = dev_lo < 1e-3 and dev_hi < 1e-3 and vals["mean"] > target
    report(
        f"criterion 4: {_verdict(ok)} p_bar asymptote: p_bar(-8sd) = {vals['-8sd']:.6f}, "
        f"p_bar(+8sd) = {vals['+8sd']:.6f} vs (2pi)^-0.5 = {target:.6f} "
        f"(devs {dev_lo:.4f}, {dev_hi:.4f}, tol 1e-3); p_bar(mean) = {vals['mean']:.6f} (> {target:.4f})"
    )
    assert vals["mean"] > target
    assert dev_lo < 1e-3
    assert dev_hi < 1e-3


def _spa_kl_minimizer(theta0):
    """Whole-line minimizer of the SPA cross-entropy against the NIG truth
    chi = psi = 1/theta0, computed without kl_asymptotic_estimator: the
    closed-form SPA of the symmetric NIG, adaptive quadrature on (0, inf)
    (both densities are even) and a bounded Brent search."""
    truth = NigParams(chi=1.0 / theta0, psi=1.0 / theta0, mu=0.0, gamma=0.0)

    def log_spa(x, theta):
        # chi = psi = c: K(tau) - tau x = c - sqrt(c q), K''(tau) = (q / c)^1.5
        # with q = c + x^2; the first term is written without cancellation
        c = 1.0 / theta
        q = c + x * x
        return (
            -c * x * x / (c + np.sqrt(c * q))
            - 0.5 * np.log(2.0 * np.pi)
            - 0.75 * np.log(q / c)
        )

    def cross_entropy(theta):
        val, _ = integrate.quad(
            lambda x: log_spa(x, theta) * np.exp(nig_exact_log_density(truth, x)),
            0.0,
            np.inf,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=200,
        )
        return -2.0 * val

    res = optimize.minimize_scalar(
        cross_entropy, bounds=(0.0, 4.0 * theta0), method="bounded", options={"xatol": 1e-8}
    )
    return float(res.x)


def test_criterion_5_kl_bias_experiment(report):
    """SPA's KL minimizer is biased far below the truth; SPI's stays within
    2% of it. For theta0 <= 1 SPA collapses to the boundary theta = 0. At
    theta0 = 2 the whole-line SPA cross-entropy has an interior minimum
    near 0.0418 (1.41375 against 1.41894 at theta = 0), a 98% downward
    bias, so that leg is checked against the minimizer computed
    independently by _spa_kl_minimizer."""
    t0 = time.time()
    spa_hat = {t: kl_asymptotic_estimator(t, method="spa") for t in (0.5, 1.0, 2.0)}
    spi_hat = {t: kl_asymptotic_estimator(t, method="spi") for t in (0.5, 1.0, 2.0)}
    elapsed = time.time() - t0
    spa_ref = {0.5: 0.0, 1.0: 0.0, 2.0: _spa_kl_minimizer(2.0)}
    spa_ok = {t: abs(v - spa_ref[t]) <= 1e-3 for t, v in spa_hat.items()}
    spi_rel = {t: abs(v - t) / t for t, v in spi_hat.items()}
    spi_ok = {t: rel <= 0.02 for t, rel in spi_rel.items()}
    ok = all(spa_ok.values()) and all(spi_ok.values()) and elapsed < 120.0
    spa_txt = ", ".join(
        f"theta0={t}: {v:.3e} (ref {spa_ref[t]:.4e})" for t, v in spa_hat.items()
    )
    spi_txt = ", ".join(f"theta0={t}: {v:.4f} ({spi_rel[t]*100:.2f}%)" for t, v in spi_hat.items())
    report(
        f"criterion 5: {_verdict(ok)} kl bias: spa theta_hat [{spa_txt}] (tol 1e-3); "
        f"spi theta_hat [{spi_txt}] (tol 2%); runtime {elapsed:.0f}s (< 120s)"
    )
    assert elapsed < 120.0
    for t in (0.5, 1.0, 2.0):
        assert abs(spa_hat[t] - spa_ref[t]) <= 1e-3, (
            f"spa theta0={t}: {spa_hat[t]:.4e} vs ref {spa_ref[t]:.4e}"
        )
    for t in (0.5, 1.0, 2.0):
        assert spi_rel[t] <= 0.02, f"spi theta0={t}: {spi_rel[t]*100:.2f}%"


def test_criterion_6_mjd_equivalence(report):
    """SPI and the truncated-mixture density agree per observation and
    produce the same MLE on 4500 simulated increments."""
    p = MjdParams(
        r=0.0445, sigma=np.exp(-2.41), lam=np.exp(4.96), mu_j=-0.00114, nu=np.exp(-4.32)
    )
    path = simulate_mjd_path(p, x0=0.0, dt=_DT, n_steps=4500, seed=7)
    incr = np.diff(path)
    m = MjdTransition(p, x0=0.0, dt=_DT)
    quad = QuadratureSpec(64.0, 512)
    per_obs = np.max(np.abs(spi_log_density_batch(m, incr, quad=quad) - mjd_truncated_log_density(m, incr)))

    data = ReturnSeries(dt=_DT, returns=incr)
    fit_oracle = fit_mle("mjd", data, method="oracle")
    fit_spi = fit_mle("mjd", data, method="spi", quad=quad)
    rel = np.abs(np.asarray(fit_spi.params) - np.asarray(fit_oracle.params)) / np.maximum(
        np.abs(np.asarray(fit_oracle.params)), 1e-12
    )
    ok = per_obs < 1e-6 and np.all(rel <= 5e-4)
    params_txt = ", ".join(
        f"{n}: {a:.6g}/{b:.6g}"
        for n, a, b in zip(fit_oracle.param_names, fit_oracle.params, fit_spi.params)
    )
    report(
        f"criterion 6: {_verdict(ok)} mjd equivalence: per-obs max |spi - mixture| = "
        f"{per_obs:.3e} (< 1e-6); fits (oracle/spi) agree to 3 significant digits: {params_txt}"
    )
    assert per_obs < 1e-6
    assert fit_oracle.converged and fit_spi.converged
    assert np.all(rel <= 5e-4), f"relative parameter gaps {rel}"


def test_criterion_7_normalization(report):
    """exp(SPI log-density) integrates to 1 over mean +- 12 sd."""
    m = Nig(_NIG_P)
    mean, var = nig_moments(_NIG_P)
    sd = np.sqrt(var)
    inner = QuadratureSpec(800.0, 4096)
    xs = np.linspace(mean - 12 * sd, mean + 12 * sd, 2049)
    total = integrate.simpson(np.exp(spi_log_density_batch(m, xs, quad=inner)), x=xs)
    ok = 0.9999 <= total <= 1.0001
    report(
        f"criterion 7: {_verdict(ok)} normalization: Simpson integral of exp(spi) = "
        f"{total:.8f} in [0.9999, 1.0001]"
    )
    assert 0.9999 <= total <= 1.0001


def test_criterion_8_solver_property_suite(report):
    """Residual tolerance on 1000 random pairs, monotone tau_hat, and
    tau_hat = 0 at the mean."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(1000):
        fam = ("gauss", "nig", "mjd")[trial % 3]
        if fam == "gauss":
            m = Gaussian(GaussianParams(mu=rng.uniform(-2, 2), sigma=rng.uniform(0.05, 3.0)))
        elif fam == "nig":
            m = Nig(
                NigParams(
                    chi=10 ** rng.uniform(-4, 1),
                    psi=10 ** rng.uniform(-1, 4),
                    mu=rng.uniform(-1, 1),
                    gamma=rng.uniform(-3, 3),
                )
            )
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
                dt=_DT,
            )
        x0 = m.mean() + rng.uniform(-6, 6) * np.sqrt(m.variance())
        sp = solve_saddlepoint(m, x0)
        worst = max(worst, abs(sp.residual) / max(1.0, abs(x0)))

    models = [
        Gaussian(GaussianParams(mu=0.1, sigma=1.2)),
        Nig(_NIG_P),
        MjdTransition(
            MjdParams(r=0.0445, sigma=np.exp(-2.41), lam=np.exp(4.96), mu_j=-0.00114, nu=np.exp(-4.32)),
            0.0,
            _DT,
        ),
    ]
    monotone = True
    at_mean = 0.0
    for m in models:
        sd = np.sqrt(m.variance())
        xs = m.mean() + sd * np.linspace(-6.0, 6.0, 61)
        taus = np.array([solve_saddlepoint(m, float(x)).tau_hat for x in xs])
        monotone = monotone and bool(np.all(np.diff(taus) > 0))
        at_mean = max(at_mean, abs(solve_saddlepoint(m, m.mean()).tau_hat))
    ok = worst <= 1e-10 and monotone and at_mean <= 1e-12
    report(
        f"criterion 8: {_verdict(ok)} solver properties: worst residual/max(1,|x0|) = "
        f"{worst:.3e} (<= 1e-10) over 1000 pairs; tau_hat monotone: {monotone}; "
        f"max |tau_hat(mean)| = {at_mean:.1e}"
    )
    assert worst <= 1e-10
    assert monotone
    assert at_mean <= 1e-12


def test_criterion_9_round_trip_estimation(report):
    """Simulate-then-fit recovers GBM and NIG parameters within 3
    standard errors."""
    t0 = time.time()
    true_r, true_sigma = 0.06, 0.25
    rng = np.random.default_rng(2024)
    incr = (true_r - 0.5 * true_sigma**2) * _DT + true_sigma * np.sqrt(_DT) * rng.standard_normal(4500)
    fit_g = fit_mle("gbm", ReturnSeries(dt=_DT, returns=incr))
    z_g = (np.asarray(fit_g.params) - np.array([true_r, np.log(true_sigma)])) / np.asarray(
        fit_g.std_errors
    )

    obs = simulate_nig(_NIG_P, 4500, seed=11)
    fit_n = fit_mle("nig", ReturnSeries(dt=_DT, returns=obs), method="spi")
    truth_n = np.array([np.log(_NIG_P.chi), np.log(_NIG_P.psi), _NIG_P.mu, _NIG_P.gamma])
    z_n = (np.asarray(fit_n.params) - truth_n) / np.asarray(fit_n.std_errors)
    elapsed = time.time() - t0
    ok = (
        fit_g.converged
        and fit_n.converged
        and np.all(np.abs(z_g) < 3.0)
        and np.all(np.abs(z_n) < 3.0)
        and elapsed < 300.0
    )
    report(
        f"criterion 9: {_verdict(ok)} round-trip estimation: gbm max |z| = "
        f"{np.max(np.abs(z_g)):.2f}, nig max |z| = {np.max(np.abs(z_n)):.2f} (< 3); "
        f"runtime {elapsed:.0f}s (< 300s)"
    )
    assert fit_g.converged and fit_n.converged
    assert np.all(np.abs(z_g) < 3.0), f"gbm z-scores {z_g}"
    assert np.all(np.abs(z_n) < 3.0), f"nig z-scores {z_n}"
    assert elapsed < 300.0
