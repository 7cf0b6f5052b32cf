"""The family registry: a new family through one record, and late-bound names.

The variance-gamma family below exists only in this file. Registering its
record in FAMILIES is all it takes for the CLI to evaluate, simulate and
fit it, which is the registry's design claim: any model with a
closed-form CGF plugs into the same inversion chain.
"""

import csv
import importlib.util
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, kve

import spinv.estimation as estimation
from spinv.cgf import CgfModel, DomainInterval
from spinv.cli import main
from spinv.errors import ValidationError
from spinv.estimation import FAMILIES, Family, ParamTransform, ReturnSeries
from spinv.inversion import QuadratureSpec, spi_log_density_batch
from spinv.models import Nig, NigParams, simulate_nig

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@dataclass(frozen=True)
class VgParams:
    sigma: float
    nu: float
    theta: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if not (self.sigma > 0.0 and self.nu > 0.0):
            raise ValidationError(f"sigma and nu must be positive, got {self.sigma}, {self.nu}")


class VarianceGamma(CgfModel):
    """X = mu + theta*G + sigma*sqrt(G)*Z with G ~ Gamma(1/nu, scale nu);
    K(t) = mu*t - log(q(t))/nu, q(t) = 1 - theta*nu*t - sigma^2*nu*t^2/2."""

    def __init__(self, params: VgParams):
        self.params = params

    def _q(self, t):
        p = self.params
        return 1.0 - p.theta * p.nu * t - 0.5 * p.sigma**2 * p.nu * t * t

    def _k(self, t):
        return self.params.mu * t - np.log(self._q(t)) / self.params.nu

    def k(self, t):
        return self._k(np.asarray(t, dtype=float))

    def k_complex(self, line):
        w = self._k(line.c + 1j * line.y) - self._k(line.c)
        return w.real, w.imag

    def k1_k2(self, t):
        p = self.params
        q = self._q(t)
        a = p.theta + p.sigma**2 * t
        return p.mu + a / q, p.sigma**2 / q + p.nu * a**2 / q**2

    def domain(self) -> DomainInterval:
        p = self.params
        a = 0.5 * p.sigma**2 * p.nu
        root = math.sqrt((p.theta * p.nu) ** 2 + 4.0 * a)
        return DomainInterval((-p.theta * p.nu - root) / (2.0 * a), (-p.theta * p.nu + root) / (2.0 * a))


def vg_log_density(p: VgParams, x):
    """Closed form through K_{1/nu - 1/2}, scaled so that it never underflows; x != mu."""
    y = np.asarray(x, dtype=float) - p.mu
    order = 1.0 / p.nu - 0.5
    c = 2.0 * p.sigma**2 / p.nu + p.theta**2
    z = np.abs(y) * math.sqrt(c) / p.sigma**2
    return (
        math.log(2.0)
        + p.theta * y / p.sigma**2
        - math.log(p.nu) / p.nu
        - 0.5 * math.log(2.0 * math.pi)
        - math.log(p.sigma)
        - gammaln(1.0 / p.nu)
        + 0.5 * order * np.log(y * y / c)
        + np.log(kve(order, z))
        - z
    )


def _vg_path(p: VgParams, n, dt, seed):
    rng = np.random.default_rng(seed)
    g = rng.gamma(1.0 / p.nu, p.nu, size=n)
    steps = p.mu + p.theta * g + p.sigma * np.sqrt(g) * rng.standard_normal(n)
    return np.concatenate([[0.0], np.cumsum(steps)])


def _vg_init(data: ReturnSeries) -> VgParams:
    # symmetric moment match: var = sigma^2, excess kurtosis = 3*nu
    x = data.returns
    m, v = float(np.mean(x)), float(np.var(x))
    ek = max(float(np.mean((x - m) ** 4)) / v**2 - 3.0, 0.05)
    return VgParams(sigma=math.sqrt(v), nu=ek / 3.0, theta=0.0, mu=m)


VG = Family(
    ParamTransform(VgParams, ("log_sigma", "log_nu", "theta", "mu")),
    model=lambda p, dt, x0: VarianceGamma(p),
    oracle=lambda m, x: vg_log_density(m.params, x),
    simulate=_vg_path,
    moment_init=_vg_init,
)

# daily-return scale, skewed left as in the paper's equity examples
_VG_P = VgParams(sigma=0.01, nu=0.25, theta=-0.003, mu=0.001)
_VG_ARGS = ["--params", "sigma=0.01", "nu=0.25", "theta=-0.003", "mu=0.001"]


@pytest.fixture
def vg_registered(monkeypatch):
    monkeypatch.setitem(FAMILIES, "vg", VG)


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestVarianceGammaThroughOneRecord:
    @pytest.mark.parametrize("theta", [0.0, -0.003])
    def test_density_spi_matches_oracle(self, vg_registered, capsys, theta):
        p = VgParams(sigma=0.01, nu=0.25, theta=theta, mu=0.001)
        m = VarianceGamma(p)
        mean, sd = m.mean(), math.sqrt(m.variance())
        # +-8 sd in 40 steps; the offset keeps every row off the cusp at x = mu
        lo, step = mean - 8.0 * sd + 0.013 * sd, 0.4 * sd
        grid = f"{lo!r}:{lo + 40 * step!r}:{step!r}"
        params = ["--params", "sigma=0.01", "nu=0.25", f"theta={theta!r}", "mu=0.001"]
        code, out = _run(capsys, ["density", "--family", "vg", "--method", "spi", *params, "--grid", grid])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 41
        xs = np.array([float(r[0]) for r in rows])
        assert np.min(np.abs(xs - p.mu)) > 1e-3 * sd
        spi = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(spi - vg_log_density(p, xs))) < 1e-8

    def test_simulate_loglik_and_fit(self, vg_registered, capsys, tmp_path):
        prices = str(tmp_path / "vg.csv")
        code = main(["simulate", "--family", "vg", *_VG_ARGS, "--n", "1000", "--seed", "11", "--output", prices])
        assert code == 0
        for method in ("spi", "oracle"):
            code, out = _run(capsys, ["loglik", "--family", "vg", "--method", method, *_VG_ARGS, "--input", prices])
            assert code == 0
            assert math.isfinite(json.loads(out)["loglik"])
        code, out = _run(capsys, ["fit", "--family", "vg", "--method", "oracle", "--input", prices])
        payload = json.loads(out)
        assert code == 0 and payload["converged"] is True
        assert set(payload["params"]) == {"sigma", "nu", "theta", "mu"}
        assert set(payload["std_errors"]) == {"log_sigma", "log_nu", "theta", "mu"}
        # 1000 draws pin sigma to a few percent
        assert abs(payload["params"]["sigma"] / _VG_P.sigma - 1.0) < 0.1


class _FineNig(Nig):
    """A model that states its own SPI rule, as a new family's model may."""

    spi_quad = QuadratureSpec(150.0, 1025)


def test_likelihood_takes_the_spi_rule_from_the_model(monkeypatch, capsys, tmp_path):
    """With no rule given, the CLI, the likelihood and the batch evaluator
    all take the one the model states, as if both flags had given it."""
    monkeypatch.setitem(FAMILIES, "nig_fine", replace(FAMILIES["nig"], model=lambda p, dt, x0: _FineNig(p)))
    p = NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
    prices = tmp_path / "nig.csv"
    prices.write_text("".join(f"{v:.17g}\n" for v in np.exp(np.cumsum(simulate_nig(p, 40, seed=5)))))
    argv = ["loglik", "--family", "nig_fine", "--params", "chi=3e-4", "psi=1000", "mu=-3e-4", "gamma=2"]
    nlls = []
    for flags in ([], ["--quad-upper", "150", "--quad-points", "1025"]):
        code, out = _run(capsys, [*argv, *flags, "--input", str(prices)])
        assert code == 0
        nlls.append(json.loads(out)["nll"])
    data = ReturnSeries(dt=1.0 / 252.0, returns=np.diff(np.log(np.loadtxt(prices))))
    assert nlls[0] == nlls[1] == estimation.negative_log_likelihood("nig_fine", p, data, "spi")
    assert nlls[0] == -float(np.sum(spi_log_density_batch(_FineNig(p), data.returns)))
    assert nlls[0] == estimation.negative_log_likelihood("nig", p, data, "spi", _FineNig.spi_quad)
    assert nlls[0] != estimation.negative_log_likelihood("nig", p, data, "spi")


def test_benchmark_tracer_sees_the_models_of_a_likelihood():
    """The records build models and oracles from names looked up in
    estimation when called, so the benchmark's tracer, which replaces
    those module attributes, sees the CF work of an SPI likelihood."""
    if not _TRACING.exists():
        pytest.skip("perfbench/tracing.py is absent")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    p = NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
    data = ReturnSeries(dt=1.0 / 252.0, returns=simulate_nig(p, 20, seed=3))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        estimation.negative_log_likelihood("nig", p, data, "spi")
        estimation.negative_log_likelihood("nig", p, data, "oracle")
    finally:
        tracer.restore()
    assert tracer.spans[0][tracing.NAME] == "estimation.negative_log_likelihood"
    assert tracing.inclusive_counts(tracer.spans)[0].get("k_complex_elems", 0) > 0
    # the oracle's K1 is looked up as models.bessel_k1_scaled, which the tracer times
    assert "bessel.bessel_k1_scaled" in {s[tracing.NAME] for s in tracer.spans}
