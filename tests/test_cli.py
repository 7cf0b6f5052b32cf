"""End-to-end tests for the command line interface."""

import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import spinv.cli
import spinv.estimation
from spinv.cli import main, read_price_csv
from spinv.errors import InversionError, ParseError, SpinvError, ValidationError
from spinv.estimation import (
    FitResult,
    GbmParams,
    ReturnSeries,
    moment_init,
    negative_log_likelihood,
    profile_nll,
)
from spinv.inversion import (
    QuadratureSpec,
    direct_ift_log_density_batch,
    log_density_terms,
    spa_log_density,
    spa_log_density_batch,
    spi_log_density,
    spi_log_density_batch,
)
from spinv.models import (
    GaussianParams,
    MjdParams,
    Nig,
    NigParams,
    gaussian_log_density,
    nig_exact_log_density,
    nig_moments,
)
from spinv.saddlepoint import solve_saddlepoint_batch


# a fixed SPI rule that fails on heavy NIG tails, which the tests of
# per-row failures rely on
_FIXED_RULE = QuadratureSpec(100.0, 513)
_FIXED_RULE_FLAGS = ["--quad-upper", "100", "--quad-points", "513"]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _write_prices(path, prices, header=None, date_col=False):
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for i, p in enumerate(prices):
            if date_col:
                fh.write(f"2024-01-{i+1:02d},{p}\n")
            else:
                fh.write(f"{p}\n")


# finite parameters whose square or exponential overflows: each is
# refused where the derived value is formed, by every command that
# builds the model, not met as an OverflowError traceback or a NIG
# strip of infinite half-width
_MJD = {"r": "0", "sigma": "0.2", "lambda": "10", "mu_j": "0", "nu": "0.1"}
_OVERFLOWS = {
    "gaussian-sigma": ("gaussian", {"sigma": "1e300"}, "sigma^2 overflows at GaussianParams(mu=0.0, sigma=1e+300)"),
    "gbm-sigma": ("gbm", {"r": "0", "sigma": "1e200"}, "the drift overflows at GbmParams(r=0.0, sigma=1e+200)"),
    "nig-gamma": ("nig", {"chi": "1", "psi": "1", "gamma": "1e300"},
                  "sqrt(gamma^2 + psi) overflows at NigParams(chi=1.0, psi=1.0, mu=0.0, gamma=1e+300)"),
    "nig-half-width": ("nig", {"chi": "1", "psi": "1e308", "gamma": "1e154"},
                       "sqrt(gamma^2 + psi) overflows at NigParams(chi=1.0, psi=1e+308, mu=0.0, gamma=1e+154)"),
    "mjd-sigma": ("mjd", {**_MJD, "sigma": "1e300"},
                  "the drift overflows at MjdParams(r=0.0, sigma=1e+300, lam=10.0, mu_j=0.0, nu=0.1)"),
    "mjd-mu_j": ("mjd", {**_MJD, "mu_j": "1000"},
                 "exp(mu_j + nu^2/2) overflows at MjdParams(r=0.0, sigma=0.2, lam=10.0, mu_j=1000.0, nu=0.1)"),
    "mjd-nu": ("mjd", {**_MJD, "nu": "1e200"},
               "exp(mu_j + nu^2/2) overflows at MjdParams(r=0.0, sigma=0.2, lam=10.0, mu_j=0.0, nu=1e+200)"),
}


class TestDensity:
    def test_gaussian_spi_matches_analytic(self, capsys):
        code, out, _ = _run(
            capsys,
            ["density", "--family", "gaussian", "--method", "spi", "--grid", "-2:2:1"],
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["x", "log_density", "tilt_term", "jacobian_term", "log_p_bar", "error"]
        assert len(rows) == 5
        for row in rows:
            x = float(row[0])
            expected = gaussian_log_density(GaussianParams(mu=0.0, sigma=1.0), [x])[0]
            np.testing.assert_allclose(float(row[1]), expected, atol=1e-9)
            # decomposition columns populated for spi
            assert row[2] != "" and row[3] != "" and row[4] != ""
            assert row[5] == ""

    def test_json_format(self, capsys):
        code, out, _ = _run(
            capsys,
            ["density", "--family", "gaussian", "--grid", "0:1:1", "--format", "json"],
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 2
        assert records[0]["error"] is None
        assert isinstance(records[0]["log_density"], float)

    def test_oracle_method_skips_decomposition(self, capsys):
        code, out, _ = _run(
            capsys,
            ["density", "--family", "gaussian", "--method", "oracle", "--grid", "0:0:1"],
        )
        assert code == 0
        _, rows = _parse_csv(out)
        assert rows[0][2] == "" and rows[0][4] == ""
        np.testing.assert_allclose(float(rows[0][1]), -0.5 * np.log(2 * np.pi), rtol=1e-12)

    # lambda names lam after mjd's coordinate log_lambda
    @pytest.mark.parametrize("name", ["lambda", "lam"])
    def test_custom_params_and_lambda_alias(self, capsys, name):
        code, out, _ = _run(
            capsys,
            [
                "density", "--family", "mjd", "--method", "oracle",
                "--params", "r=0.05", "sigma=0.2", f"{name}=3", "mu_j=-0.05", "nu=0.1",
                "--grid", "0:0:1",
            ],
        )
        assert code == 0
        _, rows = _parse_csv(out)
        assert float(rows[0][1]) > 0  # near the mode of a tight transition density

    def test_missing_required_param_exits_3(self, capsys):
        code, _, err = _run(
            capsys, ["density", "--family", "mjd", "--params", "r=0.05", "--grid", "0:0:1"]
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["density", "--family", "gbm", "--params", "r=0.05", "sigma=0.2", "--dt", "-1", "--grid", "0:1:1"],
             "dt must be positive"),
            (["simulate", "--family", "gbm", "--params", "r=0.05", "sigma=0.2", "--dt", "-1", "--n", "3"],
             "dt must be positive"),
            # every subcommand rejects a step that is not positive, also for a family that ignores it
            (["density", "--family", "nig", "--params", "chi=1", "psi=1", "--grid", "0:1:1", "--dt", "-3"],
             "--dt must be positive and finite, got -3.0"),
            (["simulate", "--family", "nig", "--params", "chi=1", "psi=1", "--n", "3", "--dt", "0"],
             "--dt must be positive and finite, got 0.0"),
            (["simulate", "--family", "mjd", "--params", "r=0.05", "sigma=0.2", "lambda=1", "mu_j=0",
              "nu=0.1", "--n", "3", "--dt", "0"], "--dt must be positive and finite, got 0.0"),
            (["density", "--family", "gaussian", "--grid", "0:1:1", "--dt", "-0.0"], "--dt must be positive"),
            (["fit", "--family", "gbm", "--input", "prices.csv", "--dt", "-1"], "--dt must be positive"),
            (["density", "--family", "gaussian", "--grid", "0:inf:1"], "finite"),
            (["density", "--family", "gaussian", "--grid", "nan:1:1"], "finite"),
            # rejected before any grid is allocated
            (["density", "--family", "gaussian", "--grid", "0:1e12:1e-12"], "rows"),
            (["density", "--family", "gaussian", "--grid", "-1e308:1e308:1"], "rows"),
            (["density", "--family", "gaussian", "--params", "sigma=1", "sigma=2", "--grid", "0:0:1"],
             "'sigma' more than once"),
            (["density", "--family", "mjd", "--params", "r=0.05", "sigma=0.2", "lambda=1", "lam=2",
              "mu_j=0", "nu=0.1", "--grid", "0:0:1"], "'lam' more than once"),
            # a value that is not finite is rejected by its flag, or by the
            # params record for a --params key, not met later as nan prices,
            # -inf rows or a solver failure
            (["simulate", "--family", "gbm", "--params", "r=0", "sigma=0.2", "--n", "3", "--dt", "inf"],
             "--dt must be positive and finite, got inf"),
            (["simulate", "--family", "nig", "--params", "chi=1", "psi=1", "mu=inf", "--n", "2"],
             "mu must be finite, got inf"),
            (["density", "--family", "gaussian", "--params", "sigma=inf", "--method", "oracle",
              "--grid", "0:1:1"], "sigma must be positive and finite, got inf"),
            (["density", "--family", "nig", "--params", "chi=1", "psi=inf", "--grid", "0:0:1"],
             "psi must be positive and finite, got inf"),
            (["density", "--family", "mjd", "--params", "r=0.05", "sigma=0.2", "lambda=nan", "mu_j=0",
              "nu=0.1", "--grid", "0:0:1"], "lam must be non-negative and finite, got nan"),
            (["density", "--family", "mjd", "--params", "r=0.05", "sigma=0.2", "lambda=1", "mu_j=0",
              "nu=0.1", "--x0", "nan", "--grid", "0:0:1"], "--x0 must be finite, got nan"),
            (["density", "--family", "gaussian", "--params", "sigma", "--grid", "0:1:1"],
             "--params expects key=value, got 'sigma'"),
            (["density", "--family", "gaussian", "--params", "sigma=abc", "--grid", "0:1:1"],
             "--params value for 'sigma' is not a number: 'abc'"),
            (["density", "--family", "gaussian", "--params", "bogus=1", "--grid", "0:1:1"],
             "unknown parameters for family 'gaussian': bogus"),
            (["density", "--family", "gaussian", "--grid", "0:1"], "--grid expects lo:hi:step"),
            (["density", "--family", "gaussian", "--grid", "a:b:c"], "--grid values must be numeric"),
            (["density", "--family", "gaussian", "--grid", "1:0:1"], "--grid needs lo <= hi and step > 0"),
            (["density", "--family", "gaussian", "--grid", "0:1:0"], "--grid needs lo <= hi and step > 0"),
            (["fit", "--family", "gbm", "--input", ""], "--input is required for this command"),
            # the MJD oracle refuses a jump rate past its limit on jump counts
            (["density", "--family", "mjd", "--method", "oracle", "--params", "r=0", "sigma=0.2",
              "lambda=1e9", "mu_j=0", "nu=0.1", "--grid", "0:0:1"],
             "lambda*dt = 3.96825e+06 needs more than 2000 jumps"),
        ],
    )
    def test_rejected_input_exits_3(self, capsys, argv, message):
        code, out, err = _run(capsys, argv)
        assert code == 3
        assert out == "" and err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "command, family, params, message",
        [
            pytest.param(command, *row, id=f"{command}-{name}")
            for command in ("density", "loglik", "profile", "simulate")
            for name, row in _OVERFLOWS.items()
            if command != "simulate" or row[0] in ("gbm", "mjd")
        ],
    )
    def test_parameter_whose_square_or_exponential_overflows_exits_3(
        self, capsys, tmp_path, command, family, params, message
    ):
        prices = tmp_path / "p.csv"
        _write_prices(prices, [1.0, 1.01, 0.99, 1.02, 1.0])
        flags = {
            "density": ["--grid", "0:0:1"],
            "loglik": ["--input", str(prices)],
            "profile": ["--input", str(prices), "--param", "mu" if family in ("gaussian", "nig") else "r",
                        "--grid", "0:0:1"],
            "simulate": ["--n", "2"],
        }[command]
        argv = [command, "--family", family, "--params", *(f"{k}={v}" for k, v in params.items()), *flags]
        code, out, err = _run(capsys, argv)
        assert code == 3
        assert out == "" and err.startswith("error:") and message in err

    def test_inversion_failure_reported_per_row_exit_5(self, capsys):
        # underresolved heavy-tail case: the fixed rule (100, 513) goes
        # negative
        code, out, err = _run(
            capsys,
            [
                "density", "--family", "nig", "--method", "spi",
                "--params", "chi=0.125", "psi=0.125",
                "--grid", "-20:-20:1", *_FIXED_RULE_FLAGS,
            ],
        )
        assert code == 5
        _, rows = _parse_csv(out)
        assert rows[0][1] == "" and rows[0][5] != ""

    def test_unsolvable_rows_fail_alone(self, capsys):
        # the batch solver marks 5e9 and 1e10 as unattainable, since K'
        # saturates short of them, and solves the row at 0 in the same pass
        code, out, _ = _run(
            capsys,
            [
                "density", "--family", "nig", "--method", "spi",
                "--params", "chi=1", "psi=1",
                "--grid", "0:1e10:5e9",
            ],
        )
        assert code == 5
        _, rows = _parse_csv(out)
        assert len(rows) == 3
        assert np.isfinite(float(rows[0][1])) and rows[0][5] == ""
        for row in rows[1:]:
            assert row[1:5] == ["", "", "", ""]
            assert row[5] == f"K' saturates before reaching x0={row[0]}; mean unattainable"

    def test_row_at_a_domain_end_nig_rounds_away_fails_alone(self, capsys):
        # the row at 26148 closes its bracket on the upper end of the
        # domain, where K' cannot be taken at the last float (D(t) rounds
        # to <= 0): it is marked, and the grid's other rows are kept
        nig = ["density", "--family", "nig", "--method", "spa", "--params", "chi=0.00017236368895826086",
               "psi=0.1441347084959013", "mu=-0.0035192232720199492", "gamma=-6.402068854529105"]
        code, out, err = _run(capsys, [*nig, "--grid", "0:26148.235981523052:13074.117990761526"])
        assert code == 5 and err == ""
        _, rows = _parse_csv(out)
        assert [r[5].startswith("K' crosses x0=") for r in rows] == [False, True, True]
        code, out, _ = _run(capsys, [*nig, "--grid", "0:13074.1:13074.117990761526"])
        assert code == 0 and _parse_csv(out)[1] == rows[:1]

    def test_unconverged_rows_fail_alone(self, capsys, monkeypatch):
        # out to 2000 sd of a heavy-tailed NIG the root crowds the end of
        # the domain, where rounding moves K' by more than the tolerance
        # between neighbouring floats: those rows cannot be resolved, and
        # each says so with the residual it stopped at, in the one batch
        # pass that solves the other rows
        solves = []

        def counting_solve(model, x):
            solves.append(np.size(x))
            return solve_saddlepoint_batch(model, x)

        monkeypatch.setattr("spinv.inversion.solve_saddlepoint_batch", counting_solve)
        monkeypatch.setattr("spinv.inversion.solve_saddlepoint", lambda model, x0: solves.append(1))
        code, out, _ = _run(
            capsys,
            [
                "density", "--family", "nig", "--method", "spa",
                "--params", "chi=0.125", "psi=0.125",
                "--grid", "-2000:2000:100",
            ],
        )
        assert code == 5 and solves == [41]
        _, rows = _parse_csv(out)
        failed = {float(r[0]): r[5] for r in rows if r[5]}
        assert sorted(failed) == [x for x in range(-2000, 2001, 100) if abs(x) >= 800 or abs(x) == 500]
        for x, error in failed.items():
            assert re.fullmatch(
                rf"K' crosses x0={x} within float resolution; the root cannot be resolved "
                r"\(residual -?\d\.\d{3}e[+-]\d+\)",
                error,
            )
        assert failed[2000.0].endswith("(residual -3.856e-06)")
        assert all(np.isfinite(float(r[1])) for r in rows if not r[5])
        # +-300 sd start past the resolved NIG root and probe toward the end
        # of the domain first; a Newton step taken there instead moves the
        # row's log-density by 1.8e-10
        for r in rows:
            if abs(float(r[0])) == 300.0:
                assert abs(float(r[1]) + 116.97528527814424) < 1e-11

    def test_batch_pass_fails_the_same_rows_as_scalar(self, capsys):
        # heavy tails: the fixed rule (100, 513) gives p_bar(0) <= 0 at
        # x = -4 and from x = -12 down, but not in between, while every
        # row's saddlepoint is solved. This checks that the batch pass and
        # the scalar evaluators agree row by row, not that the values are
        # accurate: between -11 and -2 they are off the Bessel density by
        # up to 2.3 nats.
        p = NigParams(chi=0.125, psi=0.125)
        xs = np.arange(-24.0, 0.5, 1.0)
        assert not solve_saddlepoint_batch(Nig(p), xs).reason.any()
        code, out, _ = _run(
            capsys,
            [
                "density", "--family", "nig", "--method", "spi",
                "--params", "chi=0.125", "psi=0.125",
                "--grid", "-24:0:1", *_FIXED_RULE_FLAGS,
            ],
        )
        assert code == 5
        _, rows = _parse_csv(out)
        assert [float(r[0]) for r in rows] == xs.tolist()
        expected = {}
        for x in xs.tolist():
            try:
                expected[x] = spi_log_density(Nig(p), x, _FIXED_RULE)
            except InversionError:
                expected[x] = None
        assert [r[5] != "" for r in rows] == [v is None for v in expected.values()]
        assert 0 < sum(v is None for v in expected.values()) < len(xs)
        for row in rows:
            if not row[5]:
                assert abs(float(row[1]) - expected[float(row[0])]) < 1e-5

    @pytest.mark.parametrize("method", ["spa", "spi"])
    def test_density_rows_equal_the_batch(self, capsys, method):
        # the batch evaluators and the density rows take every term and the
        # sum from one expression, so the rows equal the batch to the bit.
        # Here 11 rows from -900 to -480 cannot be solved, and spi marks 12
        # more from -630 to -240, where its contour would need more than
        # 2^16 points a line (the fixed rule (100, 513) returns them 4 nats
        # off the Bessel density); both the grid and its good rows are too
        # few for the fit, so spi takes each row by its own rule on both
        # sides, and the good rows share the same blocks
        p = NigParams(chi=0.125, psi=0.125)
        code, out, _ = _run(
            capsys,
            [
                "density", "--family", "nig", "--method", method,
                "--params", "chi=0.125", "psi=0.125", "--grid", "-900:30:30",
            ],
        )
        assert code == 5
        _, rows = _parse_csv(out)
        good = [r for r in rows if not r[5]]
        assert len(rows) == 32 and len(good) == (21 if method == "spa" else 9)
        batch = spa_log_density_batch if method == "spa" else spi_log_density_batch
        want = batch(Nig(p), np.array([float(r[0]) for r in good]))
        assert [float(r[1]) for r in good] == want.tolist()
        # over the whole grid the batch raises the first failed row's error
        with pytest.raises(SpinvError) as exc:
            batch(Nig(p), np.array([float(r[0]) for r in rows]))
        assert str(exc.value) == f"observation 0: {rows[0][5]}"

    @pytest.mark.parametrize("method", ["spa", "spi"])
    def test_scalar_rows_equal_the_density_rows(self, capsys, method):
        # the one-point evaluators and log_density_terms on one point take
        # a row's terms from the batch code, so each equals its CLI row to
        # the bit: on this grid, taking the Jacobian term by math.log
        # rather than np.log moves it by one ulp at x = -0.225 and 0.341.
        # The SPI rows take the fixed rule (100, 513) and so the per-row
        # path here (the fit meets an unusable node), as a one-point row does
        p = NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
        rule = _FIXED_RULE_FLAGS if method == "spi" else []
        code, out, _ = _run(
            capsys,
            [
                "density", "--family", "nig", "--method", method,
                "--params", "chi=0.0003", "psi=1000", "mu=-0.0003", "gamma=2",
                "--grid", "-1:1:0.001", *rule,
            ],
        )
        assert code == (5 if method == "spi" else 0)
        _, rows = _parse_csv(out)
        assert len(rows) == 2001
        quad = _FIXED_RULE if method == "spi" else None
        evaluate = (lambda m, x: spi_log_density(m, x, quad)) if method == "spi" else spa_log_density
        for row in rows:
            x = float(row[0])
            try:
                value = evaluate(Nig(p), x)
            except InversionError as exc:
                assert row[1:] == ["", "", "", "", str(exc)]
            else:
                _, tilt_term, jacobian_term, log_p_bar, _, _ = log_density_terms(Nig(p), [x], method, quad)
                want = [value, tilt_term[0], jacobian_term[0], log_p_bar[0]]
                assert [float(v) for v in row[1:5]] == want and row[5] == ""

    @pytest.mark.parametrize(
        "quad_args, quad",
        [([], None), (["--quad-upper", "100", "--quad-points", "257"], QuadratureSpec(100.0, 257))],
        ids=["default", "quad-flags"],
    )
    def test_direct_rows_equal_the_batch(self, capsys, quad_args, quad):
        # the direct rows are direct_ift_log_density_batch over the grid,
        # by the rule the --quad flags give when they are set
        code, out, _ = _run(
            capsys,
            [
                "density", "--family", "nig", "--method", "direct",
                "--params", "chi=0.0003", "psi=1000", "mu=-0.0003", "gamma=2",
                "--grid", "-0.05:0.05:0.005", *quad_args,
            ],
        )
        assert code == 0
        _, rows = _parse_csv(out)
        assert len(rows) == 21
        assert all(r[2:] == ["", "", "", ""] for r in rows)
        p = NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
        xs = np.array([float(r[0]) for r in rows])
        want = direct_ift_log_density_batch(Nig(p), xs, quad)
        assert [float(r[1]) for r in rows] == want.tolist()
        if quad is not None:
            assert not np.array_equal(want, direct_ift_log_density_batch(Nig(p), xs))

    @staticmethod
    def _fifty_sd_nig_grid():
        # the benchmark's cli grid: 801 rows from -50 to +50 sd of the
        # criterion-9 NIG, written as the benchmark writes it
        mean, var = nig_moments(NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0))
        lo, step = mean - 50.0 * math.sqrt(var), 100.0 * math.sqrt(var) / 800
        return [
            "density", "--family", "nig", "--method", "spi",
            "--params", "chi=0.0003", "psi=1000", "mu=-0.0003", "gamma=2",
            "--grid", f"{lo!r}:{lo + 800 * step!r}:{step!r}",
        ]

    def test_default_rule_resolves_the_50_sd_grid(self, capsys):
        # with no --quad flag, spi takes the model's own rule, the contour
        # for NIG: every row is usable and accurate
        code, out, _ = _run(capsys, self._fifty_sd_nig_grid())
        assert code == 0
        _, rows = _parse_csv(out)
        assert len(rows) == 801 and not any(r[5] for r in rows)
        xs = np.array([float(r[0]) for r in rows])
        got = np.array([float(r[1]) for r in rows])
        want = nig_exact_log_density(NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0), xs)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_one_quad_flag_selects_the_fixed_rule(self, capsys):
        # --quad-points alone gives the fixed rule (100, 513), which fails
        # 296 rows of this grid, in four runs
        code, out, _ = _run(capsys, [*self._fifty_sd_nig_grid(), "--quad-points", "513"])
        assert code == 5
        _, rows = _parse_csv(out)
        failed = [i for i, r in enumerate(rows) if r[5]]
        runs = [(70, 198), (286, 304), (495, 513), (601, 729)]
        assert failed == [i for a, b in runs for i in range(a, b + 1)]
        assert all(r[1] == "" for r in rows if r[5])

    def test_quad_override_fixes_it(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "density", "--family", "nig", "--method", "spi",
                "--params", "chi=0.125", "psi=0.125",
                "--grid", "-20:-20:1",
                "--quad-upper", "20000", "--quad-points", "131072",
            ],
        )
        assert code == 0
        _, rows = _parse_csv(out)
        assert rows[0][5] == ""

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--family", "cauchy", "--grid", "0:1:1"])
        assert exc.value.code == 2


class TestFlags:
    """Each subcommand declares only the flags it reads; any other exits 2."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fit", "--family", "gbm", "--input", "p.csv", "--params", "r=9", "sigma=9"], "--params"),
            (["fit", "--family", "gbm", "--input", "p.csv", "--format", "csv"], "--format"),
            (["loglik", "--family", "gbm", "--params", "r=0", "sigma=1", "--input", "p.csv",
              "--format", "csv"], "--format"),
            (["simulate", "--family", "gbm", "--params", "r=0", "sigma=1", "--n", "3",
              "--format", "json"], "--format"),
            (["simulate", "--family", "gbm", "--params", "r=0", "sigma=1", "--n", "3",
              "--quad-upper", "5"], "--quad-upper"),
            (["simulate", "--family", "gbm", "--params", "r=0", "sigma=1", "--n", "3",
              "--quad-points", "65"], "--quad-points"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err


class TestQuadFlags:
    """The rule the --quad-* flags give: checked before any row is evaluated,
    and a one-flag override keeps the other field of the model's own rule."""

    _NIG = ["--family", "nig", "--params", "chi=0.0003", "psi=1000"]
    _MJD_PARAMS = ["--params", "r=0.05", "sigma=0.2", "lambda=3", "mu_j=-0.05", "nu=0.1"]

    @pytest.fixture
    def prices(self, tmp_path):
        path = tmp_path / "p.csv"
        _write_prices(path, np.exp(np.cumsum(np.random.default_rng(3).normal(0.0, 0.01, 60))))
        return str(path)

    @pytest.mark.parametrize("method", ["spi", "direct"])
    def test_non_finite_upper_limit_exits_3(self, capsys, method):
        # the rule is at fault, not the model: no row is evaluated and numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(
                capsys,
                ["density", *self._NIG, "--method", method, "--grid", "0:0.002:0.001",
                 "--quad-upper", "inf"],
            )
        assert code == 3
        assert out == "" and "upper_limit must be positive and finite, got inf" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", *_NIG, "--method", "spi", "--grid", "0:0.002:0.001"],
            ["density", *_NIG, "--method", "direct", "--grid", "0:0.002:0.001"],
            ["loglik", *_NIG, "--input", "PRICES"],
            ["fit", "--family", "nig", "--input", "PRICES"],
            ["profile", *_NIG, "--param", "mu", "--grid", "0:0:1", "--input", "PRICES"],
        ],
        ids=["density-spi", "density-direct", "loglik", "fit", "profile"],
    )
    def test_point_count_bounded_before_any_rule_runs(self, capsys, monkeypatch, prices, argv):
        def evaluated(*args, **kwargs):
            raise AssertionError("a rule was run")

        for name in ("log_density_terms", "direct_ift_log_density_batch", "negative_log_likelihood",
                     "fit_mle", "profile_nll"):
            monkeypatch.setattr(spinv.cli, name, evaluated)
        argv = [prices if a == "PRICES" else a for a in argv]
        code, out, err = _run(capsys, [*argv, "--quad-points", "3000000000"])
        assert code == 3
        assert out == "" and f"--quad-points is more than {spinv.cli._MAX_QUAD_POINTS}" in err
        # the bound itself passes the check and reaches the evaluation
        with pytest.raises(AssertionError, match="a rule was run"):
            main([*argv, "--quad-points", str(spinv.cli._MAX_QUAD_POINTS)])

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("loglik", _MJD_PARAMS),
            ("fit", []),
            ("profile", ["--param", "mu_j", "--grid", "0:0:1"]),
        ],
    )
    def test_one_flag_keeps_the_other_field_of_the_models_rule(self, monkeypatch, prices, command, flags):
        # mjd's own rule is 65 points on [0, 32]; --quad-points 129 runs 129 on [0, 32]
        name = {"loglik": "negative_log_likelihood", "fit": "fit_mle", "profile": "profile_nll"}[command]
        signature = inspect.signature(getattr(spinv.cli, name))
        seen = {}

        def record(*args, **kwargs):
            seen.update(signature.bind(*args, **kwargs).arguments)
            raise ValidationError("recorded")

        monkeypatch.setattr(spinv.cli, name, record)
        assert main([command, "--family", "mjd", *flags, "--input", prices, "--quad-points", "129"]) == 3
        assert seen["quad"] == QuadratureSpec(32.0, 129)
        if command != "loglik":
            # the start the rule was read from is the start the search takes
            data = ReturnSeries(dt=1.0 / 252.0, returns=np.diff(np.log(read_price_csv(prices))))
            assert seen["init"] == moment_init("mjd", data)

    @pytest.mark.parametrize("flag", [["--quad-points", "7"], ["--quad-upper", "5"]], ids=["points", "upper"])
    @pytest.mark.parametrize(
        "argv, what",
        [
            (["density", *_NIG, "--method", "spa", "--grid", "-1:1:1"], "--method spa"),
            (["density", *_NIG, "--method", "oracle", "--grid", "-1:1:1"], "--method oracle"),
            (["loglik", *_NIG, "--method", "spa", "--input", "PRICES"], "--method spa"),
            (["fit", "--family", "nig", "--method", "oracle", "--input", "PRICES"], "--method oracle"),
            (["profile", *_NIG, "--method", "spa", "--param", "mu", "--grid", "0:0:1", "--input", "PRICES"],
             "--method spa"),
            (["fit", "--family", "gbm", "--input", "PRICES"], "fit of gbm, its closed form"),
            (["loglik", "--family", "gbm", "--method", "direct", "--params", "r=0", "sigma=0.2",
              "--input", "PRICES"], "loglik of gbm, its closed form"),
            (["profile", "--family", "gbm", "--param", "r", "--grid", "0:0:1", "--input", "PRICES"],
             "profile of gbm, its closed form"),
        ],
        ids=["density-spa", "density-oracle", "loglik-spa", "fit-oracle", "profile-spa",
             "fit-gbm", "loglik-gbm-direct", "profile-gbm"],
    )
    def test_a_flag_where_no_rule_runs_exits_3(self, capsys, monkeypatch, prices, argv, what, flag):
        # spa and oracle run no rule, nor does the likelihood of gbm, its
        # closed form whatever the method: the flag is refused before any
        # row is evaluated
        def evaluated(*args, **kwargs):
            raise AssertionError("a row was evaluated")

        for name in ("log_density_terms", "negative_log_likelihood", "fit_mle", "profile_nll"):
            monkeypatch.setattr(spinv.cli, name, evaluated)
        monkeypatch.setitem(spinv.cli.FAMILIES, "nig", replace(spinv.cli.FAMILIES["nig"], oracle=evaluated))
        argv = [prices if a == "PRICES" else a for a in argv]
        code, out, err = _run(capsys, [*argv, *flag])
        assert code == 3 and out == ""
        assert "--quad-upper/--quad-points set the rule of spi and direct; none runs in " + what in err

    @pytest.mark.parametrize(
        "flags, quad",
        [([], None), (["--quad-points", "129"], QuadratureSpec(100.0, 129)),
         (["--quad-upper", "50"], QuadratureSpec(50.0, 513))],
        ids=["no-flag", "points", "upper"],
    )
    def test_nig_takes_its_own_rule_unless_a_flag_is_given(self, monkeypatch, prices, flags, quad):
        # NIG states no rule: with no flag spi gets none, so the core takes
        # the contour; a flag alone fills the other field from (100, 513)
        seen = {}

        def record(family, params, data, method, quad):
            seen["quad"] = quad
            raise ValidationError("recorded")

        monkeypatch.setattr(spinv.cli, "negative_log_likelihood", record)
        assert main(["loglik", *self._NIG, "--input", prices, *flags]) == 3
        assert seen["quad"] == quad


class TestSimulate:
    _GBM = ["simulate", "--family", "gbm", "--params", "r=0", "sigma=0.2"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "10000000000"], "--n must be from 1 to 10000000, got 10000000000"),
            (["--n", "3", "--seed", "-1"], "--seed must be non-negative, got -1"),
        ],
        ids=["n", "seed"],
    )
    def test_path_checked_before_any_draw(self, capsys, monkeypatch, flags, message):
        def drawn(*args):
            raise AssertionError("a path was drawn")

        for name in ("_gaussian_path", "simulate_nig", "simulate_mjd_path"):
            monkeypatch.setattr(spinv.estimation, name, drawn)
        code, out, err = _run(capsys, [*self._GBM, *flags])
        assert code == 3
        assert out == "" and err == f"error: {message}\n"
        # the bound itself passes the check and reaches the draw
        with pytest.raises(AssertionError, match="a path was drawn"):
            main([*self._GBM, "--n", str(spinv.cli._MAX_ROWS), "--seed", "0"])

    def test_draw_numpy_refuses_exits_3(self, capsys):
        code, out, err = _run(
            capsys,
            ["simulate", "--family", "mjd", "--params", "r=0", "sigma=0.2", "lambda=1e22", "mu_j=0",
             "nu=0.1", "--n", "2"],
        )
        assert code == 3
        assert out == "" and err == "error: cannot draw from these parameters: lam value too large\n"

    @pytest.mark.parametrize(
        "params",
        [["--family", "nig", "--params", "chi=1e300", "psi=1e-300"], ["--family", "gbm", "--params", "r=1e300", "sigma=0.2"]],
        ids=["nig-nan", "gbm-overflow"],
    )
    def test_price_that_is_not_finite_exits_3(self, capsys, params):
        # finite parameters whose draws overflow: the inverse-Gaussian mean
        # sqrt(chi/psi) is inf (NaN draws), or exp of the log path is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["simulate", *params, "--n", "2"])
        assert code == 3
        assert out == ""
        assert err == "error: simulated price not finite at step 1 of 2: these parameters overflow the path\n"

    def test_gbm_price_path(self, capsys, tmp_path):
        out_file = tmp_path / "prices.csv"
        code = main(
            [
                "simulate", "--family", "gbm", "--params", "r=0.05", "sigma=0.2",
                "--n", "100", "--seed", "42", "--output", str(out_file),
            ]
        )
        assert code == 0
        prices = read_price_csv(str(out_file))
        assert prices.shape == (101,)
        assert prices[0] == 1.0
        assert np.all(prices > 0)

    def test_seed_determinism(self, capsys):
        _, out1, _ = _run(capsys, ["simulate", "--family", "nig", "--params", "chi=1", "psi=4", "--n", "10", "--seed", "7"])
        _, out2, _ = _run(capsys, ["simulate", "--family", "nig", "--params", "chi=1", "psi=4", "--n", "10", "--seed", "7"])
        assert out1 == out2

    def test_mjd_emits_n_plus_one_prices(self, capsys):
        _, out, _ = _run(
            capsys,
            [
                "simulate", "--family", "mjd",
                "--params", "r=0.05", "sigma=0.2", "lambda=3", "mu_j=-0.05", "nu=0.1",
                "--n", "50", "--seed", "1",
            ],
        )
        assert len(out.strip().splitlines()) == 51


class TestFitRoundTrip:
    def test_gbm_simulate_then_fit(self, capsys, tmp_path):
        prices = tmp_path / "gbm.csv"
        main(
            [
                "simulate", "--family", "gbm", "--params", "r=0.08", "sigma=0.3",
                "--n", "2000", "--seed", "3", "--output", str(prices),
            ]
        )
        code, out, _ = _run(capsys, ["fit", "--family", "gbm", "--input", str(prices)])
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "gbm" and payload["converged"] is True
        assert payload["n_obs"] == 2000
        # sigma SE is about sigma/sqrt(2n) = 0.0047; allow ~4 SE
        assert abs(payload["params"]["sigma"] - 0.3) < 0.02
        assert set(payload["std_errors"]) == {"r", "log_sigma"}
        assert payload["nll"] == pytest.approx(
            negative_log_likelihood(
                "gbm",
                GbmParams(**{k: payload["params"][k] for k in ("r", "sigma")}),
                ReturnSeries(dt=1.0 / 252.0, returns=np.diff(np.log(read_price_csv(str(prices))))),
            ),
            rel=1e-9,
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--family", "gaussian"],
            ["profile", "--family", "gaussian", "--param", "mu", "--grid", "0:0:1"],
        ],
        ids=["fit", "profile"],
    )
    def test_fit_rejects_gaussian_family(self, capsys, tmp_path, argv):
        # gaussian has no moment start, so the commands that need one refuse it
        prices = tmp_path / "p.csv"
        _write_prices(prices, [1.0, 1.01, 0.99, 1.02])
        code, out, err = _run(capsys, [*argv, "--input", str(prices)])
        assert code == 3 and out == "" and "error: family 'gaussian' cannot be fitted" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["loglik", "--family", "gaussian", "--params", "mu=0", "sigma=0.01"],
            ["profile", "--family", "gaussian", "--params", "mu=0", "sigma=0.01", "--param", "mu",
             "--grid", "0:0:1"],
        ],
        ids=["loglik", "profile"],
    )
    def test_a_command_given_params_serves_gaussian(self, capsys, tmp_path, argv):
        prices = tmp_path / "p.csv"
        _write_prices(prices, [1.0, 1.01, 0.99, 1.02])
        code, out, err = _run(capsys, [*argv, "--input", str(prices)])
        assert code == 0 and err == ""
        returns = np.diff(np.log(read_price_csv(str(prices))))
        if argv[0] == "loglik":
            # gaussian has no closed-form likelihood path: the default method is spi
            nll = json.loads(out)["nll"]
            exact = -float(np.sum(gaussian_log_density(GaussianParams(0.0, 0.01), returns)))
            assert nll == pytest.approx(exact, rel=1e-9)
        else:
            _, rows = _parse_csv(out)
            assert len(rows) == 1 and rows[0][2] == "True"


class TestLoglik:
    def test_direct_is_minus_the_batch_sum(self, capsys, tmp_path):
        prices = tmp_path / "p.csv"
        main(
            [
                "simulate", "--family", "nig", "--params", "chi=0.0003", "psi=1000",
                "--n", "200", "--seed", "5", "--output", str(prices),
            ]
        )
        code, out, _ = _run(
            capsys,
            [
                "loglik", "--family", "nig", "--method", "direct",
                "--params", "chi=0.0003", "psi=1000", "--input", str(prices),
            ],
        )
        assert code == 0
        payload = json.loads(out)
        returns = np.diff(np.log(read_price_csv(str(prices))))
        logp = direct_ift_log_density_batch(Nig(NigParams(chi=0.0003, psi=1000.0)), returns)
        assert payload["method"] == "direct" and payload["n_obs"] == 200
        assert payload["nll"] == -float(np.sum(logp))

    def test_matches_library_value(self, capsys, tmp_path):
        prices = tmp_path / "p.csv"
        main(
            [
                "simulate", "--family", "nig", "--params", "chi=0.0003", "psi=1000",
                "--n", "200", "--seed", "5", "--output", str(prices),
            ]
        )
        code, out, _ = _run(
            capsys,
            [
                "loglik", "--family", "nig", "--method", "oracle",
                "--params", "chi=0.0003", "psi=1000",
                "--input", str(prices),
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_obs"] == 200
        np.testing.assert_allclose(payload["loglik"], -payload["nll"], rtol=1e-14)
        from spinv.models import NigParams

        expected = negative_log_likelihood(
            "nig",
            NigParams(chi=0.0003, psi=1000.0, mu=0.0, gamma=0.0),
            ReturnSeries(dt=1.0 / 252.0, returns=np.diff(np.log(read_price_csv(str(prices))))),
            method="oracle",
        )
        np.testing.assert_allclose(payload["nll"], expected, rtol=1e-12)


class TestProfile:
    def test_mjd_profile_appends_gbm_reference(self, capsys, tmp_path):
        prices = tmp_path / "mjd.csv"
        main(
            [
                "simulate", "--family", "mjd",
                "--params", "r=0.05", "sigma=0.15", "lambda=20", "mu_j=-0.01", "nu=0.02",
                "--n", "150", "--seed", "9", "--output", str(prices),
            ]
        )
        code, out, _ = _run(
            capsys,
            [
                "profile", "--family", "mjd", "--method", "oracle",
                "--param", "log_lambda", "--grid", "2.5:3.5:1",
                "--input", str(prices),
            ],
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["param_value", "nll", "converged", "failed_evals"]
        assert len(rows) == 3  # two grid points plus the reference row
        assert rows[-1][0] == "gbm_ref"
        assert float(rows[0][1]) >= 0 or float(rows[0][1]) < 0  # numeric
        assert rows[0][2] == "True"
        assert all(isinstance(json.loads(r[3]), dict) for r in rows)

    def test_gbm_profile_no_reference_row(self, capsys, tmp_path):
        prices = tmp_path / "g.csv"
        main(
            [
                "simulate", "--family", "gbm", "--params", "r=0.05", "sigma=0.2",
                "--n", "200", "--seed", "2", "--output", str(prices),
            ]
        )
        code, out, _ = _run(
            capsys,
            [
                "profile", "--family", "gbm", "--param", "r",
                "--grid", "-1:1:1", "--input", str(prices),
            ],
        )
        assert code == 0
        _, rows = _parse_csv(out)
        assert len(rows) == 3
        assert all(r[0] != "gbm_ref" for r in rows)

    def test_params_start_the_refits(self, capsys, tmp_path, monkeypatch):
        prices = tmp_path / "mjd.csv"
        main(
            [
                "simulate", "--family", "mjd",
                "--params", "r=0.05", "sigma=0.15", "lambda=20", "mu_j=-0.01", "nu=0.02",
                "--n", "150", "--seed", "9", "--output", str(prices),
            ]
        )
        start = MjdParams(r=0.02, sigma=0.1, lam=5.0, mu_j=0.0, nu=0.05)
        inits = []

        def recording_profile_nll(*args, init=None):
            inits.append(init)
            return profile_nll(*args, init=init)

        monkeypatch.setattr(spinv.cli, "profile_nll", recording_profile_nll)
        code, out, _ = _run(
            capsys,
            [
                "profile", "--family", "mjd", "--method", "oracle",
                "--params", "r=0.02", "sigma=0.1", "lambda=5", "mu_j=0", "nu=0.05",
                "--param", "log_lambda", "--grid", "2.5:3.5:1",
                "--input", str(prices),
            ],
        )
        assert code == 0 and inits == [start]
        _, rows = _parse_csv(out)
        data = ReturnSeries(dt=1.0 / 252.0, returns=np.diff(np.log(read_price_csv(str(prices)))))
        grid = np.array([2.5, 3.5])
        expected = profile_nll("mjd", data, "oracle", None, "log_lambda", grid, init=start)
        assert [[float(r[0]), float(r[1]), r[2]] for r in rows[:-1]] == [
            [p.value, p.nll, str(p.converged)] for p in expected
        ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_evaluations_counted_per_point(self, capsys, tmp_path, fmt):
        # exp(800) overflows, so every re-fit at log_chi = 800 fails
        prices = tmp_path / "nig.csv"
        main(
            [
                "simulate", "--family", "nig", "--params", "chi=3e-4", "psi=1000",
                "--n", "100", "--seed", "4", "--output", str(prices),
            ]
        )
        code, out, _ = _run(
            capsys,
            [
                "profile", "--family", "nig", "--method", "oracle", "--param", "log_chi",
                "--grid", "-8:800:808", "--input", str(prices), "--format", fmt,
            ],
        )
        # the table is written, and the point whose re-fit failed exits 4, as fit does
        assert code == 4
        if fmt == "csv":
            _, rows = _parse_csv(out)
            counts = [json.loads(r[3]) for r in rows]
        else:
            counts = [r["failed_evals"] for r in json.loads(out)]
        assert counts[0] == {}
        assert counts[1] == {"OverflowError": 9}

    def test_invalid_params_exit_3(self, capsys, tmp_path):
        prices = tmp_path / "g.csv"
        _write_prices(prices, [1.0, 1.01, 0.99, 1.02, 1.0])
        code, _, err = _run(
            capsys,
            [
                "profile", "--family", "gbm", "--params", "r=0.05", "sigma=-0.2",
                "--param", "r", "--grid", "-1:1:1", "--input", str(prices),
            ],
        )
        assert code == 3 and "sigma must be positive" in err


class TestStrictJson:
    """JSON output is strict (RFC 8259): a number that is not finite is null, where CSV keeps it."""

    @staticmethod
    def _loads(text):
        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        return json.loads(text, parse_constant=refuse)

    @pytest.fixture
    def prices(self, tmp_path):
        path = tmp_path / "nig.csv"
        main(["simulate", "--family", "nig", "--params", "chi=3e-4", "psi=1000", "--n", "100",
              "--seed", "4", "--output", str(path)])
        return str(path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_profile_nll_that_overflows(self, capsys, prices, fmt):
        # exp(710) overflows, so the refit at log_chi = 710 ends on +inf
        code, out, _ = _run(capsys, ["profile", "--family", "nig", "--input", prices, "--param", "log_chi",
                                     "--grid", "710:710:1", "--format", fmt])
        # the table is written, and the re-fit that did not converge exits 4, as fit does
        assert code == 4
        if fmt == "csv":
            assert _parse_csv(out)[1][0][1] == "inf"
        else:
            assert self._loads(out)[0]["nll"] is None

    def test_density_value_that_is_not_finite(self, capsys, monkeypatch):
        oracle = lambda m, x: np.full(x.shape, -np.inf)  # noqa: E731
        monkeypatch.setitem(spinv.cli.FAMILIES, "nig", replace(spinv.cli.FAMILIES["nig"], oracle=oracle))
        argv = ["density", "--family", "nig", "--method", "oracle", "--params", "chi=1", "psi=1", "--grid", "0:1:1"]
        _, out, _ = _run(capsys, [*argv, "--format", "json"])
        assert [r["log_density"] for r in self._loads(out)] == [None, None]
        _, out, _ = _run(capsys, argv)
        assert [r[1] for r in _parse_csv(out)[1]] == ["-inf", "-inf"]

    def test_fit_std_errors_that_are_nan(self, capsys, monkeypatch, prices):
        def fit(family, data, **kwargs):
            return FitResult(family, "spa", ("r", "log_sigma"), np.array([0.05, math.log(0.2)]), math.inf,
                             np.array([math.nan, 0.1]), 7, True, {})

        monkeypatch.setattr(spinv.cli, "fit_mle", fit)
        code, out, _ = _run(capsys, ["fit", "--family", "gbm", "--input", prices])
        payload = self._loads(out)
        # the JSON is written, and the missing standard error exits 4, as a fit that did not converge
        assert code == 4
        assert payload["std_errors"] == {"r": None, "log_sigma": 0.1} and payload["nll"] is None
        assert payload["params"]["sigma"] == pytest.approx(0.2)

    def test_loglik_that_is_not_finite(self, capsys, monkeypatch, prices):
        monkeypatch.setattr(spinv.cli, "negative_log_likelihood", lambda *args: math.inf)
        code, out, _ = _run(capsys, ["loglik", "--family", "nig", "--params", "chi=1", "psi=1",
                                     "--input", prices])
        payload = self._loads(out)
        assert code == 0 and payload["nll"] is None and payload["loglik"] is None


class TestPriceCsv:
    def test_header_and_date_column(self, tmp_path):
        f = tmp_path / "with_header.csv"
        _write_prices(f, [100.0, 101.5, 99.8], header="date,close", date_col=True)
        prices = read_price_csv(str(f))
        np.testing.assert_allclose(prices, [100.0, 101.5, 99.8])

    def test_plain_single_column(self, tmp_path):
        f = tmp_path / "plain.csv"
        _write_prices(f, [1.0, 1.1, 0.9])
        np.testing.assert_allclose(read_price_csv(str(f)), [1.0, 1.1, 0.9])

    def test_blank_lines_are_skipped(self, tmp_path):
        # an empty line and one of spaces alone, inside the file and after it
        f = tmp_path / "blank.csv"
        f.write_text("price\n100\n\n101\n   \n102\n\n")
        np.testing.assert_allclose(read_price_csv(str(f)), [100.0, 101.0, 102.0])

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        f = tmp_path / "bom.csv"
        f.write_bytes(b"\xef\xbb\xbf100\n101\n102\n")
        np.testing.assert_allclose(read_price_csv(str(f)), [100.0, 101.0, 102.0])

    def test_non_numeric_mid_file_reports_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("price\n100\n101\nbogus\n102\n")
        with pytest.raises(ParseError, match="line") as exc:
            read_price_csv(str(f))
        assert exc.value.line == 4

    def test_nonpositive_price_rejected(self, tmp_path):
        f = tmp_path / "neg.csv"
        f.write_text("100\n-5\n101\n")
        with pytest.raises(ValidationError, match="positive"):
            read_price_csv(str(f))

    @pytest.mark.parametrize("price", ["inf", "-inf", "nan"])
    def test_price_that_is_not_finite_names_its_line(self, tmp_path, price):
        f = tmp_path / "bad.csv"
        f.write_text(f"100\n{price}\n101\n")
        with pytest.raises(ValidationError, match=f"line 2: price must be positive and finite, got {price}"):
            read_price_csv(str(f))

    def test_too_few_rows(self, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("100\n")
        with pytest.raises(ParseError, match="at least 2"):
            read_price_csv(str(f))

    @pytest.mark.parametrize(
        "command,content",
        [
            pytest.param("fit", None, id="fit"),
            pytest.param("loglik", None, id="loglik"),
            # UTF-16 byte-order mark, then UTF-16 digits: not UTF-8
            pytest.param("fit", b"\xff\xfe1\x00\n\x002\x00\n\x00", id="fit-not-utf8"),
        ],
    )
    def test_missing_input_file_exits_2(self, capsys, tmp_path, command, content):
        missing = tmp_path / "missing.csv"
        if content is not None:
            missing.write_bytes(content)
        params = ["--params", "chi=0.0003", "psi=1000"] if command == "loglik" else []
        code, out, err = _run(capsys, [command, "--family", "nig", *params, "--input", str(missing)])
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read") and str(missing) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["density", "--family", "gaussian", "--grid", "0:1:1"], id="density"),
            pytest.param(["simulate", "--family", "gbm", "--params", "r=0.05", "sigma=0.2", "--n", "5"], id="simulate"),
            pytest.param(["fit", "--family", "gbm"], id="fit"),
            pytest.param(["profile", "--family", "gbm", "--param", "r", "--grid", "0:0:1"], id="profile"),
            pytest.param(["loglik", "--family", "gbm", "--params", "r=0.05", "sigma=0.2"], id="loglik"),
        ],
    )
    @pytest.mark.parametrize("target", ["no-such-dir/x.csv", "."], ids=["missing-dir", "a-dir"])
    def test_output_that_cannot_be_written_exits_2(self, capsys, tmp_path, argv, target):
        prices = tmp_path / "p.csv"
        _write_prices(prices, [1.0, 1.01, 0.99, 1.02, 1.0])
        output = tmp_path / target
        source = [] if argv[0] in ("density", "simulate") else ["--input", str(prices)]
        code, out, err = _run(capsys, [*argv, *source, "--output", str(output)])
        reason = "No such file or directory" if target != "." else "Is a directory"
        assert code == 2 and out == ""
        assert err == f"error: cannot write {output}: {reason}\n"

    def test_cli_maps_parse_error_to_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("100\nbogus\n101\n")
        code, _, err = _run(capsys, ["fit", "--family", "gbm", "--input", str(f)])
        assert code == 2
        assert "line 2" in err


class TestImports:
    """A command loads the scipy modules it calls and no others."""

    _NIG = ["--family", "nig", "--params", "chi=0.0003", "psi=1000"]
    _MJD = ["--family", "mjd", "--params", "r=0.05", "sigma=0.2", "lambda=3", "mu_j=-0.05", "nu=0.1"]

    def _scipy_modules_after(self, tmp_path, commands, block_scipy=False):
        """Exit codes of spinv.cli.main over commands in a fresh interpreter,
        and the scipy modules loaded by then. With block_scipy, every scipy
        import raises ImportError."""
        script = (
            "import json, sys\n"
            + ("sys.modules['scipy'] = None\n" if block_scipy else "")
            + "import spinv, spinv.cli\n"
            f"codes = [spinv.cli.main(argv) for argv in {commands!r}]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(spinv.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def _simulate(self, family=_NIG, output="p.csv"):
        return ["simulate", *family, "--n", "200", "--seed", "5", "--output", output]

    def _fit_and_profile(self):
        return [
            self._simulate(),
            ["fit", "--family", "gbm", "--input", "p.csv", "--output", "f.json"],
            ["profile", "--family", "gbm", "--param", "r", "--grid", "-1:1:1",
             "--input", "p.csv", "--output", "g.csv"],
            self._simulate(self._MJD, "m.csv"),
            ["fit", "--family", "mjd", "--method", "oracle", "--input", "m.csv", "--output", "h.json"],
        ]

    def test_density_simulate_loglik_load_no_scipy(self, tmp_path):
        codes, loaded = self._scipy_modules_after(
            tmp_path,
            [
                ["density", *self._NIG, "--method", "spi", "--grid", "-0.01:0.01:0.005",
                 "--output", "d.csv"],
                self._simulate(),
                ["loglik", *self._NIG, "--method", "spi", "--input", "p.csv", "--output", "l.json"],
            ],
        )
        assert codes == [0, 0, 0]
        assert loaded == []

    def test_fit_and_profile_load_no_scipy(self, tmp_path):
        codes, loaded = self._scipy_modules_after(tmp_path, self._fit_and_profile())
        assert codes == [0, 0, 0, 0, 0]
        assert loaded == []

    def test_fit_and_profile_run_with_scipy_blocked(self, tmp_path):
        codes, loaded = self._scipy_modules_after(tmp_path, self._fit_and_profile(), block_scipy=True)
        assert codes == [0, 0, 0, 0, 0]
        assert loaded == ["scipy"]
        assert json.loads((tmp_path / "h.json").read_text())["converged"]

    def test_nig_oracle_fit_loads_scipy_special_only(self, tmp_path):
        codes, loaded = self._scipy_modules_after(
            tmp_path,
            [self._simulate(), ["fit", *self._NIG[:2], "--method", "oracle", "--input", "p.csv",
                                "--output", "f.json"]],
        )
        assert codes == [0, 0]
        # scipy's private modules and its version module come with any scipy import
        public = {m.split(".")[1] for m in loaded if "." in m and not m.split(".")[1].startswith("_")}
        assert public - {"version"} == {"special"}
