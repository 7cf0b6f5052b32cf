"""End-to-end tests for the command line interface."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spinv.cli
from spinv.cli import main, read_price_csv
from spinv.errors import InversionError, ParseError, ValidationError
from spinv.estimation import GbmParams, ReturnSeries, negative_log_likelihood, profile_nll
from spinv.inversion import spi_log_density
from spinv.models import GaussianParams, MjdParams, Nig, NigParams, gaussian_log_density
from spinv.saddlepoint import solve_saddlepoint_batch


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
            expected = gaussian_log_density(GaussianParams(mu=0.0, sigma=1.0), x)
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

    def test_custom_params_and_lambda_alias(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "density", "--family", "mjd", "--method", "oracle",
                "--params", "r=0.05", "sigma=0.2", "lambda=3", "mu_j=-0.05", "nu=0.1",
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
            (["density", "--family", "gaussian", "--grid", "0:inf:1"], "finite"),
            (["density", "--family", "gaussian", "--grid", "nan:1:1"], "finite"),
            # rejected before any grid is allocated
            (["density", "--family", "gaussian", "--grid", "0:1e12:1e-12"], "rows"),
            (["density", "--family", "gaussian", "--grid", "-1e308:1e308:1"], "rows"),
            (["density", "--family", "gaussian", "--params", "sigma=1", "sigma=2", "--grid", "0:0:1"],
             "'sigma' more than once"),
            (["density", "--family", "mjd", "--params", "r=0.05", "sigma=0.2", "lambda=1", "lam=2",
              "mu_j=0", "nu=0.1", "--grid", "0:0:1"], "'lam' more than once"),
        ],
    )
    def test_rejected_input_exits_3(self, capsys, argv, message):
        code, out, err = _run(capsys, argv)
        assert code == 3
        assert out == "" and err.startswith("error:") and message in err

    def test_inversion_failure_reported_per_row_exit_5(self, capsys):
        # underresolved heavy-tail case: the spi quadrature goes negative
        code, out, err = _run(
            capsys,
            [
                "density", "--family", "nig", "--method", "spi",
                "--params", "chi=0.125", "psi=0.125",
                "--grid", "-20:-20:1",
            ],
        )
        assert code == 5
        _, rows = _parse_csv(out)
        assert rows[0][1] == "" and rows[0][5] != ""

    def test_unsolvable_rows_fail_alone(self, capsys):
        # the batch solver cannot reach 5e9 or 1e10 and fails the whole
        # grid; the row-by-row pass keeps the row at 0
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
            assert row[1] == "" and row[5] != ""

    def test_batch_pass_fails_the_same_rows_as_scalar(self, capsys):
        # heavy tails: the default rule gives p_bar(0) <= 0 at x = -4 and
        # from x = -12 down, but not in between, all within one batch
        # saddlepoint solve. This checks that the batch and scalar passes
        # agree row by row, not that the values are accurate: between -11
        # and -2 they are off the Bessel density by up to 2.3 nats.
        p = NigParams(chi=0.125, psi=0.125)
        xs = np.arange(-24.0, 0.5, 1.0)
        solve_saddlepoint_batch(Nig(p), xs)  # the grid takes the one-pass path
        code, out, _ = _run(
            capsys,
            [
                "density", "--family", "nig", "--method", "spi",
                "--params", "chi=0.125", "psi=0.125",
                "--grid", "-24:0:1",
            ],
        )
        assert code == 5
        _, rows = _parse_csv(out)
        assert [float(r[0]) for r in rows] == xs.tolist()
        expected = {}
        for x in xs.tolist():
            try:
                expected[x] = spi_log_density(Nig(p), x).log_density
            except InversionError:
                expected[x] = None
        assert [r[5] != "" for r in rows] == [v is None for v in expected.values()]
        assert 0 < sum(v is None for v in expected.values()) < len(xs)
        for row in rows:
            if not row[5]:
                assert abs(float(row[1]) - expected[float(row[0])]) < 1e-5

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


class TestSimulate:
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

    def test_fit_rejects_gaussian_family(self, capsys, tmp_path):
        prices = tmp_path / "p.csv"
        _write_prices(prices, [1.0, 1.01, 0.99, 1.02])
        code, _, err = _run(capsys, ["fit", "--family", "gaussian", "--input", str(prices)])
        assert code == 3 and "error:" in err


class TestLoglik:
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
        assert header == ["param_value", "nll", "converged"]
        assert len(rows) == 3  # two grid points plus the reference row
        assert rows[-1][0] == "gbm_ref"
        assert float(rows[0][1]) >= 0 or float(rows[0][1]) < 0  # numeric
        assert rows[0][2] == "True"

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

    def test_cli_maps_parse_error_to_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("100\nbogus\n101\n")
        code, _, err = _run(capsys, ["fit", "--family", "gbm", "--input", str(f)])
        assert code == 2
        assert "line 2" in err


class TestImports:
    """A command loads the scipy modules it calls and no others."""

    _NIG = ["--family", "nig", "--params", "chi=0.0003", "psi=1000"]

    def _scipy_modules_after(self, tmp_path, commands):
        """Exit codes of spinv.cli.main over commands in a fresh interpreter,
        and the scipy modules loaded by then."""
        script = (
            "import json, sys\n"
            "import spinv, spinv.cli\n"
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

    def _simulate(self):
        return ["simulate", *self._NIG, "--n", "200", "--seed", "5", "--output", "p.csv"]

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

    def test_fit_loads_the_optimizer(self, tmp_path):
        codes, loaded = self._scipy_modules_after(
            tmp_path,
            [self._simulate(), ["fit", "--family", "gbm", "--input", "p.csv", "--output", "f.json"]],
        )
        assert codes == [0, 0]
        assert "scipy.optimize" in loaded
