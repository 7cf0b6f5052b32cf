"""Command-line front end: density grids, fitting, profiles, simulation.

Subcommands emit CSV (density, profile, simulate) or JSON (fit, loglik) to
--output or stdout. Exit codes: 0 success, 2 input parsing, 3 validation,
4 convergence, 5 inversion/quadrature failure.

density evaluates its grid in one batch pass through the inversion core;
an spi row whose p_bar(0) is unusable carries its own error. When the
batch saddlepoint solve fails, an spi or spa grid is redone row by row
through the scalar evaluators, so that only the rows it cannot solve fail.

Price CSVs hold one observation per line, either a single price column or
(date, price); a header is detected by a non-numeric last field. Returns
are log(p_{i+1}/p_i), so the date column and any header never matter.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    InversionError,
    ParseError,
    QuadratureError,
    SpinvError,
    ValidationError,
)
from .estimation import (
    GbmParams,
    ReturnSeries,
    fit_mle,
    negative_log_likelihood,
    profile_nll,
    transform_for,
)
from .inversion import (
    DEFAULT_DIRECT_QUAD,
    DEFAULT_SPI_QUAD,
    MJD_SPI_QUAD,
    QuadratureSpec,
    direct_ift_log_density_batch,
    log_density_terms,
    p_bar_error,
    spa_log_density,
    spi_log_density,
)
from .models import (
    Gaussian,
    GaussianParams,
    MjdParams,
    MjdTransition,
    Nig,
    NigParams,
    gaussian_log_density,
    mjd_truncated_log_density,
    nig_exact_log_density,
    simulate_mjd_path,
    simulate_nig,
)

_PARAM_ALIASES = {"lambda": "lam"}


def _parse_params(pairs):
    out = {}
    for token in pairs or []:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValidationError(f"--params expects key=value, got {token!r}")
        key = _PARAM_ALIASES.get(key, key)
        try:
            out[key] = float(value)
        except ValueError:
            raise ValidationError(f"--params value for {key!r} is not a number: {value!r}")
    return out


def _take(params, family, required, optional=None):
    optional = optional or {}
    missing = [k for k in required if k not in params]
    if missing:
        raise ValidationError(f"family {family!r} needs --params {' '.join(missing)}")
    known = set(required) | set(optional)
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValidationError(f"unknown parameters for family {family!r}: {' '.join(unknown)}")
    merged = dict(optional)
    merged.update(params)
    return merged


def _family_params(family, params):
    """Params object for a family; gbm/gaussian share the Gaussian machinery."""
    if family == "gaussian":
        p = _take(params, family, [], {"mu": 0.0, "sigma": 1.0})
        return GaussianParams(mu=p["mu"], sigma=p["sigma"])
    if family == "gbm":
        p = _take(params, family, ["r", "sigma"])
        return GbmParams(r=p["r"], sigma=p["sigma"])
    if family == "nig":
        p = _take(params, family, ["chi", "psi"], {"mu": 0.0, "gamma": 0.0})
        return NigParams(chi=p["chi"], psi=p["psi"], mu=p["mu"], gamma=p["gamma"])
    if family == "mjd":
        p = _take(params, family, ["r", "sigma", "lam", "mu_j", "nu"])
        return MjdParams(r=p["r"], sigma=p["sigma"], lam=p["lam"], mu_j=p["mu_j"], nu=p["nu"])
    raise ValidationError(f"unknown family {family!r}")


def _density_model(family, params_obj, dt, x0):
    """(CgfModel, exact log-density callable) for the density grid."""
    if family == "gaussian":
        return Gaussian(params_obj), lambda x: gaussian_log_density(params_obj, x)
    if family == "gbm":
        inc = GaussianParams(
            mu=dt * (params_obj.r - 0.5 * params_obj.sigma**2),
            sigma=params_obj.sigma * math.sqrt(dt),
        )
        return Gaussian(inc), lambda x: gaussian_log_density(inc, x)
    if family == "nig":
        return Nig(params_obj), lambda x: nig_exact_log_density(params_obj, x)
    model = MjdTransition(params_obj, x0=x0, dt=dt)
    return model, lambda x: mjd_truncated_log_density(model, x)


def _parse_grid(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--grid expects lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--grid values must be numeric, got {spec!r}")
    if not step > 0.0 or hi < lo:
        raise ValidationError(f"--grid needs lo <= hi and step > 0, got {spec!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def _quad_from_args(args, family, method):
    upper = getattr(args, "quad_upper", None)
    points = getattr(args, "quad_points", None)
    if upper is None and points is None:
        return None
    if method == "direct":
        base = DEFAULT_DIRECT_QUAD
    else:
        base = MJD_SPI_QUAD if family == "mjd" else DEFAULT_SPI_QUAD
    return QuadratureSpec(
        upper if upper is not None else base.upper_limit,
        points if points is not None else base.n_points,
    )


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def read_price_csv(path):
    """Prices from a one- or two-column CSV; returns a float array."""
    prices = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            cell = row[-1].strip()
            if not _is_number(cell):
                if lineno == 1:
                    continue  # header
                raise ParseError(f"price field is not numeric: {cell!r}", line=lineno)
            value = float(cell)
            if not value > 0.0:
                raise ValidationError(f"line {lineno}: prices must be positive, got {value}")
            prices.append(value)
    if len(prices) < 2:
        raise ParseError(f"need at least 2 price rows, found {len(prices)} in {path}")
    return np.array(prices)


def _load_returns(args):
    if not args.input:
        raise ValidationError("--input is required for this command")
    prices = read_price_csv(args.input)
    return ReturnSeries(dt=args.dt, returns=np.diff(np.log(prices)))


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _rows_to_json(header, rows):
    records = [dict(zip(header, row)) for row in rows]
    for rec in records:
        for k, v in rec.items():
            if v == "":
                rec[k] = None
    return json.dumps(records, indent=2) + "\n"


def _density_rows(model, xs, method, quad):
    """spi or spa rows of the density table from one batch pass over the grid.

    A row whose p_bar(0) is unusable gets that as its error; any other
    failure raises for the whole grid.
    """
    tilt, jac, p_bar = log_density_terms(model, xs, method, quad)
    rows = []
    for x, t, j, p in zip(xs.tolist(), tilt.tolist(), jac.tolist(), p_bar.tolist()):
        error = p_bar_error(p, f"at x0 = {x}")
        if error:
            rows.append([x, "", "", "", "", error])
        else:
            log_p_bar = math.log(p)
            rows.append([x, t + j + log_p_bar, t, j, log_p_bar, ""])
    return rows


def _density_row(model, x, method, quad):
    """One spi or spa row of the density table through the scalar evaluators."""
    try:
        r = spi_log_density(model, x, quad) if method == "spi" else spa_log_density(model, x)
    except SpinvError as exc:
        return [x, "", "", "", "", str(exc)]
    return [x, r.log_density, r.tilt_term, r.jacobian_term, r.log_p_bar, ""]


def cmd_density(args):
    params = _family_params(args.family, _parse_params(args.params))
    model, oracle = _density_model(args.family, params, args.dt, args.x0)
    quad = _quad_from_args(args, args.family, args.method)
    xs = _parse_grid(args.grid)
    header = ["x", "log_density", "tilt_term", "jacobian_term", "log_p_bar", "error"]
    if args.method in ("oracle", "direct"):
        values = oracle(xs) if args.method == "oracle" else direct_ift_log_density_batch(model, xs, quad)
        rows = [[x, v, "", "", "", ""] for x, v in zip(xs.tolist(), values.tolist())]
    else:
        try:
            rows = _density_rows(model, xs, args.method, quad)
        except ConvergenceError:
            # the batch solver fails the whole grid; row by row, only the
            # rows it cannot solve fail
            rows = [_density_row(model, x, args.method, quad) for x in xs.tolist()]
    text = _rows_to_json(header, rows) if args.format == "json" else _rows_to_csv(header, rows)
    _emit(text, args.output)
    return 5 if any(row[-1] for row in rows) else 0


def _fit_payload(result, data):
    tr = transform_for(result.family)
    constrained = asdict(tr.from_vector(result.params))
    return {
        "family": result.family,
        "method": result.method,
        "n_obs": int(data.returns.size),
        "params": {k: float(v) for k, v in constrained.items()},
        "params_unconstrained": dict(zip(result.param_names, map(float, result.params))),
        "std_errors": dict(zip(result.param_names, map(float, result.std_errors))),
        "nll": result.nll,
        "converged": result.converged,
        "n_evals": result.n_evals,
    }


def cmd_fit(args):
    if args.family == "gaussian":
        raise ValidationError("fit supports families gbm, nig, mjd")
    data = _load_returns(args)
    quad = _quad_from_args(args, args.family, args.method)
    result = fit_mle(args.family, data, method=args.method, quad=quad)
    _emit(json.dumps(_fit_payload(result, data), indent=2) + "\n", args.output)
    return 0 if result.converged else 4


def cmd_profile(args):
    if args.family == "gaussian":
        raise ValidationError("profile supports families gbm, nig, mjd")
    data = _load_returns(args)
    quad = _quad_from_args(args, args.family, args.method)
    grid = _parse_grid(args.grid)
    points = profile_nll(args.family, data, args.method, quad, args.param, grid)
    rows = [[p.value, p.nll, p.converged] for p in points]
    if args.family == "mjd":
        ref = fit_mle("gbm", data)
        rows.append(["gbm_ref", ref.nll, ref.converged])
    text = (
        _rows_to_json(["param_value", "nll", "converged"], rows)
        if args.format == "json"
        else _rows_to_csv(["param_value", "nll", "converged"], rows)
    )
    _emit(text, args.output)
    return 0


def cmd_simulate(args):
    if args.n < 1:
        raise ValidationError(f"--n must be at least 1, got {args.n}")
    params = _family_params(args.family, _parse_params(args.params))
    if args.family == "nig":
        returns = simulate_nig(params, args.n, args.seed)
        prices = np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    elif args.family == "mjd":
        path = simulate_mjd_path(params, 0.0, args.dt, args.n, args.seed)
        prices = np.exp(path)
    else:
        rng = np.random.default_rng(args.seed)
        if args.family == "gbm":
            mu = args.dt * (params.r - 0.5 * params.sigma**2)
            sd = params.sigma * math.sqrt(args.dt)
        else:
            mu, sd = params.mu, params.sigma
        returns = mu + sd * rng.standard_normal(args.n)
        prices = np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    lines = "".join(f"{p:.17g}\n" for p in prices)
    _emit(lines, args.output)
    return 0


def cmd_loglik(args):
    if args.family == "gaussian":
        raise ValidationError("loglik supports families gbm, nig, mjd")
    data = _load_returns(args)
    params = _family_params(args.family, _parse_params(args.params))
    quad = _quad_from_args(args, args.family, args.method)
    nll = negative_log_likelihood(args.family, params, data, args.method, quad)
    payload = {
        "family": args.family,
        "method": args.method,
        "n_obs": int(data.returns.size),
        "nll": nll,
        "loglik": -nll,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinv",
        description="Log-densities of CGF-specified models by saddlepoint-adjusted inversion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, method=True):
        p.add_argument("--family", required=True, choices=["gaussian", "nig", "mjd", "gbm"])
        if method:
            p.add_argument("--method", default="spi", choices=["spi", "spa", "direct", "oracle"])
        p.add_argument("--params", nargs="+", metavar="K=V")
        p.add_argument("--output", default=None)
        p.add_argument("--format", default=None, choices=["csv", "json"])
        p.add_argument("--dt", type=float, default=1.0 / 252.0)
        p.add_argument("--quad-upper", type=float, default=None)
        p.add_argument("--quad-points", type=int, default=None)

    d = sub.add_parser("density", help="log-density over an x grid")
    common(d)
    d.add_argument("--grid", required=True, help="lo:hi:step")
    d.add_argument("--x0", type=float, default=0.0, help="mjd transition start (log price)")
    d.set_defaults(func=cmd_density, format_default="csv")

    f = sub.add_parser("fit", help="maximum-likelihood fit of a price CSV")
    common(f)
    f.add_argument("--input", required=True)
    f.set_defaults(func=cmd_fit, format_default="json")

    p = sub.add_parser("profile", help="profile NLL over one unconstrained parameter")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--param", required=True, help="unconstrained name, e.g. log_lambda")
    p.add_argument("--grid", required=True, help="lo:hi:step")
    p.set_defaults(func=cmd_profile, format_default="csv")

    s = sub.add_parser("simulate", help="simulate a price path CSV")
    common(s, method=False)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_simulate, format_default="csv")

    g = sub.add_parser("loglik", help="log-likelihood of given params on a price CSV")
    common(g)
    g.add_argument("--input", required=True)
    g.set_defaults(func=cmd_loglik, format_default="json")

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # argparse reads "-2:2:1" as an option; join grid values onto the flag
    argv = list(argv)
    for i in range(len(argv) - 1):
        if argv[i] == "--grid" and argv[i + 1].startswith("-") and ":" in argv[i + 1]:
            argv[i : i + 2] = [f"--grid={argv[i + 1]}"]
            break
    args = build_parser().parse_args(argv)
    if args.format is None:
        args.format = args.format_default
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InversionError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except SpinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
