"""Command-line front end: density grids, fitting, profiles, simulation.

Subcommands emit CSV (density, profile, simulate) or JSON (fit, loglik) to
--output or stdout; density and profile emit JSON records with --format
json. JSON is strict (RFC 8259): a number that is not finite is written
as null, where CSV keeps inf and nan. Each subcommand declares only the
flags it reads. Exit codes: 0 success, 2 input parsing (an undeclared
flag included), 3 validation, 4 convergence, 5 inversion failure. What a
command knows of a family comes from its record in estimation.FAMILIES:
the --family choices, the --params names and defaults, the model (and so
its SPI rule), and more.

density evaluates its grid in one batch pass: the batch saddlepoint solve
marks the rows it cannot solve, and the inversion core the spi rows whose
p_bar(0) is unusable, so each such row carries its own error and the rest
of the grid is unaffected.

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
from dataclasses import MISSING, asdict, fields

import numpy as np

from .errors import (
    ConvergenceError,
    InversionError,
    ParseError,
    SpinvError,
    ValidationError,
)
from .estimation import (
    FAMILIES,
    ReturnSeries,
    fit_mle,
    negative_log_likelihood,
    profile_nll,
    transform_for,
)
from .inversion import (
    DEFAULT_DIRECT_QUAD,
    DEFAULT_SPI_QUAD,
    QuadratureSpec,
    direct_ift_log_density_batch,
    log_density_terms,
    p_bar_error,
    spa_log_density,  # noqa: F401 (unused; perfbench/tracing.py patches it)
    spi_log_density,  # noqa: F401 (unused; perfbench/tracing.py patches it)
)
from .models import MjdTransition, Nig  # noqa: F401 (unused; perfbench/tracing.py patches them)

# the most rows a --grid or --n, or points a --quad-points, may ask for; checked before allocating
_MAX_ROWS = 10**7
_MAX_QUAD_POINTS = 10**6
# exit code by error type, first match; validation and domain errors give 3
_EXIT_CODES = (
    (ParseError, 2), (ConvergenceError, 4), (InversionError, 5), (SpinvError, 3)
)


def _parse_params(pairs, aliases):
    out = {}
    for token in pairs or []:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValidationError(f"--params expects key=value, got {token!r}")
        key = aliases.get(key, key)
        if key in out:
            raise ValidationError(f"--params gives {key!r} more than once")
        try:
            out[key] = float(value)
        except ValueError:
            raise ValidationError(f"--params value for {key!r} is not a number: {value!r}")
        if not math.isfinite(out[key]):
            raise ValidationError(f"--params value for {key!r} must be finite, got {value!r}")
    return out


def _family_params(family, pairs):
    """The family's params object; fields with a default may be left out.

    A field may also be named by its unconstrained coordinate less "log_"
    (mjd's lam as lambda, from log_lambda).
    """
    tr = FAMILIES[family].transform
    cls = tr.params
    aliases = {n.removeprefix("log_"): f.name for f, n in zip(fields(cls), tr.names)}
    params = _parse_params(pairs, aliases)
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in params]
    if missing:
        raise ValidationError(f"family {family!r} needs --params {' '.join(missing)}")
    unknown = sorted(set(params) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"unknown parameters for family {family!r}: {' '.join(unknown)}")
    return cls(**params)


def _fitted_family(args):
    """The family record for fit, profile and loglik, which need a moment start."""
    fam = FAMILIES[args.family]
    if fam.moment_init is None:
        names = ", ".join(name for name, f in FAMILIES.items() if f.moment_init is not None)
        raise ValidationError(f"{args.command} supports families {names}")
    return fam


def _parse_grid(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--grid expects lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--grid values must be numeric, got {spec!r}")
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValidationError(f"--grid values must be finite, got {spec!r}")
    if not step > 0.0 or hi < lo:
        raise ValidationError(f"--grid needs lo <= hi and step > 0, got {spec!r}")
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_ROWS:  # also when hi - lo overflows to inf
        raise ValidationError(f"--grid has more than {_MAX_ROWS} rows, got {spec!r}")
    return lo + step * np.arange(int(math.floor(span)) + 1)


def _quad_from_args(args, model):
    """The rule either --quad flag selects, or None, the method's default.

    With neither flag, spi takes the model's own rule, the contour where
    the model states none and its CGF domain has a finite end (see
    inversion.p_bar_zero_batch), and direct takes DEFAULT_DIRECT_QUAD.
    A flag given alone keeps the other field of the model's own fixed
    rule, else of DEFAULT_SPI_QUAD, or for direct of DEFAULT_DIRECT_QUAD.
    A flag where no rule runs raises ValidationError: with spa or oracle,
    and for the likelihood of a family that takes its closed form whatever
    the method (gbm).
    """
    if args.quad_points is not None and args.quad_points > _MAX_QUAD_POINTS:
        raise ValidationError(f"--quad-points is more than {_MAX_QUAD_POINTS}, got {args.quad_points}")
    if args.quad_upper is None and args.quad_points is None:
        return None
    exact = args.command != "density" and FAMILIES[args.family].exact_likelihood
    if exact or args.method not in ("spi", "direct"):
        what = f"{args.command} of {args.family}, its closed form" if exact else f"--method {args.method}"
        raise ValidationError(f"--quad-upper/--quad-points set the rule of spi and direct; none runs in {what}")
    base = DEFAULT_DIRECT_QUAD if args.method == "direct" else model.spi_quad or DEFAULT_SPI_QUAD
    return QuadratureSpec(
        args.quad_upper if args.quad_upper is not None else base.upper_limit,
        args.quad_points if args.quad_points is not None else base.n_points,
    )


def _rule_defaults(field, name):
    """The SPI default, and the named field of the fixed SPI rule and of the direct rule, for --help."""
    return (
        f"spi: the model's own rule, a contour with error control where the CGF domain has a "
        f"finite end; a fixed rule takes the model's own {name}, else "
        f"{getattr(DEFAULT_SPI_QUAD, field):g}; direct: {getattr(DEFAULT_DIRECT_QUAD, field):g}"
    )


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def read_price_csv(path):
    """Prices from a one- or two-column UTF-8 CSV; returns a float array."""
    try:
        # utf-8-sig drops a byte-order mark, which would make the first price read as a header
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not {exc.encoding} text") from None
    prices = []
    for lineno, row in enumerate(lines, start=1):
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


def _json_text(value):
    """value as strict JSON (RFC 8259), with each number that is not finite as null.

    json writes such a float as NaN, Infinity or -Infinity, which are not
    JSON; reading the text back turns each into None, and allow_nan=False
    raises on any that is left.
    """
    strict = json.loads(json.dumps(value), parse_constant=lambda name: None)
    return json.dumps(strict, indent=2, allow_nan=False) + "\n"


def _emit_table(args, header, rows):
    """The rows as CSV, or as JSON records with empty cells and numbers that are not finite as null.

    A dict cell is a JSON object in both; in CSV it is written as its JSON text.
    """
    if args.format == "json":
        text = _json_text([{k: None if v == "" else v for k, v in zip(header, row)} for row in rows])
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([json.dumps(v) if isinstance(v, dict) else v for v in row] for row in rows)
        text = buf.getvalue()
    _emit(text, args.output)


def _density_rows(model, xs, method, quad):
    """spi or spa rows of the density table from one batch pass over the grid.

    A row whose saddlepoint solve failed, or whose p_bar(0) is unusable,
    gets that as its error.
    """
    *terms, p_bar, sp = log_density_terms(model, xs, method, quad)
    rows = []
    for i, row in enumerate(zip(xs.tolist(), *(v.tolist() for v in terms))):
        error = str(sp.error(i)) if sp.reason[i] else p_bar_error(p_bar[i], f"at x0 = {row[0]}", quad)
        rows.append([row[0], "", "", "", "", error] if error else [*row, ""])
    return rows


def cmd_density(args):
    fam = FAMILIES[args.family]
    model = fam.model(_family_params(args.family, args.params), args.dt, args.x0)
    quad = _quad_from_args(args, model)
    xs = _parse_grid(args.grid)
    header = ["x", "log_density", "tilt_term", "jacobian_term", "log_p_bar", "error"]
    if args.method in ("oracle", "direct"):
        direct = args.method == "direct"
        values = direct_ift_log_density_batch(model, xs, quad) if direct else fam.oracle(model, xs)
        rows = [[x, v, "", "", "", ""] for x, v in zip(xs.tolist(), values.tolist())]
    else:
        rows = _density_rows(model, xs, args.method, quad)
    _emit_table(args, header, rows)
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
        "failed_evals": result.failed_evals,
    }


def cmd_fit(args):
    fam = _fitted_family(args)
    data = _load_returns(args)
    init = fam.moment_init(data)
    quad = _quad_from_args(args, fam.model(init, data.dt, 0.0))
    result = fit_mle(args.family, data, method=args.method, quad=quad, init=init)
    _emit(_json_text(_fit_payload(result, data)), args.output)
    # a fit without a finite standard error on every parameter fails as one that did not converge
    return 0 if result.converged and np.isfinite(result.std_errors).all() else 4


def cmd_profile(args):
    fam = _fitted_family(args)
    data = _load_returns(args)
    init = _family_params(args.family, args.params) if args.params else fam.moment_init(data)
    quad = _quad_from_args(args, fam.model(init, data.dt, 0.0))
    grid = _parse_grid(args.grid)
    points = profile_nll(args.family, data, args.method, quad, args.param, grid, init=init)
    rows = [[p.value, p.nll, p.converged, p.failed_evals] for p in points]
    if fam.reference:
        ref = fit_mle(fam.reference, data)
        rows.append([f"{fam.reference}_ref", ref.nll, ref.converged, ref.failed_evals])
    _emit_table(args, ["param_value", "nll", "converged", "failed_evals"], rows)
    return 0


def cmd_simulate(args):
    if not 1 <= args.n <= _MAX_ROWS:
        raise ValidationError(f"--n must be from 1 to {_MAX_ROWS}, got {args.n}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be non-negative, got {args.seed}")
    params = _family_params(args.family, args.params)
    try:
        path = FAMILIES[args.family].simulate(params, args.n, args.dt, args.seed)
    except ValueError as exc:  # numpy refuses a draw parameter, as Poisson does a mean of 1e20
        raise ValidationError(f"cannot draw from these parameters: {exc}") from None
    with np.errstate(over="ignore"):
        prices = np.exp(path)
    bad = np.flatnonzero(~np.isfinite(prices))
    if bad.size:
        raise ValidationError(
            f"simulated price not finite at step {bad[0]} of {args.n}: these parameters overflow the path"
        )
    lines = "".join(f"{p:.17g}\n" for p in prices)
    _emit(lines, args.output)
    return 0


def cmd_loglik(args):
    fam = _fitted_family(args)
    data = _load_returns(args)
    params = _family_params(args.family, args.params)
    quad = _quad_from_args(args, fam.model(params, data.dt, 0.0))
    nll = negative_log_likelihood(args.family, params, data, args.method, quad)
    payload = {
        "family": args.family,
        "method": args.method,
        "n_obs": int(data.returns.size),
        "nll": nll,
        "loglik": -nll,
    }
    _emit(_json_text(payload), args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinv",
        description="Log-densities of CGF-specified models by saddlepoint-adjusted inversion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, method=True, params=True, table=False):
        """A subcommand with the flag groups its func reads: method and rule, params, format."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--family", required=True, choices=list(FAMILIES))
        if method:
            p.add_argument("--method", default="spi", choices=["spi", "spa", "direct", "oracle"])
            p.add_argument(
                "--quad-upper",
                type=float,
                default=None,
                help="upper end U of a fixed inversion rule on [0, U]; either --quad flag selects "
                "one (default: " + _rule_defaults("upper_limit", "upper limit") + ")",
            )
            p.add_argument(
                "--quad-points",
                type=int,
                default=None,
                help="evaluations of a fixed rule, an even count bumped to odd; spi takes the "
                "trapezoid rule, direct Simpson's (default: " + _rule_defaults("n_points", "point count") + ")",
            )
        if params:
            p.add_argument("--params", nargs="+", metavar="K=V")
        if table:
            p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--output", default=None)
        p.add_argument("--dt", type=float, default=1.0 / 252.0)
        return p

    d = command("density", cmd_density, "log-density over an x grid", table=True)
    d.add_argument("--grid", required=True, help="lo:hi:step")
    d.add_argument("--x0", type=float, default=0.0, help="mjd transition start (log price)")

    f = command("fit", cmd_fit, "maximum-likelihood fit of a price CSV", params=False)
    f.add_argument("--input", required=True)

    p = command("profile", cmd_profile, "profile NLL over one unconstrained parameter", table=True)
    p.add_argument("--input", required=True)
    p.add_argument("--param", required=True, help="unconstrained name, e.g. log_lambda")
    p.add_argument("--grid", required=True, help="lo:hi:step")

    s = command("simulate", cmd_simulate, "simulate a price path CSV", method=False)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)

    g = command("loglik", cmd_loglik, "log-likelihood of given params on a price CSV")
    g.add_argument("--input", required=True)

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
    try:
        for flag in ("dt", "x0"):
            value = getattr(args, flag, 0.0)
            if not math.isfinite(value):
                raise ValidationError(f"--{flag} must be finite, got {value}")
        if not args.dt > 0.0:
            raise ValidationError(f"--dt must be positive, got {args.dt}")
        return args.func(args)
    except SpinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))

if __name__ == "__main__":
    sys.exit(main())
