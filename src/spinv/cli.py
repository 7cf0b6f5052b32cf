"""Command-line front end: density grids, fitting, profiles, simulation.

Subcommands emit CSV (density, profile, simulate) or JSON (fit, loglik) to
--output or stdout. Exit codes: 0 success, 2 input parsing, 3 validation,
4 convergence, 5 inversion/quadrature failure. What a command knows of a
family comes from its record in estimation.FAMILIES: the --family choices,
the --params names and defaults, the model, oracle, simulator and more.

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
from dataclasses import MISSING, asdict, fields

import numpy as np

from .errors import (
    ConvergenceError,
    InversionError,
    ParseError,
    QuadratureError,
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
    QuadratureSpec,
    direct_ift_log_density_batch,
    log_density_terms,
    p_bar_error,
    spa_log_density,
    spi_log_density,
)
from .models import MjdTransition, Nig  # noqa: F401 (unused; perfbench/tracing.py patches them)

_PARAM_ALIASES = {"lambda": "lam"}
# the most rows a --grid may ask for, checked before anything is allocated
_MAX_GRID_ROWS = 10**7
# exit code by error type, first match; validation and domain errors give 3
_EXIT_CODES = (
    (ParseError, 2), (ConvergenceError, 4), ((InversionError, QuadratureError), 5), (SpinvError, 3)
)


def _parse_params(pairs):
    out = {}
    for token in pairs or []:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValidationError(f"--params expects key=value, got {token!r}")
        key = _PARAM_ALIASES.get(key, key)
        if key in out:
            raise ValidationError(f"--params gives {key!r} more than once")
        try:
            out[key] = float(value)
        except ValueError:
            raise ValidationError(f"--params value for {key!r} is not a number: {value!r}")
    return out


def _family_params(family, pairs):
    """The family's params object; fields with a default may be left out."""
    cls = FAMILIES[family].transform.params
    params = _parse_params(pairs)
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
    if not span < _MAX_GRID_ROWS:  # also when hi - lo overflows to inf
        raise ValidationError(f"--grid has more than {_MAX_GRID_ROWS} rows, got {spec!r}")
    return lo + step * np.arange(int(math.floor(span)) + 1)


def _quad_from_args(args, fam):
    """The method's default rule from the record, with either flag given overriding it."""
    base = DEFAULT_DIRECT_QUAD if args.method == "direct" else fam.spi_quad
    return QuadratureSpec(
        args.quad_upper if args.quad_upper is not None else base.upper_limit,
        args.quad_points if args.quad_points is not None else base.n_points,
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


def _emit_table(args, header, rows):
    """The rows as CSV, or as JSON records with empty cells as null."""
    if args.format == "json":
        records = [{k: None if v == "" else v for k, v in zip(header, row)} for row in rows]
        text = json.dumps(records, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    _emit(text, args.output)


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
    fam = FAMILIES[args.family]
    model = fam.model(_family_params(args.family, args.params), args.dt, args.x0)
    quad = _quad_from_args(args, fam)
    xs = _parse_grid(args.grid)
    header = ["x", "log_density", "tilt_term", "jacobian_term", "log_p_bar", "error"]
    if args.method in ("oracle", "direct"):
        direct = args.method == "direct"
        values = direct_ift_log_density_batch(model, xs, quad) if direct else fam.oracle(model, xs)
        rows = [[x, v, "", "", "", ""] for x, v in zip(xs.tolist(), values.tolist())]
    else:
        try:
            rows = _density_rows(model, xs, args.method, quad)
        except ConvergenceError:
            # the batch solver fails the whole grid; row by row, only the
            # rows it cannot solve fail
            rows = [_density_row(model, x, args.method, quad) for x in xs.tolist()]
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
    }


def cmd_fit(args):
    fam = _fitted_family(args)
    data = _load_returns(args)
    quad = _quad_from_args(args, fam)
    result = fit_mle(args.family, data, method=args.method, quad=quad)
    _emit(json.dumps(_fit_payload(result, data), indent=2) + "\n", args.output)
    return 0 if result.converged else 4


def cmd_profile(args):
    fam = _fitted_family(args)
    data = _load_returns(args)
    quad = _quad_from_args(args, fam)
    grid = _parse_grid(args.grid)
    init = _family_params(args.family, args.params) if args.params else None
    points = profile_nll(args.family, data, args.method, quad, args.param, grid, init=init)
    rows = [[p.value, p.nll, p.converged] for p in points]
    if fam.reference:
        ref = fit_mle(fam.reference, data)
        rows.append([f"{fam.reference}_ref", ref.nll, ref.converged])
    _emit_table(args, ["param_value", "nll", "converged"], rows)
    return 0


def cmd_simulate(args):
    if args.n < 1:
        raise ValidationError(f"--n must be at least 1, got {args.n}")
    params = _family_params(args.family, args.params)
    path = FAMILIES[args.family].simulate(params, args.n, args.dt, args.seed)
    lines = "".join(f"{p:.17g}\n" for p in np.exp(path))
    _emit(lines, args.output)
    return 0


def cmd_loglik(args):
    fam = _fitted_family(args)
    data = _load_returns(args)
    params = _family_params(args.family, args.params)
    quad = _quad_from_args(args, fam)
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
        p.add_argument("--family", required=True, choices=list(FAMILIES))
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
    except SpinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))

if __name__ == "__main__":
    sys.exit(main())
