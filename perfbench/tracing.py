"""Spans and counters for the traced run, recorded from outside the package.

The traced run replaces public spinv functions with timing wrappers by
setting module attributes, and swaps the model classes for counting
subclasses. Nothing under src/ changes, and nothing is patched unless
Tracer.install() is called, which only the traced run does.

A span is (name, start, end, parent, op, tag): parent is the index of the
enclosing span or -1, op the index of the benchmark operation it belongs
to (-1 outside any), tag a short label such as "nig/spi". Counters are
recorded on the innermost open span, so a count is always attributed to
the call boundary where the work happened. Spans stay in memory until
write() is called at the end of the run.
"""

import functools
import json
import time

import numpy as np

import spinv.cli
import spinv.estimation
import spinv.inversion
import spinv.models
import spinv.saddlepoint

# The modules of src/spinv, in the order the per-layer shares are reported.
LAYERS = ("saddlepoint", "models", "inversion", "cgf", "bessel", "estimation", "cli")

# Exception types a fit turns into +inf; anything else is reported as "other".
FAILURE_TYPES = (
    "InversionError",
    "QuadratureError",
    "ConvergenceError",
    "UnattainableMeanError",
    "DomainError",
    "ValidationError",
    "OverflowError",
)

NAME, START, END, PARENT, OP, TAG, COUNTS = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.op = -1

    # -- recording -------------------------------------------------------

    def begin(self, name, tag=""):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, tag, None])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][END] = time.perf_counter()

    def count(self, key, n=1):
        if not self._stack:
            return
        span = self.spans[self._stack[-1]]
        if span[COUNTS] is None:
            span[COUNTS] = {}
        span[COUNTS][key] = span[COUNTS].get(key, 0) + n

    def wrap(self, name, fn, tag=None, counts=None):
        """fn wrapped in a span; tag(*args) labels it, counts(*args) adds counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name, tag(*args, **kwargs) if tag else "")
            try:
                if counts:
                    for key, n in counts(*args, **kwargs).items():
                        self.count(key, n)
                return fn(*args, **kwargs)
            except Exception as exc:
                self.count("raised." + type(exc).__name__)
                raise
            finally:
                self.end()

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions each layer exposes, where its callers look them up."""
        est, inv, sp, mdl, cli = (
            spinv.estimation,
            spinv.inversion,
            spinv.saddlepoint,
            spinv.models,
            spinv.cli,
        )

        def nll_tag(family, params, data, method="spi", quad=None):
            return f"{family}/{method}"

        def obs(model, x, *rest, **kw):
            return {"obs": int(np.size(x))}

        nll = self.wrap("estimation.negative_log_likelihood", est.negative_log_likelihood, nll_tag)
        fit = self.wrap("estimation.fit_mle", est.fit_mle, lambda family, *a, **k: family)
        self._patch(est, "negative_log_likelihood", nll)
        self._patch(est, "fit_mle", fit)
        self._patch(cli, "fit_mle", fit)
        self._patch(est, "hessian_std_errors", self.wrap("estimation.hessian_std_errors", est.hessian_std_errors))
        self._patch(est, "spi_log_density_batch", self.wrap("inversion.spi_log_density_batch", inv.spi_log_density_batch, counts=obs))
        self._patch(est, "spa_log_density_batch", self.wrap("inversion.spa_log_density_batch", inv.spa_log_density_batch, counts=obs))
        self._patch(est, "nig_exact_log_density", self.wrap("models.nig_exact_log_density", mdl.nig_exact_log_density))
        self._patch(est, "mjd_truncated_log_density", self.wrap("models.mjd_truncated_log_density", mdl.mjd_truncated_log_density))
        self._patch(mdl, "bessel_k1_scaled", self.wrap("bessel.bessel_k1_scaled", mdl.bessel_k1_scaled))
        self._patch(inv, "solve_saddlepoint_batch", self.wrap("saddlepoint.solve_saddlepoint_batch", inv.solve_saddlepoint_batch))
        scalar_solve = self.wrap("saddlepoint.solve_saddlepoint", sp.solve_saddlepoint)
        self._patch(inv, "solve_saddlepoint", scalar_solve)
        self._patch(sp, "solve_saddlepoint", scalar_solve)
        self._patch(inv, "standardized_tilted_cf", self.wrap("cgf.standardized_tilted_cf", inv.standardized_tilted_cf))
        self._patch(cli, "spi_log_density", self.wrap("inversion.spi_log_density", cli.spi_log_density, counts=obs))
        self._patch(cli, "spa_log_density", self.wrap("inversion.spa_log_density", cli.spa_log_density, counts=obs))
        self._patch(cli, "main", self.wrap("cli.main", cli.main, lambda argv=None: argv[0] if argv else ""))
        for owner in (est, cli):
            self._patch(owner, "Nig", counting_model(mdl.Nig, self))
            self._patch(owner, "MjdTransition", counting_model(mdl.MjdTransition, self))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "tag", "counts"], "spans": self.spans}, fh)


def counting_model(cls, tracer):
    """Subclass of a model class that counts the elements each CGF method is given.

    k_complex also gets its own span, since it is where the CF matrix is
    built; k1 and k2 are called per Newton step, so only counted.
    """

    class Counting(cls):
        def k_complex(self, z):
            tracer.begin("models.k_complex")
            try:
                tracer.count("k_complex_elems", int(np.size(z)))
                return super().k_complex(z)
            finally:
                tracer.end()

        def k1(self, t):
            tracer.count("k1_elems", int(np.size(t)))
            return super().k1(t)

        def k2(self, t):
            tracer.count("k2_elems", int(np.size(t)))
            return super().k2(t)

    Counting.__name__ = Counting.__qualname__ = cls.__name__
    return Counting


# -- analysis ------------------------------------------------------------


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def inclusive_counts(spans):
    """Per span, its own counters plus those of all its descendants."""
    out = [dict(s[COUNTS] or {}) for s in spans]
    # children are appended after their parent, so one reverse pass suffices
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i][PARENT]
        if p >= 0:
            for key, n in out[i].items():
                out[p][key] = out[p].get(key, 0) + n
    return out


def check_nesting(spans):
    """Raise ValueError unless every span lies inside its parent and is closed."""
    for i, s in enumerate(spans):
        if not s[END] >= s[START]:
            raise ValueError(f"span {i} ({s[NAME]}) ends before it starts")
        p = s[PARENT]
        if p >= 0:
            ps = spans[p]
            if not (p < i and ps[START] <= s[START] and s[END] <= ps[END]):
                raise ValueError(f"span {i} ({s[NAME]}) is not inside its parent {p} ({ps[NAME]})")


def _ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return p
        p = spans[p][PARENT]
    return -1


def layer_metrics(spans, n_ops):
    """The per-layer metrics, as {name: (value, unit, samples)}.

    Times are means per call in ms, so that a span's self time and its
    children's times add up to its duration. Counts are per operation
    unless the name says otherwise. A metric with no calls behind it is 0
    with 0 samples.
    """
    selfs = self_times(spans)
    incl = inclusive_counts(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def mean_ms(values):
        values = list(values)
        return (1e3 * sum(values) / len(values) if values else 0.0), len(values)

    def per(total, n):
        return (total / n if n else 0.0), n

    m = {}
    all_nll = by_name.get("estimation.negative_log_likelihood", [])
    nll = [i for i in all_nll if spans[i][OP] >= 0]
    spi_batch = by_name.get("inversion.spi_log_density_batch", [])
    spi_scalar = by_name.get("inversion.spi_log_density", [])
    kc = by_name.get("models.k_complex", [])
    batch = by_name.get("saddlepoint.solve_saddlepoint_batch", [])
    scalar = by_name.get("saddlepoint.solve_saddlepoint", [])
    fits = by_name.get("estimation.fit_mle", [])
    cf = by_name.get("cgf.standardized_tilted_cf", [])

    v, n = mean_ms(selfs[i] for i in spi_batch)
    m["inversion.self_ms"] = (v, "ms", n)
    v, n = mean_ms(dur(i) for i in kc)
    m["models.k_complex_ms"] = (v, "ms", n)
    v, n = per(sum(incl[i].get("k_complex_elems", 0) for i in nll), len(nll))
    m["models.k_complex_elems"] = (v, "count", n)
    spi = spi_batch + spi_scalar
    v, _ = per(
        sum(incl[i].get("k_complex_elems", 0) for i in spi),
        sum(incl[i].get("obs", 0) for i in spi),
    )
    m["inversion.nodes_per_obs"] = (v, "count", len(spi))
    nll_time = sum(dur(i) for i in nll)
    quad_time = sum(selfs[i] for i in spi_batch) + sum(
        dur(i) for i in kc if _ancestor(spans, i, "inversion.spi_log_density_batch") >= 0
    )
    m["inversion.quadrature_share"] = (quad_time / nll_time if nll_time else 0.0, "share", len(nll))
    v, n = mean_ms(dur(i) for i in batch)
    m["saddlepoint.batch_ms"] = (v, "ms", n)
    for key in ("k1", "k2"):
        v, n = per(sum(incl[i].get(key + "_elems", 0) for i in batch), len(batch))
        m[f"saddlepoint.{key}_evals"] = (v, "count", n)
    fallbacks = sum(1 for i in scalar if _ancestor(spans, i, "saddlepoint.solve_saddlepoint_batch") >= 0)
    v, _ = per(fallbacks, n_ops)
    m["saddlepoint.scalar_fallbacks"] = (v, "count", n_ops)
    v, n = mean_ms(dur(i) for i in scalar)
    m["saddlepoint.scalar_ms"] = (v, "ms", n)

    fit_nll = [i for i in nll if _ancestor(spans, i, "estimation.fit_mle") >= 0]
    v, n = per(len(fit_nll), len(fits))
    m["estimation.nll_evals"] = (v, "count", n)
    failed = {}
    for i in fit_nll:
        for key, k in (spans[i][COUNTS] or {}).items():
            if key.startswith("raised."):
                kind = key[len("raised."):]
                kind = kind if kind in FAILURE_TYPES else "other"
                failed[kind] = failed.get(kind, 0) + k
    v, n = per(sum(failed.values()), len(fits))
    m["estimation.failed_evals"] = (v, "count", n)
    for kind in FAILURE_TYPES + ("other",):
        v, n = per(failed.get(kind, 0), len(fits))
        m["estimation.failed_evals." + kind] = (v, "count", n)
    v, n = mean_ms(dur(i) for i in nll)
    m["estimation.nll_ms"] = (v, "ms", n)
    v, n = mean_ms(dur(i) for i in by_name.get("estimation.hessian_std_errors", []))
    m["estimation.hessian_ms"] = (v, "ms", n)
    in_fit = {}
    for i in fit_nll:
        f = _ancestor(spans, i, "estimation.fit_mle")
        in_fit[f] = in_fit.get(f, 0.0) + dur(i)
    v, n = mean_ms(dur(f) - in_fit.get(f, 0.0) for f in fits)
    m["estimation.optimizer_self_ms"] = (v, "ms", n)

    v, n = mean_ms(dur(i) for i in spi_scalar)
    m["inversion.scalar_ms"] = (v, "ms", n)
    v, n = mean_ms(dur(i) for i in cf)
    m["cgf.tilted_cf_ms"] = (v, "ms", n)
    v, _ = per(len(cf), n_ops)
    m["cgf.tilted_cf_calls"] = (v, "count", n_ops)
    v, n = mean_ms(dur(i) for i in all_nll if spans[i][TAG] == "nig/oracle")
    m["bessel.oracle_nll_ms"] = (v, "ms", n)

    op_time = sum(dur(i) for i in by_name.get("bench.op", []))
    totals = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        layer = s[NAME].split(".")[0]
        if layer in totals and s[OP] >= 0:
            totals[layer] += selfs[i]
    for layer in LAYERS:
        m[f"share.{layer}"] = (totals[layer] / op_time if op_time else 0.0, "share", n_ops)
    return m
