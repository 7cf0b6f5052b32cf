"""The benchmark's workloads: inputs, the timed operation, and output checks.

Every workload is a closed loop with one caller and no concurrency, like a
user running one fit: the next operation starts when the last returned.

Data are the acceptance-criteria sets: the 4500 NIG returns of criterion 9
(simulation seed 11) and the MJD increments of criterion 6 (seed 7). The
benchmark's --seed permutes the order of those observations, which the
i.i.d. likelihood does not depend on, and draws each workload's other
inputs (parameter points, the CLI's price file). So every seed poses the
same statistical problem with different input arrays, and accuracy
figures stay comparable across seeds. The tail rows that fail today are
measured deliberately by the cli workload's +-50 sd grid.

Each workload's class docstring says why it was chosen and which layers
it loads, so a later change can see which workload should show it and
which must stay flat.
"""

import csv
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import spinv.cli
import spinv.estimation as est
import spinv.inversion as inv
import spinv.models as mdl

DT = 1.0 / 252.0
N_CRITERION = 4500
NIG_PARAMS = mdl.NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0)
NIG_DATA_SEED = 11
MJD_PARAMS = mdl.MjdParams(
    r=0.0445,
    sigma=math.exp(-2.41),
    lam=math.exp(4.96),
    mu_j=-0.00114,
    nu=math.exp(-4.32),
)
MJD_DATA_SEED = 7

# A returned log-density this far from the closed-form oracle is wrong
# output, not quadrature error. Today's worst returned value is 6.0 nats,
# a NIG row near the edge of the rows that fail on the +-50 sd grid.
SANITY_NATS = 10.0


class CheckError(Exception):
    """An operation returned output that is wrong, not merely inaccurate."""


def nig_returns(n):
    """The criterion-9 NIG returns (exactly that set when n = 4500)."""
    return mdl.simulate_nig(NIG_PARAMS, n, NIG_DATA_SEED)


def mjd_increments(n):
    """The first n criterion-6 MJD increments."""
    path = mdl.simulate_mjd_path(MJD_PARAMS, 0.0, DT, N_CRITERION, MJD_DATA_SEED)
    return np.diff(path)[:n]


def _check(ok, message):
    if not ok:
        raise CheckError(message)


def _max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# Runs argv[2:] as its child and writes that child's CPU seconds and peak
# memory to the file argv[1]. A child started by vfork or fork and exec
# inherits its parent's peak memory in ru_maxrss, so the program under
# test is started from this small fresh interpreter, not from the
# benchmark process, whose peak is larger than a spinv CLI's.
LAUNCHER = """
import json, os, subprocess, sys
proc = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(proc.pid, 0)
with open(sys.argv[1], "w") as fh:
    json.dump({"cpu_s": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss}, fh)
sys.exit(os.waitstatus_to_exitcode(status) & 255)
"""


class Child:
    """A finished child process: exit code, output, CPU seconds and peak memory (KiB)."""

    def __init__(self, code, out, err, cpu_s, rss_kb):
        self.code = code
        self.out = out
        self.err = err
        self.cpu_s = cpu_s
        self.rss_kb = rss_kb


def run_child(argv, workdir, env=None, timeout=170):
    """Run argv to completion in a child process; returns a Child.

    The CPU time and peak memory are the child's own, measured through
    LAUNCHER. Output goes through files in workdir.
    """
    fd, usage_file = tempfile.mkstemp(dir=workdir, suffix=".json")
    os.close(fd)
    try:
        with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
            proc = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER, usage_file, *argv],
                                    stdout=out, stderr=err, env=env, start_new_session=True)
            try:
                code = proc.wait(timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            out.seek(0)
            err.seek(0)
            with open(usage_file) as fh:
                usage = json.load(fh)
            return Child(code, out.read().decode(), err.read().decode(), usage["cpu_s"], usage["rss_kb"])
    finally:
        os.remove(usage_file)


class Outcome:
    """What one timed operation returned, or the SpinvError it raised."""

    def __init__(self, value=None, error=None):
        self.value = value
        self.error = error


class Summary:
    """Checked outputs of a run's operations.

    report: {name: (value, unit, samples)} accuracy and count figures.
    results_ok / results: things a user gets back (NLL values, fits,
    density rows) without and with an error. ops / ops_failed: operations
    run, and those that raised, did not converge or exited wrongly.
    """

    def __init__(self, report, results_ok, results, ops, ops_failed):
        self.report = report
        self.results_ok = results_ok
        self.results = results
        self.ops = ops
        self.ops_failed = ops_failed


class Workload:
    name = ""
    why = ""
    op_label = ""  # what op_s times, in the report
    scale = {}  # input sizes; "smoke" gives the reduced ones
    ops_run = 0  # timed operations so far, set by the runner

    def __init__(self, seed, smoke=False, workdir=None):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.size = self.scale["smoke" if smoke else "full"]
        self.workdir = workdir

    def setup(self):
        """Build the inputs; everything the first timed call needs."""

    def warmup(self):
        """One untimed call, so lazy imports and first-touch costs are paid."""

    def op(self):
        """One timed operation; returns its value, raises SpinvError on failure."""
        raise NotImplementedError

    def results(self, outcomes):
        """Check the outputs of the timed operations; returns a Summary.

        Raises CheckError on wrong output.
        """
        raise NotImplementedError

    def traced_extras(self):
        """Calls made only in the traced run, outside the timed operations."""

    def peak_rss_kb(self):
        """Peak resident memory of the program under test, in KiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def op_cpu(self, value, own_s):
        """CPU seconds of the program under test in one operation; own_s is this process's."""
        return own_s

    def close(self):
        """Remove files that setup wrote."""

    def input_digest(self):
        """Arrays that the seed determines, for checking that it does."""
        raise NotImplementedError


def _param_points(fit, rng):
    """+-2 se along each coordinate of the oracle MLE, the others jittered by up to 0.05 se.

    The jitter is kept small because the largest density error moves with
    it: +-0.5 se spread max_err_nats over 0.076-0.088 across five seeds.
    """
    dim = fit.params.size
    points = []
    for i in range(dim):
        for sign in (-2.0, 2.0):
            v = fit.params + fit.std_errors * rng.uniform(-0.05, 0.05, dim)
            v[i] = fit.params[i] + sign * fit.std_errors[i]
            points.append(v)
    return points


class NigLoglik(Workload):
    """Repeated SPI NLL evaluations on the 4500 criterion-9 NIG returns.

    Why: this is the cost the ROADMAP names, one SPI likelihood evaluation,
    and the quadrature path (the 4500x513 CF matrix in models.k_complex,
    the contour build, phase, exp and reduction in inversion) does about
    95% of it; the batch saddlepoint solve is about 0.5%. So quadrature and
    CF changes show here, and solver changes must not. The parameter
    points sit +-2 oracle standard errors from the oracle MLE along each
    coordinate, where a fit spends its evaluations.
    """

    name = "nig-loglik"
    why = "SPI NLL on the criterion-9 NIG set: loads models.k_complex and the inversion quadrature"
    op_label = "one SPI NLL evaluation"
    scale = {"full": {"n": N_CRITERION}, "smoke": {"n": 500}}

    def setup(self):
        x = nig_returns(self.size["n"])
        self.oracle_fit = est.fit_mle("nig", est.ReturnSeries(DT, x), method="oracle")
        self.data = est.ReturnSeries(DT, x[self.rng.permutation(x.size)])
        tr = est.transform_for("nig")
        self.points = [tr.from_vector(v) for v in _param_points(self.oracle_fit, self.rng)]
        self.calls = 0

    def warmup(self):
        est.negative_log_likelihood("nig", self.points[0], self.data, "spi")

    def op(self):
        i = self.calls % len(self.points)
        self.calls += 1
        return i, est.negative_log_likelihood("nig", self.points[i], self.data, "spi")

    def traced_extras(self):
        # one oracle NLL per point keeps the SPI-to-oracle cost ratio measured
        for p in self.points:
            est.negative_log_likelihood("nig", p, self.data, "oracle")

    def results(self, outcomes):
        failed = sum(1 for o in outcomes if o.error is not None)
        values = {}
        for o in outcomes:
            if o.error is None:
                i, nll = o.value
                _check(math.isfinite(nll), f"non-finite SPI NLL {nll} at point {i}")
                values.setdefault(i, []).append(nll)
        max_err = 0.0
        gap = 0.0
        for i, nlls in values.items():
            _check(max(nlls) == min(nlls), f"SPI NLL not reproducible at point {i}: {nlls}")
            p = self.points[i]
            dens = inv.spi_log_density_batch(mdl.Nig(p), self.data.returns)
            _check(
                abs(-float(np.sum(dens)) - nlls[0]) <= 1e-9 * max(1.0, abs(nlls[0])),
                f"NLL {nlls[0]} is not minus the sum of the SPI densities at point {i}",
            )
            oracle = mdl.nig_exact_log_density(p, self.data.returns)
            err = _max_abs(dens, oracle)
            _check(err < SANITY_NATS, f"SPI density off the oracle by {err} nats at point {i}")
            max_err = max(max_err, err)
            gap = max(gap, abs(nlls[0] + float(np.sum(oracle))))
        report = {
            "max_err_nats": (max_err, "nats", len(values)),
            "nll_gap_nats": (gap, "nats", len(values)),
        }
        n = len(outcomes)
        return Summary(report, n - failed, n, n, failed)

    def input_digest(self):
        return [self.data.returns, np.array([est.transform_for("nig").to_vector(p) for p in self.points])]


def _mjd_model(p):
    return mdl.MjdTransition(p, x0=0.0, dt=DT)


# family: (model from params, closed-form oracle log-density)
FAMILIES = {
    "nig": (mdl.Nig, mdl.nig_exact_log_density),
    "mjd": (_mjd_model, lambda p, x: mdl.mjd_truncated_log_density(_mjd_model(p), x)),
}
DENSITY = {"spi": inv.spi_log_density_batch, "spa": inv.spa_log_density_batch}


def fit_accuracy(family, method, fit, data, oracle_fit):
    """Check a fit of one family and measure it against the oracle.

    Returns {name: value}: max_err_nats is the largest per-observation
    |method - oracle| at the oracle MLE, a point that does not move with
    the optimizer's path; nll_gap_nats and fit_gap_se are taken at the
    fit's own optimum.
    """
    tr = est.transform_for(family)
    model, oracle = FAMILIES[family]
    density = DENSITY[method]
    _check(
        math.isfinite(fit.nll) and np.isfinite(fit.params).all(),
        f"{family} fit returned non-finite nll {fit.nll} or params {fit.params}",
    )
    p = tr.from_vector(fit.params)
    got = density(model(p), data.returns)
    _check(
        abs(-float(np.sum(got)) - fit.nll) <= 1e-9 * max(1.0, abs(fit.nll)),
        f"{family} fit nll {fit.nll} is not minus the sum of its densities at the optimum",
    )
    q = tr.from_vector(oracle_fit.params)
    return {
        "max_err_nats": _max_abs(density(model(q), data.returns), oracle(q, data.returns)),
        "nll_gap_nats": abs(fit.nll + float(np.sum(oracle(p, data.returns)))),
        "fit_gap_se": float(np.max(np.abs(fit.params - oracle_fit.params) / oracle_fit.std_errors)),
    }


class MjdFit(Workload):
    """A complete fit_mle("mjd", method="spi") on criterion-6 MJD increments.

    Why: it adds the optimizer's evaluation count and the 51-evaluation
    Hessian to the per-evaluation cost, with an entire CGF and the
    129-node MJD spec, so the batch solver and estimation weigh more than
    in nig-loglik (at 1000 increments: inversion self time 46%,
    models.k_complex 40%, saddlepoint 10%). Warm starts and an MJD
    quadrature change show here. 400 increments keep a fit near 5 s, so
    a run holds several fits; the evaluation count barely moves with the
    seed's permutation (560-571 over five seeds).
    """

    name = "mjd-fit"
    why = "full SPI fit_mle on criterion-6 MJD increments: loads estimation, inversion and the batch solver"
    op_label = "one SPI fit_mle with standard errors"
    scale = {"full": {"n": 400}, "smoke": {"n": 60}}

    def setup(self):
        x = mjd_increments(self.size["n"])
        self.data = est.ReturnSeries(DT, x[self.rng.permutation(x.size)])

    def warmup(self):
        est.negative_log_likelihood("mjd", est.moment_init("mjd", self.data), self.data, "spi")

    def op(self):
        return est.fit_mle("mjd", self.data, method="spi")

    def results(self, outcomes):
        fits = [o.value for o in outcomes if o.error is None and o.value.converged]
        n = len(outcomes)
        if not fits:
            return Summary({"max_err_nats": (0.0, "nats", 0)}, 0, n, n, n)
        for f in fits:
            _check(np.array_equal(f.params, fits[0].params), f"fits of the same data disagree: {f.params} vs {fits[0].params}")
        acc = fit_accuracy("mjd", "spi", fits[0], self.data, est.fit_mle("mjd", self.data, method="oracle"))
        units = {"max_err_nats": "nats", "nll_gap_nats": "nats", "fit_gap_se": "se"}
        report = {k: (v, units[k], len(fits)) for k, v in acc.items()}
        report["nll_evals"] = (fits[0].n_evals, "count", len(fits))
        return Summary(report, len(fits), n, n, n - len(fits))

    def input_digest(self):
        return [self.data.returns]


class SpaFit(Workload):
    """fit_mle(method="spa") for NIG and for MJD, each on its 4500-point set.

    Why: the same fit loop as mjd-fit with no quadrature at all;
    solve_saddlepoint_batch takes about 80% of the wall time. A batch
    solver change shows here, and a quadrature change is predicted to
    move nothing here. One operation is the NIG fit followed by the MJD
    fit. The seed permutes the NIG returns only: the SPA MJD objective has
    no proper optimum (its Hessian is not positive definite), so the
    optimizer's path and evaluation count jump with the order of the data
    (1675-2484 evaluations over five permutations), and the MJD leg keeps
    the criterion-6 order so that run-to-run differences are the
    program's, not the permutation's.
    """

    name = "spa-fit"
    why = "SPA fit_mle for NIG and MJD, no quadrature: loads the batch saddlepoint solver and the optimizer"
    op_label = "one SPA fit_mle of NIG then one of MJD"
    scale = {"full": {"n": N_CRITERION}, "smoke": {"n": 400}}

    def setup(self):
        n = self.size["n"]
        x = nig_returns(n)
        self.data = {
            "nig": est.ReturnSeries(DT, x[self.rng.permutation(n)]),
            "mjd": est.ReturnSeries(DT, mjd_increments(n)),
        }

    def warmup(self):
        for family, data in self.data.items():
            est.negative_log_likelihood(family, est.moment_init(family, data), data, "spa")

    def op(self):
        """{family: (fit, seconds)} for NIG, then MJD."""
        out = {}
        for family, data in self.data.items():
            t0 = time.perf_counter()
            fit = est.fit_mle(family, data, method="spa")
            out[family] = (fit, time.perf_counter() - t0)
        return out

    def results(self, outcomes):
        runs = [o.value for o in outcomes if o.error is None]
        n = len(outcomes)
        report = {}
        accs = []
        for family, data in self.data.items():
            fits = [r[family][0] for r in runs if r[family][0].converged]
            report[f"{family}.fit_s"] = (statistics.median(r[family][1] for r in runs), "s", len(runs))
            if not fits:
                continue
            for f in fits:
                _check(np.array_equal(f.params, fits[0].params), f"{family} fits of the same data disagree")
            acc = fit_accuracy(family, "spa", fits[0], data, est.fit_mle(family, data, method="oracle"))
            accs.append(acc)
            report[f"{family}.fit_gap_se"] = (acc["fit_gap_se"], "se", len(fits))
            report[f"{family}.nan_std_errors"] = (int(np.isnan(fits[0].std_errors).any()), "count", len(fits))
            report[f"{family}.nll_evals"] = (fits[0].n_evals, "count", len(fits))
        for key, unit in (("max_err_nats", "nats"), ("nll_gap_nats", "nats"), ("fit_gap_se", "se")):
            report[key] = (max((a[key] for a in accs), default=0.0), unit, len(runs))
        converged = sum(r[f][0].converged for r in runs for f in r)
        ok_ops = sum(1 for r in runs if all(r[f][0].converged for f in r))
        return Summary(report, converged, 2 * n, n, n - ok_ops)

    def input_digest(self):
        return [self.data["nig"].returns, self.data["mjd"].returns]


def _grid(mean, sd, width, rows):
    """(lo, step) of a CLI grid of `rows` points from mean - width sd to mean + width sd."""
    lo = mean - width * sd
    step = 2.0 * width * sd / (rows - 1)
    return lo, step


class Cli(Workload):
    """spinv subprocesses (python -m spinv.cli) on fixed grids and a simulated price file.

    Why: the only workload through the scalar evaluators: cmd_density loops
    over spi_log_density, p_bar_zero and standardized_tilted_cf one row at
    a time, and interpreter start-up and imports are a large part of each
    call. It is also the only workload where tail rows fail (the NIG grid
    spans +-50 sd), so error-controlled quadrature and a vectorized core
    show here. The MJD grid spans +-10 sd, where the truncated-mixture
    oracle is still exact.
    """

    name = "cli"
    why = "spinv CLI subprocesses: scalar density rows to +-50 sd, an oracle fit, and interpreter start-up"
    op_label = "one pass of the three-command CLI script"
    scale = {"full": {"rows": 801, "n": N_CRITERION}, "smoke": {"rows": 41, "n": 300}}

    def setup(self):
        rows = self.size["rows"]
        nig_mean, nig_var = mdl.nig_moments(NIG_PARAMS)
        mjd = _mjd_model(MJD_PARAMS)
        p = MJD_PARAMS
        self.grids = {
            "nig": _grid(float(nig_mean), math.sqrt(nig_var), 50.0, rows),
            "mjd": _grid(float(mjd.mean()), math.sqrt(float(mjd.variance())), 10.0, rows),
        }
        params = {
            "nig": ["chi=0.0003", "psi=1000", "mu=-0.0003", "gamma=2"],
            "mjd": [f"r={p.r!r}", f"sigma={p.sigma!r}", f"lambda={p.lam!r}", f"mu_j={p.mu_j!r}", f"nu={p.nu!r}"],
        }
        self.commands = []
        for family in ("nig", "mjd"):
            lo, step = self.grids[family]
            hi = lo + step * (rows - 1)
            self.commands.append(
                ["density", "--family", family, "--method", "spi", "--params", *params[family],
                 "--grid", f"{lo!r}:{hi!r}:{step!r}"]
            )
        x = mjd_increments(self.size["n"])
        prices = np.exp(np.concatenate([[0.0], np.cumsum(x[self.rng.permutation(x.size)])]))
        self.price_file = os.path.join(self.workdir, f"prices-{os.getpid()}.csv")
        with open(self.price_file, "w") as fh:
            fh.write("".join(f"{v:.17g}\n" for v in prices))
        self.commands.append(["fit", "--family", "mjd", "--method", "oracle", "--input", self.price_file])
        # a one-row NIG density, run untimed before each kind of timed pass
        self.warm_command = [*self.commands[0][:-1], "0:0:1"]
        src = os.path.dirname(os.path.dirname(os.path.abspath(spinv.cli.__file__)))
        self.env = dict(os.environ, PYTHONPATH=src)
        self.child_rss_kb = 0

    def run_command(self, argv):
        """One spinv subprocess, as a user runs it: (exit code, stdout, stderr, CPU seconds)."""
        child = run_child([sys.executable, "-m", "spinv.cli", *argv], self.workdir, env=self.env, timeout=120)
        self.child_rss_kb = max(self.child_rss_kb, child.rss_kb)
        return child.code, child.out, child.err, child.cpu_s

    def peak_rss_kb(self):
        """The largest peak resident memory of any spinv subprocess run so far."""
        return self.child_rss_kb

    def op_cpu(self, value, own_s):
        """This process's CPU seconds in the pass plus those of its spinv subprocesses."""
        return own_s + sum(r[3] for r in value)

    def run_in_process(self, argv):
        """spinv.cli.main(argv) in this process, its output read back from a file; like run_command."""
        out = os.path.join(self.workdir, f"cli-out-{os.getpid()}.txt")
        code = spinv.cli.main([*argv, "--output", out])
        if not os.path.exists(out):  # main reported an error before writing
            return code, "", "", None
        with open(out) as fh:
            text = fh.read()
        os.remove(out)
        return code, text, "", None

    def warmup(self):
        self.run_command(self.warm_command)

    def op(self):
        return [self.run_command(argv) for argv in self.commands]

    def op_in_process(self):
        return [self.run_in_process(argv) for argv in self.commands]

    def results(self, outcomes):
        oracles = {
            "nig": lambda x: mdl.nig_exact_log_density(NIG_PARAMS, x),
            "mjd": lambda x: mdl.mjd_truncated_log_density(_mjd_model(MJD_PARAMS), x),
        }
        with open(self.price_file) as fh:
            prices = np.array([float(v) for v in fh.read().split()])
        ref = est.fit_mle("mjd", est.ReturnSeries(DT, np.diff(np.log(prices))), method="oracle")
        results = results_ok = ops_failed = 0
        max_err = 0.0
        rows_failed = []
        for o in outcomes:
            pass_failed = 0
            for argv, (code, out, err, _) in zip(self.commands, o.value):
                if argv[0] == "density":
                    n_ok, n_rows, e = self.check_density(argv[2], code, out, err, oracles[argv[2]])
                    results_ok += n_ok
                    results += n_rows
                    pass_failed += n_rows - n_ok
                    max_err = max(max_err, e)
                    continue
                results += 1
                if code == 4:  # the fit did not converge
                    ops_failed += 1
                    continue
                _check(code == 0, f"fit exited {code}: {err.strip()}")
                fit = json.loads(out)
                got = np.array([fit["params_unconstrained"][k] for k in ref.param_names])
                gap = float(np.max(np.abs(got - ref.params) / ref.std_errors))
                _check(fit["converged"] and gap < 1e-6, f"CLI fit differs from the in-process oracle fit by {gap} se")
                results_ok += 1
            rows_failed.append(pass_failed)
        _check(len(set(rows_failed)) <= 1, f"failed density rows differ between passes: {rows_failed}")
        report = {
            "max_err_nats": (max_err, "nats", results_ok),
            "rows_failed": (rows_failed[0] if rows_failed else 0, "count", len(rows_failed)),
        }
        return Summary(report, results_ok, results, len(outcomes) * len(self.commands), ops_failed)

    def check_density(self, family, code, out, err, oracle):
        """(rows without error, rows, max |spi - oracle|) of one density command."""
        rows = self.size["rows"]
        table = list(csv.DictReader(io.StringIO(out)))
        _check(len(table) == rows, f"{family} density returned {len(table)} rows, expected {rows} ({err.strip()})")
        lo, step = self.grids[family]
        xs = np.array([float(r["x"]) for r in table])
        _check(np.allclose(xs, lo + step * np.arange(rows), rtol=0, atol=1e-9 * abs(step) * rows),
               f"{family} density grid is not the requested one")
        good = [r for r in table if not r["error"]]
        _check(all(r["log_density"] == "" for r in table if r["error"]),
               f"{family} density rows carry both a value and an error")
        _check(code == (5 if len(good) < rows else 0),
               f"{family} density exited {code} with {rows - len(good)} failed rows")
        if not good:
            return 0, rows, 0.0
        x = np.array([float(r["x"]) for r in good])
        ld = np.array([float(r["log_density"]) for r in good])
        _check(np.isfinite(ld).all(), f"{family} density returned non-finite values")
        e = _max_abs(ld, oracle(x))
        _check(e < SANITY_NATS, f"{family} SPI density off the oracle by {e} nats")
        return len(good), rows, e

    def input_digest(self):
        with open(self.price_file) as fh:
            return [np.array([float(v) for v in fh.read().split()])]

    def close(self):
        if os.path.exists(self.price_file):
            os.remove(self.price_file)


WORKLOADS = {w.name: w for w in (NigLoglik, MjdFit, SpaFit, Cli)}
