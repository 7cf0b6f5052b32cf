#!/usr/bin/env python3
"""spinv benchmark: SPI likelihood, fits and CLI, end to end and per module.

    python3 perfbench/run.py --workload nig-loglik --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src. --workload is one of nig-loglik, mjd-fit, spa-fit, cli, or all
(each workload in turn, in its own process). Each workload is a closed
loop with one caller; it is described in perfbench/workloads.py.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. Their timings
(setup_s, op_ref_s_p50) are CPU seconds on a reference machine; see
PROBE_S below. The report line also gives them as measured: CPU seconds
(setup_cpu_s, op_cpu_s_p50) and wall seconds (setup_wall_s,
op_wall_s_p50, and the issue's names nll_ms_p50, fit_s, cli_s).
--trace 1 runs the workload untraced, then traced (public spinv functions wrapped from
the benchmark's files, see perfbench/tracing.py), and prints the
per-layer metrics, including the tracing overhead between the two. The
spans are written to perfbench/results/.

The line before last is a report with every figure, its unit and sample
count, the workload-specific metrics (nll_ms_p50, fit_s, cli_s, ...) and
the machine and library versions. The last line is the result:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 when
all outputs passed their checks, 1 when some did not, 2 when the sources
are missing.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# One BLAS thread, set before numpy loads: the workloads are elementwise
# numpy, and a pool of BLAS threads would only add noise on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SETUP_PROBES = 3

# Timings are CPU seconds (user + system) of the program under test: this
# process's own for the in-process workloads, the spinv subprocesses' for
# cli and the fresh processes' for setup_s. The workloads are
# single-threaded and CPU-bound, so on an idle machine that is the wall
# time a user waits. On a shared machine CPU time still moves: the 2-core
# host this was tuned on switched between two speeds about 1.4x apart
# every 10-30 s, from contention for the cores' caches and memory, and a
# 20 s run could fall in either. So speed_probe() runs every
# SAMPLE_EVERY_S seconds throughout the measurement, inside the timed
# operations too (SpeedSampler), and each timed CPU duration is divided by
# the mean of the probes taken from just before it to just after it and
# multiplied by PROBE_S: CPU seconds on a machine that runs the probe in
# PROBE_S (that host in its fast state, numpy 2.4.6). The two cores could
# be in different states, so the benchmark and its children are pinned to
# one core (pin_to_one_cpu), where the probe measures the core the
# program runs on.
PROBE_S = 0.01
SAMPLE_EVERY_S = 0.5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced input sizes, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tail(values):
    """(value, percentile) of the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def timing(values, unit, scale=1.0):
    """Median, tail and sample count of a list of durations in seconds, in `unit`."""
    t, pct = tail(values)
    return {
        "value": scale * statistics.median(values),
        "unit": unit,
        "samples": len(values),
        "tail": None if t is None else scale * t,
        "tail_percentile": pct,
        "all": [scale * v for v in values],
    }


def figure(value, unit, samples):
    """A reported number; non-finite values (which JSON cannot carry) become None."""
    value = float(value) if value is not None and math.isfinite(value) else None
    return {"value": value, "unit": unit, "samples": samples}


def pin_to_one_cpu():
    """Bind this process, and the children it starts, to the last CPU it may use; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "spinv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def speed_probe():
    """CPU seconds of a fixed kernel, about 10 ms: big complex arrays, small arrays, pure Python.

    Its parts mirror the workloads: the SPI CF matrix, the fit loops over
    4500-element arrays, and the scalar and start-up paths of the CLI.
    """
    import numpy as np

    z = np.linspace(0.0, 1.0, 300)[:, None] + 1j * np.linspace(0.0, 3.0, 257)[None, :]
    x = np.linspace(0.1, 1.0, 4500)
    t0 = time.process_time()
    float(np.exp(np.sqrt(z * z + 1.0)).real.sum())
    for _ in range(200):
        float((np.sqrt(x * x + 1.0) * x).sum())
    acc = 0.0
    for i in range(60000):
        acc += (i % 7) * 0.5
    return time.process_time() - t0


class SpeedSampler:
    """speed_probe() on entry, on exit and every SAMPLE_EVERY_S seconds of wall time in between.

    The probes run from SIGALRM, so also inside a timed operation, between
    its bytecodes or while this process waits for a child. `spent` is
    their CPU time, which timed_loop takes out of an operation's own.
    """

    def __init__(self):
        self.times, self.probes = [], []
        self.spent = 0.0

    def tick(self, *_):
        c0 = time.process_time()
        self.times.append(time.perf_counter())
        self.probes.append(speed_probe())
        self.spent += time.process_time() - c0

    def __enter__(self):
        self.tick()
        self._handler = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self.tick()

    def on_reference(self, cpu, t0, t1):
        """cpu seconds measured from t0 to t1 (perf_counter), on the reference machine."""
        lo = bisect.bisect_right(self.times, t0) - 1
        hi = bisect.bisect_left(self.times, t1)
        return cpu * PROBE_S / statistics.mean(self.probes[lo:hi + 1])


def timed_loop(op, seconds, tracer=None, sampler=None, op_cpu=None):
    """Run op back to back for `seconds` of wall time (at least once).

    Returns (wall durations, CPU durations, (start, end) perf_counter
    times, outcomes). op_cpu(value, own CPU seconds) gives an operation's
    CPU seconds, where the program under test runs in child processes; by
    default it is this process's, less what the sampler's probes took.
    """
    from spinv.errors import SpinvError
    from workloads import Outcome

    durations, cpu, windows, outcomes = [], [], [], []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = len(durations)
            tracer.begin("bench.op")
        spent = sampler.spent if sampler else 0.0
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            outcome = Outcome(value=op())
        except SpinvError as exc:
            outcome = Outcome(error=exc)
        finally:
            if tracer is not None:
                tracer.end()
                tracer.op = -1
        t1 = time.perf_counter()
        own = time.process_time() - c0 - ((sampler.spent if sampler else 0.0) - spent)
        durations.append(t1 - t0)
        windows.append((t0, t1))
        cpu.append(own if op_cpu is None or outcome.error is not None else op_cpu(outcome.value, own))
        outcomes.append(outcome)
    return durations, cpu, windows, outcomes


def probe(argv, workdir, env=None):
    """(CPU seconds, start, end) of a fresh interpreter running argv to its end; times by perf_counter."""
    from workloads import run_child

    t0 = time.perf_counter()
    child = run_child([sys.executable, *argv], workdir, env=env)
    t1 = time.perf_counter()
    if child.code != 0:
        raise RuntimeError(f"probe {argv} exited {child.code}: {child.err.strip()}")
    return child.cpu_s, t0, t1


def setup_probes(name, args, workdir, n):
    """n fresh-process set-ups of workload `name`: [(CPU s, start, end)].

    For cli, a user's set-up is the interpreter start-up and import of
    spinv.cli that every command pays; for the other workloads it is this
    script's start-up and the workload's setup(), up to the first timed call.
    """
    if name == "cli":
        argv, env = ["-c", "import spinv.cli"], dict(os.environ, PYTHONPATH=SRC)
    else:
        argv = [__file__, "--workload", name, "--seed", str(args.seed), "--setup-probe"]
        argv, env = argv + (["--smoke"] if args.smoke else []), None
    return [probe(argv, workdir, env) for _ in range(n)]


# The workload's own name for its operation's wall time (as the ROADMAP uses it), with its unit.
OP_FIGURE = {"nig-loglik": ("nll_ms_p50", "ms", 1e3), "mjd-fit": ("fit_s", "s", 1.0),
             "spa-fit": ("fit_s", "s", 1.0), "cli": ("cli_s", "s", 1.0)}


def run_untraced(wl, args, spec):
    with SpeedSampler() as sampler:
        setup = setup_probes(wl.name, args, wl.workdir, 1 if args.smoke else SETUP_PROBES)
        wl.setup()
        wl.warmup()
        durations, cpu, windows, outcomes = timed_loop(wl.op, args.seconds, sampler=sampler, op_cpu=wl.op_cpu)
    wl.ops_run = len(outcomes)
    summary = wl.results(outcomes)
    report = {
        "setup_s": figure(statistics.median(sampler.on_reference(*s) for s in setup), "s", len(setup)),
        "op_ref_s_p50": timing([sampler.on_reference(c, *w) for c, w in zip(cpu, windows)], "s"),
        "max_err_nats": figure(*summary.report["max_err_nats"]),
        "ok_share": figure(summary.results_ok / summary.results, "share", summary.results),
        "peak_rss_mb": figure(wl.peak_rss_kb() / 1024.0, "MB", 1),
        "setup_cpu_s": figure(statistics.median(c for c, _, _ in setup), "s", len(setup)),
        "setup_wall_s": figure(statistics.median(t1 - t0 for _, t0, t1 in setup), "s", len(setup)),
        "op_cpu_s_p50": timing(cpu, "s"),
        "op_wall_s_p50": timing(durations, "s"),
        "probe_s": figure(statistics.median(sampler.probes), "s", len(sampler.probes)),
    }
    name, unit, to_unit = OP_FIGURE[wl.name]
    report[name] = timing(durations, unit, to_unit)
    if wl.name == "nig-loglik":
        report["nll_ms_tail"] = figure(report[name]["tail"], unit, len(durations))
        report["nll_ms_tail"]["percentile"] = report[name]["tail_percentile"]
    report["fail_share"] = figure(1.0 - summary.results_ok / summary.results, "share", summary.results)
    for key, (value, unit_, n) in summary.report.items():
        if key != "max_err_nats":
            report[key] = figure(value, unit_, n)
    metrics = {m["name"]: report[m["name"]] for m in spec["end_to_end"]}
    return summary, metrics, report


def run_traced(wl, args, spec):
    import tracing

    imports = [c for c, _, _ in setup_probes("cli", args, wl.workdir, 1 if args.smoke else SETUP_PROBES)]
    wl.setup()
    wl.warmup()
    phases = 3 if wl.name == "cli" else 2
    base, _, _, outcomes = timed_loop(wl.op, args.seconds / phases)
    op = wl.op
    if wl.name == "cli":
        # the traced run calls spinv.cli.main in-process; time it untraced too
        wl.run_in_process(wl.warm_command)
        in_proc, _, _, more = timed_loop(wl.op_in_process, args.seconds / phases)
        outcomes += more
        op = wl.op_in_process
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _, _, more = timed_loop(op, args.seconds / phases, tracer)
        wl.traced_extras()
    finally:
        tracer.restore()
    outcomes += more
    wl.ops_run = len(outcomes)
    tracing.check_nesting(tracer.spans)
    os.makedirs(RESULTS, exist_ok=True)
    spans_file = os.path.join(RESULTS, f"spans-{wl.name}-seed{args.seed}.json")
    tracer.write(spans_file)
    summary = wl.results(outcomes)

    report = {k: figure(*v) for k, v in tracing.layer_metrics(tracer.spans, len(traced)).items()}
    reference = in_proc if wl.name == "cli" else base
    report["trace.overhead_pct"] = figure(
        100.0 * (statistics.median(traced) / statistics.median(reference) - 1.0), "%", len(traced)
    )
    report["trace.spans_per_op"] = figure(
        sum(1 for s in tracer.spans if s[tracing.OP] >= 0) / len(traced), "count", len(traced)
    )
    report["cli.import_s"] = figure(statistics.median(imports), "s", len(imports))
    if wl.name == "cli":
        self_s = statistics.median(base) - statistics.median(in_proc)
        report["cli.self_s"] = figure(self_s, "s", len(base))
        report["cli.rows_failed"] = figure(*summary.report["rows_failed"])
    else:
        report["cli.self_s"] = figure(0.0, "s", 0)
        report["cli.rows_failed"] = figure(0, "count", 0)
    report["spans_file"] = os.path.relpath(spans_file, ROOT)
    metrics = {m["name"]: report[m["name"]] for m in spec["per_layer"]}
    return summary, metrics, report


def run_all(args, spec):
    """Each workload in its own process; prints a table and a combined result."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in (w["name"] for w in spec["workloads"]):
        argv = [__file__, "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(proc.stderr, file=sys.stderr)
            return 2
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for key, fig in report["figures"].items():
            if isinstance(fig, dict):
                print(f"   {key:42s} {fig['value']!r:>24} {fig['unit']:6s} n={fig['samples']}")
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "spinv", "__init__.py")):
        print(f"error: no spinv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args, spec)
    pin_to_one_cpu()

    import spinv
    import workloads

    if not os.path.abspath(spinv.__file__).startswith(SRC + os.sep):
        print(f"error: spinv imported from {spinv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workdir = os.path.join(RESULTS, "tmp")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke, workdir=workdir)
    try:
        if args.setup_probe:
            wl.setup()
            return 0
        runner = run_traced if args.trace else run_untraced
        try:
            summary, metrics, report = runner(wl, args, spec)
            correct = True
        except workloads.CheckError as exc:
            print(f"error: output check failed: {exc}", file=sys.stderr)
            summary, metrics, report, correct = None, {}, {"check_error": str(exc)}, False
            ops = max(1, wl.ops_run)
    finally:
        wl.close()
    missing = [k for k, v in metrics.items() if v["value"] is None]
    if missing:
        print(f"error: metrics without a finite value: {', '.join(missing)}", file=sys.stderr)
        correct = False
    detail = {
        "workload": wl.name,
        "why": wl.why,
        "operation": wl.op_label,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "figures": report,
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": summary.ops if summary else ops,
        "failed": summary.ops_failed if summary else ops,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items() if v["value"] is not None},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
