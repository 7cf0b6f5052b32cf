"""The benchmark's own tests: a reduced-size smoke run of every workload.

Run with:  python -m pytest perfbench

Each workload runs once untraced and once traced with --smoke (small
inputs, one set-up probe) for two seconds. The tests check that every
metric of BENCHMARK.json is emitted with its unit and a sample count, that
the workload-specific figures are reported, that traced spans nest and
self times are non-negative, that the seed changes the inputs, and that
the benchmark refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

NAMES = [w["name"] for w in SPEC["workloads"]]

# The workload-specific end-to-end figures each workload reports beside
# the BENCHMARK.json metrics.
SPECIFIC = {
    "nig-loglik": ["nll_ms_p50", "nll_ms_tail", "nll_gap_nats", "fail_share"],
    "mjd-fit": ["fit_s", "nll_gap_nats", "fit_gap_se", "fail_share"],
    "spa-fit": ["fit_s", "nll_gap_nats", "fit_gap_se", "fail_share"],
    "cli": ["cli_s", "fail_share"],
}


def run_bench(workload, trace, seed=3, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module", params=NAMES)
def untraced(request):
    return request.param, parse(run_bench(request.param, 0))


@pytest.fixture(scope="module", params=NAMES)
def traced(request):
    return request.param, parse(run_bench(request.param, 1))


def test_untraced_result_has_every_end_to_end_metric(untraced):
    name, (report, result) = untraced
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert got["value"] > 0
        fig = report["figures"][m["name"]]
        assert fig["unit"] == m["unit"] and fig["samples"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_untraced_report_has_workload_figures_and_environment(untraced):
    name, (report, _) = untraced
    for key in SPECIFIC[name]:
        fig = report["figures"][key]
        assert fig["unit"] and fig["samples"] >= 1, key
    env = report["environment"]
    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads", "seed", "source_sha256"):
        assert env[key] is not None, key
    assert env["seed"] == 3


def test_traced_result_has_every_per_layer_metric(traced):
    name, (report, result) = traced
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        fig = report["figures"][m["name"]]
        assert fig["unit"] == m["unit"] and "samples" in fig


def test_traced_spans_nest_with_nonnegative_self_time(traced):
    name, (report, _) = traced
    with open(os.path.join(ROOT, report["figures"]["spans_file"])) as fh:
        spans = json.load(fh)["spans"]
    assert spans
    tracing.check_nesting(spans)
    assert min(tracing.self_times(spans)) >= -1e-9
    ops = {s[tracing.OP] for s in spans if s[tracing.NAME] == "bench.op"}
    assert ops == set(range(len(ops)))


def test_traced_layers_match_workload(traced):
    name, (report, result) = traced
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "nig-loglik":
        assert m["inversion.nodes_per_obs"] == 513
        assert m["models.k_complex_elems"] == 513 * workloads.NigLoglik.scale["smoke"]["n"]
        assert m["bessel.oracle_nll_ms"] > 0
    elif name == "mjd-fit":
        assert m["inversion.nodes_per_obs"] == 129
        assert m["estimation.nll_evals"] > 0 and m["estimation.hessian_ms"] > 0
    elif name == "spa-fit":
        assert m["inversion.nodes_per_obs"] == 0 and m["saddlepoint.batch_ms"] > 0
        assert m["share.saddlepoint"] == max(m[f"share.{layer}"] for layer in tracing.LAYERS)
    else:
        assert m["cgf.tilted_cf_calls"] > 0 and m["cli.import_s"] > 0
        assert m["cli.rows_failed"] == report["figures"]["cli.rows_failed"]["value"]


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs_and_same_seed_repeats_them(name, tmp_path):
    def digest(seed):
        wl = workloads.WORKLOADS[name](seed, smoke=True, workdir=str(tmp_path))
        wl.setup()
        try:
            return wl.input_digest()
        finally:
            wl.close()

    a, b, c = digest(1), digest(1), digest(2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_child_usage_is_that_childs_own(tmp_path):
    # cli's peak_rss_mb and CPU times are each spinv child's own: neither the
    # largest of every child reaped so far nor the peak of this process,
    # which a child started by fork or vfork inherits
    ballast = bytearray(128 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    big = workloads.run_child([sys.executable, "-c", "b = bytearray(64 << 20); b[::4096] = b'x' * len(b[::4096])"],
                              str(tmp_path))
    small = workloads.run_child([sys.executable, "-c", "print('ok')"], str(tmp_path))
    assert (big.code, small.code, small.out) == (0, 0, "ok\n")
    assert big.rss_kb > 64 << 10 > small.rss_kb
    assert small.cpu_s > 0
    failing = workloads.run_child([sys.executable, "-c", "import sys; sys.exit(5)"], str(tmp_path))
    assert failing.code == 5


def test_tail_percentile_keeps_ten_samples_beyond():
    import run

    assert run.tail(list(range(10))) == (None, None)
    value, pct = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert sum(1 for v in range(100) if v > value) == 10


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nig-loglik", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
