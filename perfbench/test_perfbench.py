"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import SPAN_LAYERS, Tracer  # noqa: E402

# per-layer metrics that must be non-zero on the workload they should move
MOVES = {
    "paired-r2": [
        "covariance.weight_s", "covariance.weight_calls", "covariance.dC_s",
        "covariance.dC_calls", "covariance.assembly_s", "covariance.assembly_calls",
        "estfun.trace_s", "estfun.godambe_s",
    ],
    "car-mc": [
        "covariance.dC_s", "covariance.dC_calls", "covariance.dsigma_s",
        "covariance.dsigma_calls", "functions.chol_calls", "functions.covlink_s",
        "functions.covlink_calls", "matpred.assemble_U_s", "matpred.assemble_U_calls",
        "estfun.state_s", "estfun.state_calls", "solver.iters_per_fit",
        "solver.states_per_iter", "solver.pd_retries", "solver.init_s", "solver.self_s",
    ],
    "cli-mc": [
        "estfun.state_s", "estfun.state_calls", "simulate.gaussian_s", "cli.spec_s",
        "cli.data_s", "cli.write_s", "cli.simulate_write_s", "cli.self_s",
    ],
}
CLI_METRICS = [f"{layer}_s" for layer in SPAN_LAYERS if layer.startswith("cli.")]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.02)
        with tracer.span("inner"):
            pass
    (outer_id, _, _, o_start, o_end), = [s for s in tracer.spans if s[2] == "outer"]
    inner = [s for s in tracer.spans if s[2] == "inner"]
    assert all(s[1] == outer_id for s in inner)
    selfs = tracer.self_times()
    inner_total = sum(s[4] - s[3] for s in inner)
    assert selfs["inner"] == pytest.approx((inner_total, 2))
    assert selfs["outer"][0] == pytest.approx(o_end - o_start - inner_total)
    assert selfs["outer"][0] + selfs["inner"][0] == pytest.approx(o_end - o_start)


def test_round_rates_take_complete_rounds_of_consecutive_fits():
    from run import round_rates

    records = [(i, wall, None) for i, wall in enumerate([1.0, 1.0, 0.5, 1.5, 4.0])]
    passed = [True, True, True, False, True]
    assert round_rates(records, passed, 2) == [1.0, 0.5]
    assert round_rates(records[:1], passed[:1], 2) == [1.0]


def test_install_patches_caller_bindings_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import mcglm.covariance
    import mcglm.estfun

    original = mcglm.estfun.weight_matrix
    tracer = Tracer()
    tracer.install()
    try:
        assert mcglm.estfun.weight_matrix is not original
        assert mcglm.covariance.weight_matrix is original
    finally:
        tracer.uninstall()
    assert mcglm.estfun.weight_matrix is original


def test_install_skips_bindings_that_no_longer_exist(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import mcglm.estfun

    monkeypatch.delattr(mcglm.estfun, "weight_matrix")
    tracer = Tracer()
    try:
        assert tracer.install() == [("mcglm.estfun", "weight_matrix")]
    finally:
        tracer.uninstall()
    assert not hasattr(mcglm.estfun, "weight_matrix")


@pytest.mark.parametrize("workload", sorted(MOVES))
def test_traced_run_layers(workload):
    out = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", "1")
    assert out.returncode == 0, out.stderr
    assert "blas_threads numpy=1 scipy=1 (verified)" in out.stdout
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        declared = {m["name"] for m in json.loads(bench.read_text())["per_layer"]}
        assert set(metrics) == declared
    for name in MOVES[workload]:
        assert metrics[name] > 0, name
    if workload != "cli-mc":
        assert all(metrics[name] == 0 for name in CLI_METRICS)
    layers = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace."))
    assert metrics["trace.remainder_s"] >= 0
    assert layers + metrics["trace.remainder_s"] == pytest.approx(metrics["trace.wall_s"])


def test_timed_run_reports_end_to_end_metrics():
    out = run_bench(ROOT, "--workload", "cli-mc", "--seed", "5", "--seconds", "2")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "fit_s", "fits_per_s", "peak_rss_mb"}
    for name in ("fit_s_p90", "fail_share", "simulate_s"):
        assert any(line.startswith(name + " ") for line in out.stdout.splitlines())


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench(tmp_path, "--workload", "car-mc", "--seed", "0", "--seconds", "1")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
