"""The runner: short mode end to end, refusal without a package, tracer bindings."""

import json
import shutil
import subprocess
import sys

import numpy as np

from conftest import BENCH

import tracing


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_short_mode_runs_all_four_workloads():
    proc = _run(BENCH.parent, "--workload", "all", "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    # one short round per workload; the only failure is the defective spectral problem
    assert result["failed"] == 1
    for workload in ("fuchsian-verify", "local-normal-form", "spectral", "stability"):
        for metric in ("setup_s", "problems_per_s", "problem_ms_p50", "digits", "peak_rss_mb"):
            assert result["metrics"][f"{workload}.{metric}"]["value"] > 0


def test_short_traced_run_accounts_for_wall_time():
    proc = _run(BENCH.parent, "--workload", "local-normal-form", "--short", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    layers = sum(metrics[f"{layer}.self_ms"] for layer in tracing.LAYERS)
    assert abs(layers + metrics["bench.self_ms"] - metrics["trace.wall_ms"]) <= 1e-6 * metrics["trace.wall_ms"]
    assert metrics["verify.integrate_local.ms_per_call"] > 0
    assert metrics["series.MatrixSeries.eval.calls"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "spectral", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_wraps_every_binding_and_restores_them():
    import logconn
    from logconn import bundles, eigen, localforms

    original = eigen.schur
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert eigen.schur is localforms.schur is bundles.schur is logconn.schur
        assert eigen.schur is not original
        eigen.norm_log(np.diag([2.0, 3.0]))
    finally:
        tracer.uninstall()
    assert eigen.schur is original and localforms.schur is original and logconn.schur is original
    calls, inclusive, own = tracer.stat("eigen.norm_log")
    assert calls == 1 and 0 < own <= inclusive
    assert tracer.stat("eigen.schur")[0] >= 1
    assert abs(tracer.top_level - inclusive) < 1e-12
    assert tracer.rank_ms_per_call("eigen.norm_log", 2) > 0
