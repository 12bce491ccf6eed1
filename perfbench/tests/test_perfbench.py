"""Tests of the benchmark itself (not of qscale).

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import io
import json
import multiprocessing.pool
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ["curve", "mc_t1600", "roundtrip"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# counts that must repeat bit-for-bit for one seed
EXACT = [
    "estimators.h_sweeps_per_op", "estimators.gamma.psi_evals", "laguerre.psi_bwd.calls",
    "series.h_kernels.calls", "series.h_kernels.z_per_call", "tabular.rows_written",
    "simulate.grid_bytes_computed", "bench.cyclic_garbage_mb",
]


class WrongCurve:
    """Stands in for a ScaleApprox whose W_K and Z_K are wrong."""

    def w(self, x):
        return 0.0 * x

    z = w


def _refuse(*args, **kwargs):
    raise AssertionError("the benchmark must not start a process, pool or thread")


def _run(workload: str, trace: int, seed: int = 3) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                         "--trace", str(trace)])
    return code, out.getvalue().splitlines()


@pytest.fixture(scope="module")
def runs():
    """Every workload once untraced and twice traced, with pools and threads refused."""
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        for cls in (concurrent.futures.ProcessPoolExecutor,
                    concurrent.futures.ThreadPoolExecutor, multiprocessing.pool.Pool,
                    subprocess.Popen):
            mp.setattr(cls, "__init__", _refuse)
        mp.setattr(threading.Thread, "start", _refuse)
        for wl in WORKLOADS:
            for key in ((wl, 0), (wl, 1), (wl, "1-again")):
                results[key] = _run(wl, 1 if key[1] else 0)
    return results


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code(spec):
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_only_registered_metrics(runs, spec, workload, trace):
    code, lines = runs[(workload, trace)]
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name) and len(name) <= 64
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_environment_is_recorded_and_within_nproc(runs, workload):
    _, lines = runs[(workload, 0)]
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert set(env) >= {"nproc", "python", "numpy", "scipy", "blas_threads"}
    assert env["python_threads"] == 1
    assert env["blas_threads"] and max(env["blas_threads"].values()) <= env["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_one_seed(runs, workload):
    first = json.loads(runs[(workload, 1)][1][-1])["metrics"]
    again = json.loads(runs[(workload, "1-again")][1][-1])["metrics"]
    for name in EXACT:
        assert first[name]["value"] == again[name]["value"], name


def test_self_times_account_for_the_traced_operation(runs):
    metrics = json.loads(runs[("mc_t1600", 1)][1][-1])["metrics"]
    layers = sum(metrics[f"{layer}.self_ms"]["value"] for layer in tracing.OP_LAYERS)
    assert layers == pytest.approx(metrics["trace.op_ms"]["value"], rel=1e-9)


def test_layer_metrics_self_time_and_counts():
    ms = 1_000_000
    spans = [
        ["bench.op", -1, 0, 0, 10 * ms, 0],
        ["estimators.coeffs", 0, 0, 1 * ms, 6 * ms, 0],
        ["series.h_kernels", 1, 0, 2 * ms, 5 * ms, 7],
        ["laguerre.psi_bwd", 2, 0, 3 * ms, 4 * ms, 0],
        ["bench.op", -1, 4, 20 * ms, 30 * ms, 1],  # second operation: times only
        ["series.h_kernels", 4, 4, 21 * ms, 29 * ms, 7],
    ]
    m = tracing.layer_metrics(spans, pass_ops=1, baseline_op_s=[0.008, 0.010])
    assert m["estimators.coeffs.self_ms"] == pytest.approx(2.0 / 2)
    assert m["series.h_kernels.self_ms"] == pytest.approx((2.0 + 8.0) / 2)
    assert m["laguerre.psi_bwd.self_ms"] == pytest.approx(1.0 / 2)
    assert m["bench.self_ms"] == pytest.approx((5.0 + 2.0) / 2)
    assert m["series.h_kernels.calls"] == 1 and m["series.h_kernels.z_per_call"] == 7
    assert m["estimators.h_sweeps_per_op"] == 1
    assert m["trace.op_ms"] == pytest.approx(10.0)
    assert m["trace.overhead_share"] == pytest.approx(0.020 / 0.018 - 1.0)


def test_failed_checks_are_counted(tmp_path, monkeypatch):
    import workloads

    monkeypatch.setattr(workloads.series, "scale_approx", lambda model, params: WrongCurve())
    loop = run.Loop(workloads.Curve(1, tmp_path))
    loop.run_pass(0)
    assert (loop.attempted, loop.failed) == (9, 9)


def test_exits_nonzero_without_result_when_outputs_are_wrong(monkeypatch):
    import workloads

    monkeypatch.setattr(workloads.series, "scale_approx", lambda model, params: WrongCurve())
    code, lines = _run("curve", 0)
    assert code != 0 and not any(line.startswith("{") for line in lines)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
