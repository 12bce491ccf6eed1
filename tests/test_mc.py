"""Monte Carlo helpers: summary statistics, truth curves, worker count, BLAS threads."""

from __future__ import annotations

import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qscale.cli as cli_mod
import qscale.mc as mc_mod
import qscale.series as series_mod
import qscale.simulate as simulate_mod
from qscale.exceptions import ConfigError, DomainError, NumericalError
from qscale.laguerre import LaguerreParams
from qscale.mc import (
    _ad_critical_1pct, one_blas_thread, resolve_workers, run_monte_carlo, true_values,
)
from qscale.simulate import make_scheme, simulate_window


@pytest.mark.parametrize("n, want", [(20, 0.992), (200, 1.031), (1000, 1.034)])
def test_ad_critical_value_1pct(n, want):
    # Stephens (1974) case-3 value 1.035 / (1 + 0.75/n + 2.25/n^2), 3 decimals
    assert _ad_critical_1pct(n) == want


def test_true_values_one_kernel_evaluation(exp_jump_model, monkeypatch):
    calls = []
    orig = series_mod.kernels

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(series_mod, "kernels", counting)
    x = np.array([1.0, 3.0])
    truth = true_values(exp_jump_model, LaguerreParams(1.0, 20), x)
    assert len(calls) == 1
    approx = series_mod.scale_approx(exp_jump_model, LaguerreParams(1.0, 20))
    assert np.array_equal(truth.W_K, approx.w(x))
    assert np.array_equal(truth.Z_K, approx.z(x))


class TestGridFreeReplications:
    """Replications never build the n + 1 grid."""

    @staticmethod
    def _peak_bytes(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_replication_memory_does_not_grow_with_n(self, exp_jump_model, params20):
        # T = 1600: one grid-sized array is 2.56M doubles (19.5 MiB), and a
        # replication that simulates the path peaks near 78 MiB
        scheme = make_scheme(1600.0)
        x = np.array([1.0, 3.0])
        mc_mod.run_replication(exp_jump_model, scheme, params20, 1, x, D_window=1600.0)
        _, sim_peak = self._peak_bytes(
            lambda: simulate_window(exp_jump_model, scheme, 2, 1600.0)
        )
        row, peak = self._peak_bytes(
            lambda: mc_mod.run_replication(
                exp_jump_model, scheme, params20, 2, x, D_window=1600.0
            )
        )
        assert not row["failed"]
        # the simulation holds the ~1,600 jumps
        assert sim_peak < 512 * 2**10, sim_peak
        # the rest is the kernel sweep over the jump sizes
        assert peak < 4 * 2**20, peak

    def test_monte_carlo_does_not_simulate_paths(self, exp_jump_model, params20, monkeypatch):
        def no_paths(*args, **kwargs):
            raise AssertionError("a replication built a path")

        monkeypatch.setattr(simulate_mod, "simulate", no_paths)
        assert not hasattr(mc_mod, "simulate")
        res = run_monte_carlo(
            exp_jump_model, make_scheme(20.0), params20, 3, [1.0], base_seed=5, D_window=20.0
        )
        assert [row["failed"] for row in res.rows] == ["", "", ""]

    def test_window_checked_before_any_replication(self, exp_jump_model, params20, monkeypatch):
        calls = []
        monkeypatch.setattr(mc_mod, "run_replication", lambda *a, **k: calls.append(1))
        with pytest.raises(DomainError):
            run_monte_carlo(exp_jump_model, make_scheme(10.0), params20, 2, [1.0], D_window=20.0)
        assert calls == []


class TestResolveWorkers:
    """The resolver alone: no pool is started here."""

    @pytest.fixture(autouse=True)
    def four_cores(self, monkeypatch):
        monkeypatch.setattr(mc_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})

    @pytest.mark.parametrize("requested, want", [(1, 1), (3, 3), (4, 4), (5, 4), (10**9, 4)])
    def test_clamped_to_usable_cores(self, requested, want):
        assert resolve_workers(requested) == want

    @pytest.mark.parametrize("env, want", [("2", 2), ("64", 4), ("0", 1), ("-3", 1), ("", 3)])
    def test_env_overrides_config(self, env, want):
        assert resolve_workers(3, env) == want

    def test_non_integer_env_is_config_error(self):
        with pytest.raises(ConfigError):
            resolve_workers(1, "many")


def _blas_counts() -> list[int]:
    return [get() for get, _ in mc_mod._openblas_threads()]


class TestOneBlasThread:
    """Replications and commands run on one OpenBLAS thread; the caller's count comes back."""

    @pytest.fixture
    def two_threads(self):
        # an outer count other than 1, whatever the machine's default
        libs = mc_mod._openblas_threads()
        before = _blas_counts()
        for _, set_ in libs:
            set_(2)
        yield [2] * len(libs)
        for (_, set_), n in zip(libs, before):
            set_(n)

    @pytest.fixture
    def recording_report(self, monkeypatch):
        # the failure message carries the counts read inside the replication
        # back to this process, from a pool worker too
        def recording(*args, **kwargs):
            raise NumericalError(json.dumps({"pid": os.getpid(), "threads": _blas_counts()}))

        monkeypatch.setattr(mc_mod, "build_report", recording)

    def test_lookup_finds_every_shipped_openblas(self):
        import numpy
        import scipy

        shipped = [
            path
            for pkg in (numpy, scipy)
            for path in (Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs").glob(
                "lib*openblas*.so*"
            )
        ]
        if not shipped:
            pytest.skip("numpy and scipy ship no OpenBLAS here")
        assert len(mc_mod._openblas_threads()) == len(shipped)

    def test_replication_in_process(self, exp_jump_model, params20, two_threads, recording_report):
        row = mc_mod.run_replication(
            exp_jump_model, make_scheme(20.0), params20, 1, [1.0], D_window=20.0
        )
        assert json.loads(row["failed"])["threads"] == [1] * len(two_threads)
        assert _blas_counts() == two_threads

    def test_replication_in_pool_worker(
        self, exp_jump_model, params20, two_threads, recording_report
    ):
        res = run_monte_carlo(
            exp_jump_model, make_scheme(20.0), params20, 4, [1.0], workers=2, D_window=20.0
        )
        seen = [json.loads(row["failed"]) for row in res.rows]
        assert len(seen) == 4
        assert all(rec["pid"] != os.getpid() for rec in seen)
        assert all(rec["threads"] == [1] * len(two_threads) for rec in seen)
        assert _blas_counts() == two_threads

    def test_restored_when_the_replication_raises(
        self, exp_jump_model, params20, two_threads, monkeypatch
    ):
        def broken(*args, **kwargs):
            assert _blas_counts() == [1] * len(two_threads)
            raise ValueError("broken report")

        monkeypatch.setattr(mc_mod, "build_report", broken)
        with pytest.raises(ValueError, match="broken report"):
            mc_mod.run_replication(
                exp_jump_model, make_scheme(20.0), params20, 1, [1.0], D_window=20.0
            )
        assert _blas_counts() == two_threads

    def test_nested_use_restores_outer_count(self, two_threads):
        with one_blas_thread():
            with one_blas_thread():
                assert _blas_counts() == [1] * len(two_threads)
            assert _blas_counts() == [1] * len(two_threads)
        assert _blas_counts() == two_threads

    def test_no_openblas_is_a_no_op(self, two_threads, monkeypatch):
        libs = mc_mod._openblas_threads()
        monkeypatch.setattr(mc_mod, "_openblas_threads", lambda: ())
        with one_blas_thread():
            assert [get() for get, _ in libs] == two_threads
        assert [get() for get, _ in libs] == two_threads

    def test_cli_command_runs_on_one_thread(self, two_threads, monkeypatch):
        seen = []

        def recording(cfg, args):
            seen.append(_blas_counts())
            return cli_mod.EXIT_OK

        monkeypatch.setattr(cli_mod, "load_config", lambda path: None)
        monkeypatch.setattr(cli_mod, "cmd_compute", recording)
        assert cli_mod.main(["compute", "--config", "cfg.json"]) == cli_mod.EXIT_OK
        assert seen == [[1] * len(two_threads)]
        assert _blas_counts() == two_threads
