"""Monte Carlo helpers: summary statistics, truth curves, worker count."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import qscale.mc as mc_mod
import qscale.series as series_mod
import qscale.simulate as simulate_mod
from qscale.exceptions import ConfigError, DomainError
from qscale.laguerre import LaguerreParams
from qscale.mc import _ad_critical_1pct, resolve_workers, run_monte_carlo, true_values
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
        # the simulation holds a block of increments and the ~1600 jumps
        assert sim_peak < 2 * 2**20, sim_peak
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
