"""Monte Carlo helpers: summary statistics, truth curves, worker count."""

from __future__ import annotations

import numpy as np
import pytest

import qscale.mc as mc_mod
import qscale.series as series_mod
from qscale.exceptions import ConfigError
from qscale.laguerre import LaguerreParams
from qscale.mc import _ad_critical_1pct, resolve_workers, true_values


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
