"""Monte Carlo helpers: summary statistics, failure counts, worker count, BLAS threads."""

from __future__ import annotations

import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qscale.cli as cli_mod
import qscale.mc as mc_mod
import qscale.simulate as simulate_mod
from qscale.exceptions import (
    ConfigError, DegenerateEstimateError, DomainError, IllConditionedError, NumericalError,
)
from qscale.mc import (
    MC_COLUMNS, _ad_critical_1pct, one_blas_thread, resolve_workers, run_monte_carlo,
)
from qscale.simulate import make_scheme, simulate_window


@pytest.mark.parametrize("n, want", [(20, 0.992), (200, 1.031), (1000, 1.034)])
def test_ad_critical_value_1pct(n, want):
    # Stephens (1974) case-3 value 1.035 / (1 + 0.75/n + 2.25/n^2), 3 decimals
    assert _ad_critical_1pct(n) == want


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
        # numpy's only: scipy's OpenBLAS is never called, so it is not loaded
        import numpy

        shipped = list((Path(numpy.__file__).parent.parent / "numpy.libs").glob("lib*openblas*.so*"))
        if not shipped:
            pytest.skip("numpy ships no OpenBLAS here")
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


class TestFailuresByCause:
    """mc_summary.json counts failed replications by exception class; replications.csv
    keeps its columns."""

    # replication seeds are 11 + rep
    FAILING = {
        12: lambda: DegenerateEstimateError("chosen failure", raw_value=1.5),
        14: lambda: NumericalError("chosen failure"),
        15: lambda: DegenerateEstimateError("chosen failure", raw_value=2.0),
        16: lambda: IllConditionedError("chosen failure"),
    }

    @staticmethod
    def _run_mc(tmp_path: Path, name: str, replications: int) -> Path:
        out = tmp_path / name
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({
            "model": {
                "x0": 0.0, "c": 1.5, "D": 0.5, "q": 0.1,
                "jumps": {"kind": "compound-poisson-exponential", "rate": 1.0, "jump_mean": 1.0},
            },
            "laguerre": {"alpha": 1.0, "K": 10},
            "scheme": {"T": 20, "a": 1.0, "rho": 0.49, "c_eps": 1.0, "seed": 11},
            "mc": {"replications": replications, "workers": 1},
            "output": {"directory": str(out)},
            "x_grid": {"min": 0.0, "max": 5.0, "points": 3},
        }))
        assert cli_mod.main(["mc", "--config", str(cfg)]) == cli_mod.EXIT_OK
        return out

    @pytest.fixture
    def chosen_failures(self, monkeypatch):
        real = mc_mod.build_report

        def report(sample, *args, **kwargs):
            if sample.seed in self.FAILING:
                raise self.FAILING[sample.seed]()
            return real(sample, *args, **kwargs)

        monkeypatch.setattr(mc_mod, "build_report", report)

    def test_counts_by_class(self, tmp_path, chosen_failures):
        out = self._run_mc(tmp_path, "a", 8)
        summary = json.loads((out / "mc_summary.json").read_text())
        assert summary["failures"] == 4
        causes = summary["failures_by_cause"]
        assert causes == {"DegenerateEstimateError": 2, "IllConditionedError": 1, "NumericalError": 1}
        assert list(causes) == sorted(causes)
        lines = (out / "replications.csv").read_text().splitlines()
        assert lines[0].split(",") == MC_COLUMNS
        assert [line.split(",")[-1] for line in lines[1:]] == ["0", "1", "0", "1", "1", "1", "0", "0"]

    def test_reruns_byte_identical(self, tmp_path, chosen_failures):
        a, b = self._run_mc(tmp_path, "a", 8), self._run_mc(tmp_path, "b", 8)
        for name in ("mc_summary.json", "replications.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_empty_when_nothing_fails(self, tmp_path):
        out = self._run_mc(tmp_path, "a", 2)
        summary = json.loads((out / "mc_summary.json").read_text())
        assert summary["failures"] == 0
        assert summary["failures_by_cause"] == {}
