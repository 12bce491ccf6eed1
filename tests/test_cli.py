"""CLI harness: subcommands, exit codes, reproducibility, file schemas."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qscale.cli import main
from qscale.levy import LevyModel, NoJumps
from qscale.oracles import residue_scale


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "model": {
            "x0": 0.0, "c": 1.5, "D": 0.5, "q": 0.1,
            "jumps": {"kind": "compound-poisson-exponential", "rate": 1.0, "jump_mean": 1.0},
        },
        "laguerre": {"alpha": 1.0, "K": 20},
        "scheme": {"T": 50, "a": 1.0, "rho": 0.49, "c_eps": 1.0, "seed": 11},
        "mc": {"replications": 2, "workers": 1},
        "output": {"directory": str(path.parent / "out")},
        "x_grid": {"min": 0.0, "max": 5.0, "points": 11},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def read_csv_columns(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    if len(lines) == 1:
        return {h: np.empty(0) for h in header}
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {h: data[:, i] for i, h in enumerate(header)}


class TestCompute:
    def test_brownian_matches_closed_form(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"x0": 0.0, "c": 1.5, "D": 0.5, "q": 0.1, "jumps": {"kind": "none"}},
        )
        assert main(["compute", "--config", str(cfg)]) == 0
        cols = read_csv_columns(tmp_path / "out" / "w_curve.csv")
        model = LevyModel(x0=0.0, c=1.5, D=0.5, jumps=NoJumps(), q=0.1)
        want = residue_scale(model, cols["x"])[0]
        assert np.max(np.abs(cols["W_K"] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_oracle_columns_and_summary(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", laguerre={"alpha": 1.0, "K": 40})
        assert main(["compute", "--config", str(cfg), "--oracle"]) == 0
        cols = read_csv_columns(tmp_path / "out" / "w_curve.csv")
        assert set(cols) == {"x", "W_K", "Z_K", "W_oracle", "oracle_err_est"}
        summary = json.loads((tmp_path / "out" / "oracle_summary.json").read_text())
        assert summary["sup_error"] <= 1e-2

    @pytest.mark.parametrize("D, w0", [(0.0, 1.0 / 1.5), (0.5, 0.0)])
    def test_oracle_at_origin_is_the_limit(self, tmp_path, D, w0):
        # the inversion needs x > 0; at x = 0 the column holds W(0+): 1/c
        # for bounded variation (D = 0), else 0
        cfg = write_config(
            tmp_path / "cfg.json",
            model={
                "x0": 0.0, "c": 1.5, "D": D, "q": 0.1,
                "jumps": {"kind": "compound-poisson-exponential", "rate": 1.0, "jump_mean": 1.0},
            },
            laguerre={"alpha": 1.0, "K": 40},
        )
        assert main(["compute", "--config", str(cfg), "--oracle"]) == 0
        cols = read_csv_columns(tmp_path / "out" / "w_curve.csv")
        assert cols["x"][0] == 0.0 and cols["W_oracle"][0] == w0
        assert cols["W_K"][0] == pytest.approx(w0, abs=1e-12)
        summary = json.loads((tmp_path / "out" / "oracle_summary.json").read_text())
        pos = cols["x"] > 0
        assert summary["sup_error"] == np.max(np.abs(cols["W_K"][pos] - cols["W_oracle"][pos]))

    def test_empty_x_grid_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", x_grid={"min": 0, "max": 5, "points": 0})
        assert main(["compute", "--config", str(cfg)]) == 2

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["compute", "--config", str(tmp_path / "nope.json")]) == 4

    def test_coeffs_json_written(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["compute", "--config", str(cfg)]) == 0
        coeffs = json.loads((tmp_path / "out" / "coeffs.json").read_text())
        assert 0 < coeffs["p"] < 1
        assert len(coeffs["a_G"]) == 21


    def test_one_kernel_evaluation(self, tmp_path, monkeypatch):
        import qscale.series as series_mod

        calls = []
        orig = series_mod.kernels

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(series_mod, "kernels", counting)
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["compute", "--config", str(cfg)]) == 0
        assert len(calls) == 1


class TestSimulate:
    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in ("grid.csv", "jumps.csv", "observation.json", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_no_jumps_empty_file(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"x0": 0.0, "c": 1.5, "D": 0.5, "q": 0.1, "jumps": {"kind": "none"}},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "jumps.csv").read_text().splitlines()
        assert lines == ["t,size"]

    def test_manifest_has_hash_and_seed(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--config", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert len(manifest["config_hash"]) == 64
        assert manifest["seeds"] == [11]


class TestEstimate:
    def test_round_trip_from_simulate(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["estimate", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert 0 <= report["estimates"]["p_hat"] < 1
        cols = read_csv_columns(tmp_path / "out" / "ci_curve.csv")
        assert list(cols) == [
            "x", "W_hat", "Z_hat", "W_lo", "W_hi", "Z_lo", "Z_hi", "sigma_K", "sigma_star_K",
        ]
        assert np.all(cols["W_lo"] <= cols["W_hi"])

    def test_no_jump_data_gives_p_zero(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"x0": 0.0, "c": 1.5, "D": 0.5, "q": 0.1, "jumps": {"kind": "none"}},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["estimate", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["estimates"]["p_hat"] == 0.0

    def test_oracle_mode_reproduces_compute(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        assert main(
            ["estimate", "--config", str(cfg), "--oracle", "--out", str(tmp_path / "e")]
        ) == 0
        w_compute = read_csv_columns(tmp_path / "c" / "w_curve.csv")
        w_est = read_csv_columns(tmp_path / "e" / "ci_curve.csv")
        assert w_est["W_hat"] == pytest.approx(w_compute["W_K"], rel=0, abs=0)
        assert w_est["Z_hat"] == pytest.approx(w_compute["Z_K"], rel=0, abs=0)

    def test_missing_data_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(
            ["estimate", "--config", str(cfg), "--data", str(tmp_path / "missing")]
        ) == 4

    def test_degenerate_report_is_always_json(self, tmp_path):
        # at q = 0, gamma_hat = 0 and p_hat = nu_hat(z) / c = 199.8 >= 1 leaves
        # no intervals to write, and the flag must not vanish with "json"
        # missing from the formats
        cfg = write_config(
            tmp_path / "cfg.json",
            model={
                "x0": 0.0, "c": 1.5, "D": 0.5, "q": 0.0,
                "jumps": {"kind": "compound-poisson-exponential", "rate": 1.0, "jump_mean": 1.0},
            },
            scheme={"T": 10, "a": 1.0, "rho": 0.49, "c_eps": 1.0, "seed": 11},
            output={"directory": str(tmp_path / "out"), "formats": ["csv"]},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        times = np.linspace(0.01, 9.99, 999)
        (tmp_path / "out" / "jumps.csv").write_text(
            "t,size\n" + "".join(f"{t!r},3.0\n" for t in times.tolist())
        )
        assert main(["estimate", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["flags"] == {"degenerate_estimate": True}
        assert report["raw_value"] >= 1.0
        assert not (tmp_path / "out" / "ci_curve.csv").exists()


def _edit_cell(path: Path, row: int, col: int, text: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = text
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _truncate_mid_row(d: Path) -> None:
    data = (d / "grid.csv").read_bytes()
    (d / "grid.csv").write_bytes(data[: len(data) // 2 + 3])


def _drop_last_rows(d: Path) -> None:
    lines = (d / "grid.csv").read_text().splitlines()
    (d / "grid.csv").write_text("\n".join(lines[:-10]) + "\n")


def _drop_sidecar_key(key: str):
    def corrupt(d: Path) -> None:
        sidecar = json.loads((d / "observation.json").read_text())
        del sidecar[key]
        (d / "observation.json").write_text(json.dumps(sidecar))

    return corrupt


def _set_sidecar_value(key: str, value):
    def corrupt(d: Path) -> None:
        sidecar = json.loads((d / "observation.json").read_text())
        (sidecar if key == "seed" else sidecar["scheme"])[key] = value
        (d / "observation.json").write_text(json.dumps(sidecar))

    return corrupt


def _map_sidecar_value(path: tuple[str, ...], f):
    """Replace the sidecar value under the keys `path` by f(value)."""
    def corrupt(d: Path) -> None:
        sidecar = json.loads((d / "observation.json").read_text())
        *outer, key = path
        block = sidecar
        for k in outer:
            block = block[k]
        block[key] = f(block[key])
        (d / "observation.json").write_text(json.dumps(sidecar))

    return corrupt


def _swap_first_jump_times(d: Path) -> None:
    lines = (d / "jumps.csv").read_text().splitlines()
    t1, t2 = lines[1].split(",")[0], lines[2].split(",")[0]
    _edit_cell(d / "jumps.csv", 1, 0, t2)
    _edit_cell(d / "jumps.csv", 2, 0, t1)


CORRUPTIONS = {
    "grid_truncated_mid_row": _truncate_mid_row,
    "grid_truncated_rows": _drop_last_rows,
    "grid_non_numeric_cell": lambda d: _edit_cell(d / "grid.csv", 5, 2, "abc"),
    "grid_nan_cell": lambda d: _edit_cell(d / "grid.csv", 5, 2, "nan"),
    "grid_inf_cell": lambda d: _edit_cell(d / "grid.csv", 7, 2, "-inf"),
    "grid_t_column": lambda d: _edit_cell(d / "grid.csv", 5, 1, "0.2000001"),
    "grid_i_column": lambda d: _edit_cell(d / "grid.csv", 5, 0, "7"),
    "grid_header": lambda d: _edit_cell(d / "grid.csv", 0, 2, "Y"),
    "grid_extra_column": lambda d: _edit_cell(d / "grid.csv", 3, 2, "0.5,0.5"),
    "sidecar_missing_seed": _drop_sidecar_key("seed"),
    "sidecar_missing_scheme": _drop_sidecar_key("scheme"),
    "sidecar_not_json": lambda d: (d / "observation.json").write_text("{not json"),
    "sidecar_bad_scheme": lambda d: (d / "observation.json").write_text(
        json.dumps({"scheme": {"n": -4, "delta": 0.05, "eps": 0.2}, "seed": 11})
    ),
    "sidecar_n_infinity": _set_sidecar_value("n", math.inf),
    "sidecar_seed_infinity": _set_sidecar_value("seed", math.inf),
    "sidecar_eps_nan": _set_sidecar_value("eps", math.nan),
    "sidecar_delta_infinity": _set_sidecar_value("delta", math.inf),
    "sidecar_scheme_not_object": lambda d: (d / "observation.json").write_text(
        json.dumps({"scheme": "n=400", "seed": 11})
    ),
    "sidecar_nested_too_deep": lambda d: (d / "observation.json").write_text(
        "[" * 200_000 + "]" * 200_000
    ),
    # the sidecar's numbers are checked as the config's: never coerced
    "sidecar_seed_fraction": _map_sidecar_value(("seed",), lambda seed: seed + 0.9),
    "sidecar_seed_bool": _set_sidecar_value("seed", True),
    "sidecar_seed_negative": _set_sidecar_value("seed", -3),
    "sidecar_n_fraction": _map_sidecar_value(("scheme", "n"), lambda n: n + 0.5),
    "sidecar_n_string": _map_sidecar_value(("scheme", "n"), str),
    "sidecar_delta_string": _map_sidecar_value(("scheme", "delta"), repr),
    "sidecar_eps_string": _map_sidecar_value(("scheme", "eps"), repr),
    "sidecar_rule_string": _map_sidecar_value(("scheme", "rule", "a"), repr),
    "jump_time_past_T": lambda d: _edit_cell(
        d / "jumps.csv", len((d / "jumps.csv").read_text().splitlines()) - 1, 0, "999.0"
    ),
    "jump_time_negative": lambda d: _edit_cell(d / "jumps.csv", 1, 0, "-0.5"),
    "jump_times_unsorted": _swap_first_jump_times,
    "jump_size_below_eps": lambda d: _edit_cell(d / "jumps.csv", 1, 1, "1e-12"),
    "jump_size_nan": lambda d: _edit_cell(d / "jumps.csv", 1, 1, "nan"),
    "jumps_header": lambda d: _edit_cell(d / "jumps.csv", 0, 0, "time"),
}


class TestCorruptObservation:
    """Every malformed observation file ends in exit 4 and one stderr line."""

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_estimate_exits_4(self, tmp_path, capsys, name):
        cfg = write_config(
            tmp_path / "cfg.json", scheme={"T": 20, "a": 1.0, "rho": 0.49, "c_eps": 1.0, "seed": 11}
        )
        data = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
        assert len((data / "jumps.csv").read_text().splitlines()) >= 3
        assert main(["estimate", "--config", str(cfg), "--data", str(data)]) == 0
        capsys.readouterr()
        CORRUPTIONS[name](data)
        assert main(["estimate", "--config", str(cfg), "--data", str(data)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1, err


class TestMc:
    @staticmethod
    def _simulate_estimate_mc(tmp_path, cfg):
        """report.json of ``scale estimate`` on ``scale simulate``'s files, and
        the ``scale mc`` table, for one config."""
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        assert main(
            ["estimate", "--config", str(cfg), "--data", str(tmp_path / "sim"),
             "--out", str(tmp_path / "est")]
        ) == 0
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "mc")]) == 0
        report = json.loads((tmp_path / "est" / "report.json").read_text())
        rows = read_csv_columns(tmp_path / "mc" / "replications.csv")
        return report, rows

    def test_single_replication_matches_estimate(self, tmp_path):
        # D = 0: the replication's realized variance has no random part, so
        # replication 0 reproduces the direct run with the same seed
        cfg = write_config(
            tmp_path / "cfg.json",
            model={
                "x0": 0.0, "c": 2.0, "D": 0.0, "q": 0.05,
                "jumps": {"kind": "compound-poisson-gamma", "rate": 1.0, "shape": 2.0,
                          "scale": 0.4},
            },
            mc={"replications": 1, "workers": 1},
        )
        report, rows = self._simulate_estimate_mc(tmp_path, cfg)
        assert rows["gamma_hat"][0] == report["estimates"]["gamma_hat"]
        assert rows["p_hat"][0] == report["estimates"]["p_hat"]
        summary = json.loads((tmp_path / "mc" / "mc_summary.json").read_text())
        assert report["curves"]["level"] == summary["level"] == 0.95

    def test_single_replication_has_the_simulated_jumps(self, tmp_path):
        # D > 0: replication 0 draws its realized variance anew (equal in law
        # only), but its jumps are those of the direct run with the same seed
        cfg = write_config(tmp_path / "cfg.json", mc={"replications": 1, "workers": 1})
        _, rows = self._simulate_estimate_mc(tmp_path, cfg)
        jumps = read_csv_columns(tmp_path / "sim" / "jumps.csv")
        assert rows["n_jumps"][0] == len(jumps["t"]) > 0

    def test_jump_count_mean_matches_poisson(self, tmp_path):
        # n_jumps column over replications has mean ~ lambda T within 3 SE
        cfg = write_config(
            tmp_path / "cfg.json",
            scheme={"T": 50, "a": 1.0, "rho": 0.49, "c_eps": 0.01, "seed": 3},
            mc={"replications": 60, "workers": 1},
            laguerre={"alpha": 1.0, "K": 5},
            x_grid={"min": 1.0, "max": 1.0, "points": 1},
        )
        assert main(["mc", "--config", str(cfg)]) == 0
        rows = read_csv_columns(tmp_path / "out" / "replications.csv")
        counts = rows["n_jumps"]
        se = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - 50.0) <= 3 * se

    def test_coverage_columns_in_unit_interval(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", mc={"replications": 3, "workers": 1})
        assert main(["mc", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "mc_summary.json").read_text())
        cov = np.array(summary["coverage_W"] + summary["coverage_Z"])
        assert np.all((0.0 <= cov) & (cov <= 1.0))

    def test_workers_env_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json", mc={"replications": 2, "workers": 1})
        monkeypatch.setenv("SCALE_WORKERS", "2")
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "w2")]) == 0
        monkeypatch.delenv("SCALE_WORKERS")
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "w1")]) == 0
        # workers change wall time, never results
        a = (tmp_path / "w2" / "replications.csv").read_bytes()
        b = (tmp_path / "w1" / "replications.csv").read_bytes()
        assert a == b

    def test_mc_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", mc={"replications": 2, "workers": 1})
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0
        for name in ("replications.csv", "mc_summary.json", "manifest.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


    def test_window_longer_than_grid_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            scheme={"T": 10, "a": 1.0, "rho": 0.49, "c_eps": 1.0, "seed": 11},
            mc={"replications": 2, "workers": 1, "D_window": 20.0},
        )
        assert main(["mc", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out" / "replications_partial.csv").exists()
        assert not (tmp_path / "out" / "replications.csv").exists()


class TestWorkerFailure:
    def test_partial_results_and_exit_3(self, tmp_path, monkeypatch):
        import qscale.mc as mc_mod

        calls = {"n": 0}
        original = mc_mod.run_replication

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise RuntimeError("worker crashed")
            return original(*args, **kwargs)

        monkeypatch.setattr(mc_mod, "run_replication", flaky)
        cfg = write_config(tmp_path / "cfg.json", mc={"replications": 4, "workers": 1})
        assert main(["mc", "--config", str(cfg)]) == 3
        partial = read_csv_columns(tmp_path / "out" / "replications.csv".replace(
            "replications.csv", "replications_partial.csv"))
        assert len(partial["seed"]) == 2  # two completed before the crash

    def test_partial_table_numbers_rows_by_replication(self, tmp_path, monkeypatch):
        import qscale.mc as mc_mod

        original = mc_mod.run_replication

        def crash_at_fourth_seed(model, scheme, params, seed, *args, **kwargs):
            if seed == 11 + 3:
                raise RuntimeError("worker crashed")
            return original(model, scheme, params, seed, *args, **kwargs)

        monkeypatch.setattr(mc_mod, "run_replication", crash_at_fourth_seed)
        cfg = write_config(tmp_path / "cfg.json", mc={"replications": 6, "workers": 1})
        assert main(["mc", "--config", str(cfg)]) == 3
        partial = read_csv_columns(tmp_path / "out" / "replications_partial.csv")
        assert partial["rep"].tolist() == [0, 1, 2]
        assert partial["seed"].tolist() == [11, 12, 13]


class TestOutputFormats:
    def test_csv_only(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            output={"directory": str(tmp_path / "out"), "formats": ["csv"]},
        )
        assert main(["compute", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "w_curve.csv").exists()
        assert not (tmp_path / "out" / "coeffs.json").exists()

    def test_json_only(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            output={"directory": str(tmp_path / "out"), "formats": ["json"]},
        )
        assert main(["compute", "--config", str(cfg)]) == 0
        assert not (tmp_path / "out" / "w_curve.csv").exists()
        assert (tmp_path / "out" / "coeffs.json").exists()

    @pytest.mark.parametrize(
        "formats, written, absent",
        [(["csv"], "ci_curve.csv", "report.json"), (["json"], "report.json", "ci_curve.csv")],
    )
    def test_estimate_oracle_honours_formats(self, tmp_path, formats, written, absent):
        cfg = write_config(
            tmp_path / "cfg.json",
            output={"directory": str(tmp_path / "out"), "formats": formats},
        )
        assert main(["estimate", "--config", str(cfg), "--oracle"]) == 0
        assert (tmp_path / "out" / written).exists()
        assert not (tmp_path / "out" / absent).exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_unknown_format_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            output={"directory": str(tmp_path / "out"), "formats": ["parquet"]},
        )
        assert main(["compute", "--config", str(cfg)]) == 2


class TestConfigValidation:
    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["compute", "--config", str(p)]) == 2

    @pytest.mark.parametrize(
        "data",
        [
            b'{"model": {"x0": 0.0, "c": 1.5, "D": 0.5, "q": 0.1, "jumps": {"kind": "none\xff"}}}',
            b"[" * 200_000 + b"]" * 200_000,
            b'{"model": {"x0": ' + b"1" * 5000 + b"}}",
        ],
        ids=["not_utf8", "nested_too_deep", "integer_too_long"],
    )
    def test_malformed_bytes_exit_2(self, tmp_path, capsys, data):
        p = tmp_path / "bad.json"
        p.write_bytes(data)
        assert main(["compute", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_bad_jump_kind(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"x0": 0, "c": 1.5, "D": 0.5, "q": 0.1, "jumps": {"kind": "cauchy"}},
        )
        assert main(["compute", "--config", str(cfg)]) == 2

    def test_negative_x_grid(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", x_grid={"min": -1, "max": 5, "points": 3})
        assert main(["compute", "--config", str(cfg)]) == 2

    def test_missing_block_for_command(self, tmp_path):
        cfg_dict = json.loads(write_config(tmp_path / "cfg.json").read_text())
        del cfg_dict["scheme"]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg_dict))
        assert main(["simulate", "--config", str(tmp_path / "cfg.json")]) == 2
