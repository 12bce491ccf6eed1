"""Batch entry points: compute true curves, simulate data, estimate, Monte Carlo.

    scale compute  --config cfg.json [--oracle] [--out DIR]
    scale simulate --config cfg.json [--out DIR]
    scale estimate --config cfg.json [--data DIR] [--oracle] [--out DIR]
    scale mc       --config cfg.json [--out DIR]

Exit codes: 0 success, 2 configuration/domain error, 3 numerical failure,
4 I/O error, including observation files that fail the checks of
load_observation.  Every run writes a manifest (config hash, versions,
seeds) so reruns are byte-identical.  SCALE_WORKERS overrides mc.workers;
either is clamped to the usable cores.  A command runs its linear algebra on
one BLAS thread (``mc.one_blas_thread``).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ExperimentConfig, config_hash, load_config
from .exceptions import (
    ConfigError,
    DataError,
    DegenerateEstimateError,
    DomainError,
    NumericalError,
)
from .estimators import build_report, estimate_D, report_from_true_model, write_ci_csv
from .mc import MC_COLUMNS, McWorkerFailure, one_blas_thread, resolve_workers, run_monte_carlo
from .oracles import laplace_invert_scale
from .series import scale_approx
from .simulate import load_observation, save_observation, simulate
from .tabular import write_csv, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _write_manifest(out: Path, cfg: ExperimentConfig, command: str, seeds: list[int]) -> None:
    manifest = {
        "command": command,
        "config_hash": config_hash(cfg),
        "versions": {
            "qscale": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "seeds": seeds,
    }
    write_json(out / "manifest.json", manifest)


def _out_dir(cfg: ExperimentConfig, args) -> Path:
    out = Path(args.out if args.out else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_compute(cfg: ExperimentConfig, args) -> int:
    cfg.require("laguerre", "x_grid")
    out = _out_dir(cfg, args)
    approx = scale_approx(cfg.model, cfg.laguerre)
    x = cfg.x_grid
    k = approx.kernels(x)
    wk, zk = approx.w_from(k), approx.z_from(k)
    header = ["x", "W_K", "Z_K"]
    cols = [x, wk, zk]
    summary = {}
    if args.oracle:
        res = [laplace_invert_scale(cfg.model, float(xx)) if xx > 0 else None for xx in x]
        w_or = np.array([r.value if r else 0.0 for r in res])
        err = np.array([r.error_estimate if r else 0.0 for r in res])
        header += ["W_oracle", "oracle_err_est"]
        cols += [w_or, err]
        pos = x > 0
        summary["sup_error"] = float(np.max(np.abs(wk[pos] - w_or[pos])))
        summary["sup_W_oracle"] = float(np.max(np.abs(w_or[pos])))
        summary["flagged_nodes"] = int(sum(r.flagged for r in res if r))
    if "csv" in cfg.formats:
        write_csv(out / "w_curve.csv", header, cols)
    if "json" in cfg.formats:
        cs = approx.coeffs
        coeffs = {
            "p": cs.p,
            "a_f": cs.a_f.tolist(),
            "a_F": cs.a_F.tolist(),
            "a_G": cs.a_G.tolist(),
            "theta": {"D": cs.theta.D, "gamma": cs.theta.gamma},
            "laguerre": {"alpha": cfg.laguerre.alpha, "K": cfg.laguerre.K},
        }
        write_json(out / "coeffs.json", coeffs)
        if summary:
            write_json(out / "oracle_summary.json", summary)
    _write_manifest(out, cfg, "compute", [])
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    cfg.require("scheme")
    out = _out_dir(cfg, args)
    obs = simulate(cfg.model, cfg.scheme, cfg.seed)
    save_observation(obs, out / "grid.csv", out / "jumps.csv", out / "observation.json")
    _write_manifest(out, cfg, "simulate", [cfg.seed])
    return EXIT_OK


def cmd_estimate(cfg: ExperimentConfig, args) -> int:
    cfg.require("laguerre", "x_grid")
    out = _out_dir(cfg, args)
    model = cfg.model
    if args.oracle:
        report = report_from_true_model(model, cfg.laguerre, cfg.x_grid)
        seeds = []
    else:
        data = Path(args.data) if args.data else out
        obs = load_observation(
            data / "grid.csv", data / "jumps.csv", data / "observation.json"
        )
        seeds = [obs.seed]
        D_hat = estimate_D(obs, cfg.mc.D_window) if cfg.mc else estimate_D(obs)
        try:
            report = build_report(obs, model.q, model.c, cfg.laguerre, x=cfg.x_grid, D_hat=D_hat)
        except DegenerateEstimateError as exc:
            # degenerate estimates are flagged output, not a failure
            payload = {
                "flags": {"degenerate_estimate": True},
                "error": str(exc),
                "raw_value": exc.raw_value,
                "scheme": obs.scheme.to_dict(),
                "seed": obs.seed,
            }
            write_json(out / "report.json", payload)
            _write_manifest(out, cfg, "estimate", seeds)
            return EXIT_OK
    if "json" in cfg.formats:
        report.save_json(out / "report.json")
    if "csv" in cfg.formats:
        write_ci_csv(out / "ci_curve.csv", report.cov)
    _write_manifest(out, cfg, "estimate", seeds)
    return EXIT_OK


def cmd_mc(cfg: ExperimentConfig, args) -> int:
    cfg.require("laguerre", "scheme", "mc", "x_grid")
    out = _out_dir(cfg, args)
    workers = resolve_workers(cfg.mc.workers, os.environ.get("SCALE_WORKERS"))
    try:
        result = run_monte_carlo(
            cfg.model,
            cfg.scheme,
            cfg.laguerre,
            replications=cfg.mc.replications,
            x_eval=cfg.x_grid,
            base_seed=cfg.seed,
            workers=workers,
            D_window=cfg.mc.D_window,
        )
    except McWorkerFailure as exc:
        _write_mc_table(out / "replications_partial.csv", exc.partial_rows)
        print(f"monte carlo aborted: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    rows = result.rows
    if "csv" in cfg.formats:
        _write_mc_table(out / "replications.csv", rows)
    if "json" in cfg.formats:
        write_json(out / "mc_summary.json", result.summary)
    seeds = [row["seed"] for row in rows]
    _write_manifest(out, cfg, "mc", seeds)
    failed = [r for r in rows if r["failed"]]
    if failed and len(failed) == len(rows):
        print(f"all {len(rows)} replications failed", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _write_mc_table(path: Path, rows: list[dict]) -> None:
    table_cols: dict[str, list] = {name: [] for name in MC_COLUMNS}
    for row in rows:
        for name in MC_COLUMNS:
            if name == "failed":
                table_cols[name].append(1 if row["failed"] else 0)
            else:
                table_cols[name].append(row.get(name, float("nan")))
    write_csv(path, MC_COLUMNS, [table_cols[n] for n in MC_COLUMNS])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scale",
        description="q-scale functions of spectrally negative Levy processes: "
        "computation, simulation, estimation, Monte Carlo studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("compute", cmd_compute),
        ("simulate", cmd_simulate),
        ("estimate", cmd_estimate),
        ("mc", cmd_mc),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        if name in ("compute", "estimate"):
            p.add_argument("--oracle", action="store_true",
                           help="compute: add inversion-oracle columns; "
                                "estimate: use true model values")
        if name == "estimate":
            p.add_argument("--data", default=None,
                           help="directory with grid.csv/jumps.csv/observation.json")
        p.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        with one_blas_thread():
            return args.fn(cfg, args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, DataError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
