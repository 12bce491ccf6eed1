"""Monte Carlo driver: replicated simulate -> estimate runs with summaries.

Each replication r simulates with seed base_seed + r (Philox streams are
independent across keys, and replication 0 reproduces a direct run with the
base seed), estimates the full pipeline, and reports scalars.  Aggregation
happens in fixed replication order so reruns are byte-identical; workers only
change wall time, never results.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .exceptions import ConfigError, DegenerateEstimateError, NumericalError
from .laguerre import LaguerreParams
from .levy import LevyModel
from .series import ScaleApprox, coeffs_true
from .simulate import SamplingScheme, replication_seed, simulate
from .estimators import build_report

__all__ = [
    "MCResult",
    "McWorkerFailure",
    "TrueValues",
    "true_values",
    "run_replication",
    "run_monte_carlo",
    "resolve_workers",
]


class McWorkerFailure(NumericalError):
    """A replication worker died unexpectedly; completed rows are attached."""

    def __init__(self, cause: BaseException, partial_rows: list[dict]):
        super().__init__(f"replication worker failed: {cause!r}")
        self.partial_rows = partial_rows

# fixed column order of the per-replication table
MC_COLUMNS = [
    "rep", "seed", "n_jumps", "D_hat", "gamma_hat", "p_hat", "v_gamma_sq", "failed",
]


@dataclass(frozen=True)
class TrueValues:
    """Population targets the summaries compare against (fixed K estimand)."""

    D: float
    gamma: float
    p: float
    W_K: np.ndarray  # W_K at x_eval with true parameters
    Z_K: np.ndarray


def true_values(model: LevyModel, params: LaguerreParams, x_eval) -> TrueValues:
    x_eval = np.atleast_1d(np.asarray(x_eval, dtype=float))
    coeffs = coeffs_true(model, params)
    approx = ScaleApprox(c=model.c, q=model.q, coeffs=coeffs)
    k = approx.kernels(x_eval)
    return TrueValues(
        D=model.D,
        gamma=coeffs.theta.gamma,
        p=coeffs.p,
        W_K=approx.w_from(k),
        Z_K=approx.z_from(k),
    )


def run_replication(
    model: LevyModel,
    scheme: SamplingScheme,
    params: LaguerreParams,
    seed: int,
    x_eval,
    level: float = 0.95,
    D_window: float = 1.0,
) -> dict:
    """One simulate -> estimate pass; returns a flat row of scalars/arrays."""
    obs = simulate(model, scheme, seed)
    try:
        rep = build_report(
            obs, model.q, model.c, params, x=x_eval, level=level, D_window=D_window
        )
    except (DegenerateEstimateError, NumericalError) as exc:
        return {"seed": seed, "failed": str(exc), "n_jumps": len(obs.jump_sizes)}
    cov = rep.cov
    return {
        "seed": seed,
        "failed": "",
        "n_jumps": rep.n_jumps,
        "D_hat": rep.D_hat_raw,
        "gamma_hat": rep.gamma_hat,
        "p_hat": rep.p_hat,
        "v_gamma_sq": cov.v_gamma_sq,
        "W_hat": np.asarray(cov.W_hat),
        "Z_hat": np.asarray(cov.Z_hat),
        "W_lo": np.asarray(cov.W_lo),
        "W_hi": np.asarray(cov.W_hi),
        "Z_lo": np.asarray(cov.Z_lo),
        "Z_hi": np.asarray(cov.Z_hi),
    }


def resolve_workers(requested: int, env: str | None = None) -> int:
    """Worker processes for a Monte Carlo run, clamped to [1, usable cores].

    ``env`` is the SCALE_WORKERS value; when set and non-empty it overrides
    ``requested``.
    """
    if env:
        try:
            requested = int(env)
        except ValueError:
            raise ConfigError(f"SCALE_WORKERS must be an integer, got {env!r}") from None
    return max(1, min(requested, len(os.sched_getaffinity(0))))


def _worker(args) -> tuple[int, dict]:
    rep_idx, model, scheme, params, seed, x_eval, level, D_window = args
    return rep_idx, run_replication(model, scheme, params, seed, x_eval, level, D_window)


@dataclass
class MCResult:
    rows: list[dict]          # in replication order; failures keep their slot
    summary: dict
    x_eval: np.ndarray
    truth: TrueValues


def _ad_critical_1pct(n: int) -> float:
    """1% Anderson-Darling normality critical value: Stephens (1974), case 3, as scipy rounds it."""
    return float(np.around(1.035 / (1.0 + 0.75 / n + 2.25 / n / n), 3))


def run_monte_carlo(
    model: LevyModel,
    scheme: SamplingScheme,
    params: LaguerreParams,
    replications: int,
    x_eval,
    base_seed: int = 0,
    workers: int = 1,
    level: float = 0.95,
    D_window: float = 1.0,
) -> MCResult:
    """Replicated estimation study with bias/SE/RMSE, CI coverage, and a
    normality screen for the standardized gamma errors.

    D_window is the realized-variance window for D_hat.  The plug-in CLT
    covariance treats D_hat noise as negligible at the sqrt(T) scale; under
    the n = T^2 schemes that requires a window growing with T (window = T
    restores it), while sqrt(T)-rate checks for D_hat itself use the fixed
    default.
    """
    x_eval = np.atleast_1d(np.asarray(x_eval, dtype=float))
    truth = true_values(model, params, x_eval)
    payloads = [
        (r, model, scheme, params, replication_seed(base_seed, r), x_eval, level, D_window)
        for r in range(replications)
    ]
    rows: list[dict | None] = [None] * replications
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for rep_idx, row in pool.map(_worker, payloads, chunksize=4):
                    rows[rep_idx] = row
        else:
            for payload in payloads:
                rep_idx, row = _worker(payload)
                rows[rep_idx] = row
    except Exception as exc:
        done = [row for row in rows if row is not None]
        raise McWorkerFailure(exc, partial_rows=done) from exc
    for r, row in enumerate(rows):
        row["rep"] = r

    ok = [row for row in rows if not row["failed"]]
    summary: dict = {
        "replications": replications,
        "failures": replications - len(ok),
        "T": scheme.T,
        "level": level,
        "x_eval": x_eval.tolist(),
        "D_window": D_window,
    }
    if ok:
        sqT = np.sqrt(scheme.T)
        for name, target in (("D_hat", truth.D), ("gamma_hat", truth.gamma), ("p_hat", truth.p)):
            vals = np.array([row[name] for row in ok])
            se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
            summary[name] = {
                "mean": float(vals.mean()),
                "bias": float(vals.mean() - target),
                "se_of_mean": se,
                "sd": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
                "rmse": float(np.sqrt(np.mean((vals - target) ** 2))),
                "true": float(target),
            }
        # coverage of the level-CIs for the fixed-K estimands W_K, Z_K
        W_lo = np.stack([row["W_lo"] for row in ok])
        W_hi = np.stack([row["W_hi"] for row in ok])
        Z_lo = np.stack([row["Z_lo"] for row in ok])
        Z_hi = np.stack([row["Z_hi"] for row in ok])
        summary["coverage_W"] = np.mean(
            (W_lo <= truth.W_K[None, :]) & (truth.W_K[None, :] <= W_hi), axis=0
        ).tolist()
        summary["coverage_Z"] = np.mean(
            (Z_lo <= truth.Z_K[None, :]) & (truth.Z_K[None, :] <= Z_hi), axis=0
        ).tolist()
        W_hat = np.stack([row["W_hat"] for row in ok])
        summary["W_sup_err"] = {
            "median": float(np.median(np.max(np.abs(W_hat - truth.W_K[None, :]), axis=1))),
        }
        # standardized gamma errors: sqrt(T) (gamma_hat - gamma_0) / v_hat
        gam = np.array([row["gamma_hat"] for row in ok])
        v2 = np.array([row["v_gamma_sq"] for row in ok])
        if truth.gamma > 0 and np.all(v2 > 0) and len(ok) >= 20:
            zscores = sqT * (gam - truth.gamma) / np.sqrt(v2)
            ad_stat = float(stats.anderson(zscores, dist="norm", method="interpolate").statistic)
            crit_1pct = _ad_critical_1pct(len(zscores))
            summary["gamma_normality"] = {
                "ad_statistic": ad_stat,
                "ad_critical_1pct": crit_1pct,
                "ad_pass_1pct": bool(ad_stat < crit_1pct),
                "dagostino_p": float(stats.normaltest(zscores).pvalue),
                "z_var": float(zscores.var(ddof=1)),
            }
            summary["gamma_scaled_var"] = {
                "empirical": float((sqT * (gam - truth.gamma)).var(ddof=1)),
                "mean_plugin_v2": float(v2.mean()),
            }
    return MCResult(rows=rows, summary=summary, x_eval=x_eval, truth=truth)
