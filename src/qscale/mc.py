"""Monte Carlo driver: replicated simulate -> estimate runs with summaries.

Each replication r simulates with seed base_seed + r (Philox streams are
independent across keys), estimates the full pipeline, and reports scalars.
A replication never builds the grid: ``simulate_window`` draws the jumps and
the sum of squared increments on [0, D_window] directly, in time and memory
O(#jumps).  Replication r therefore matches a direct ``scale simulate`` +
``scale estimate`` run with the same seed in its jumps exactly, and in D_hat
(and what follows from it) in law: the Gaussian part of the sum is a draw of
its own.  With D = 0 there is no Gaussian part, and D_hat agrees to rounding.
Aggregation happens in fixed replication order so reruns are byte-identical;
workers only change wall time, never results.  A replication runs its linear
algebra on one BLAS thread (``one_blas_thread``): its matrices are at most
(2K+4) x #jumps, too small for threads to pay for their wake-ups.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy import stats

from .exceptions import ConfigError, DegenerateEstimateError, NumericalError
from .laguerre import LaguerreParams
from .levy import LevyModel
from .series import scale_approx
from .simulate import SamplingScheme, replication_seed, simulate_window, window_steps
from .estimators import LEVEL, build_report, realized_D

__all__ = [
    "MCResult",
    "McWorkerFailure",
    "TrueValues",
    "true_values",
    "run_replication",
    "run_monte_carlo",
    "resolve_workers",
    "one_blas_thread",
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
    approx = scale_approx(model, params)
    k = approx.kernels(x_eval)
    return TrueValues(
        D=model.D,
        gamma=approx.coeffs.theta.gamma,
        p=approx.coeffs.p,
        W_K=approx.w_from(k),
        Z_K=approx.z_from(k),
    )


def run_replication(
    model: LevyModel,
    scheme: SamplingScheme,
    params: LaguerreParams,
    seed: int,
    x_eval,
    *,
    D_window: float,
) -> dict:
    """One simulate -> estimate pass; returns a flat row of scalars/arrays."""
    with one_blas_thread():
        sample, sum_sq = simulate_window(model, scheme, seed, D_window)
        D_hat = realized_D(sample, sum_sq, D_window)
        try:
            rep = build_report(sample, model.q, model.c, params, x=x_eval, D_hat=D_hat)
        except (DegenerateEstimateError, NumericalError) as exc:
            return {"seed": seed, "failed": str(exc), "n_jumps": len(sample.jump_sizes)}
        est, cov = rep.est, rep.cov
        return {
            "seed": seed,
            "failed": "",
            "n_jumps": rep.n_jumps,
            "D_hat": est.D_raw,
            "gamma_hat": est.theta.gamma,
            "p_hat": est.p,
            "v_gamma_sq": est.v_gamma_sq,
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


@functools.cache
def _openblas_threads() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS that numpy and scipy load.

    The wheels ship them as ``<pkg>.libs/lib*openblas*.so*``, with the symbols
    prefixed ``scipy_`` and suffixed ``64_`` in the ILP64 build.  Loading a
    path numpy or scipy has already loaded returns that same library.
    """
    found = []
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("lib*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for stem in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                         "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
                get = getattr(lib, stem.format("get"), None)
                set_ = getattr(lib, stem.format("set"), None)
                if get is not None and set_ is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    found.append((get, set_))
                    break
    return tuple(found)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every OpenBLAS of numpy and scipy on one thread.

    Every matrix the pipeline hands to BLAS/LAPACK is at most (2K+4) x #jumps;
    at those sizes the other threads, which wake and spin around every call,
    cost more than they save.  The previous counts are restored on exit;
    without an OpenBLAS this does nothing.
    """
    libs = _openblas_threads()
    before = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(libs, before):
            set_(n)


@dataclass
class MCResult:
    rows: list[dict]          # in replication order, "rep" set; failures keep their slot
    summary: dict
    x_eval: np.ndarray
    truth: TrueValues


def _collect(rows: list[dict], results) -> None:
    """Append each replication row as it arrives, numbering it by arrival."""
    for row in results:
        row["rep"] = len(rows)
        rows.append(row)


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
    *,
    D_window: float,
) -> MCResult:
    """Replicated estimation study with bias/SE/RMSE, CI coverage, and a
    normality screen for the standardized gamma errors.

    D_window is the realized-variance window for D_hat.  The plug-in CLT
    covariance treats D_hat noise as negligible at the sqrt(T) scale; under
    the n = T^2 schemes that requires a window growing with T (window = T
    restores it), while sqrt(T)-rate checks for D_hat itself use a fixed
    window of 1.  A window the grid cannot hold raises DomainError before any
    replication runs.
    """
    window_steps(scheme, D_window)
    x_eval = np.atleast_1d(np.asarray(x_eval, dtype=float))
    truth = true_values(model, params, x_eval)
    run = functools.partial(
        run_replication, model, scheme, params, x_eval=x_eval, D_window=D_window
    )
    seeds = [replication_seed(base_seed, r) for r in range(replications)]
    # map and pool.map both yield rows in replication order
    rows: list[dict] = []
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                _collect(rows, pool.map(run, seeds, chunksize=4))
        else:
            _collect(rows, map(run, seeds))
    except Exception as exc:
        raise McWorkerFailure(exc, partial_rows=rows) from exc

    ok = [row for row in rows if not row["failed"]]
    summary: dict = {
        "replications": replications,
        "failures": replications - len(ok),
        "T": scheme.T,
        "level": LEVEL,
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
        # coverage of the LEVEL CIs for the fixed-K estimands W_K, Z_K
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
