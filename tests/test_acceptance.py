"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion.  The Monte Carlo criteria (6, 7) share session-scoped replication
runs; on two cores the whole module takes a few minutes.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from qscale.cli import main as cli_main
from qscale.laguerre import LaguerreParams, partial_sum
from qscale.levy import (
    CompoundPoissonExponential,
    LevyModel,
    NoJumps,
    laplace_exponent,
    laplace_exponent_deriv,
    lundberg_exponent,
)
from qscale.oracles import compound_geometric_grid, ftilde_q, laplace_invert_scale
from qscale.series import (
    build_Af,
    coeffs_true,
    p_value,
    scale_approx,
)
from qscale.simulate import make_scheme, simulate
from qscale.estimators import build_report
from qscale.mc import run_monte_carlo

WORKERS = 2
ACC_MODEL = LevyModel(
    x0=0.0, c=1.5, D=0.5, jumps=CompoundPoissonExponential(rate=1.0, jump_mean=1.0), q=0.1
)
CL_MODEL_Q0 = LevyModel(
    x0=0.0, c=1.5, D=0.0, jumps=CompoundPoissonExponential(rate=1.0, jump_mean=1.0), q=0.0
)


def criterion(name: str, cond: bool, detail: str = "") -> None:
    print(f"\n[acceptance] {name}: {'PASS' if cond else 'FAIL'}  {detail}")
    assert cond, f"{name}: {detail}"


@pytest.fixture(scope="module")
def mc_t400():
    # criterion 6: sqrt(T)-rate run at T = 400 with the default D window
    return run_monte_carlo(
        ACC_MODEL, make_scheme(400.0), LaguerreParams(1.0, 20),
        replications=200, x_eval=[1.0, 3.0], base_seed=614_000,
        workers=WORKERS, D_window=1.0,
    )


@pytest.fixture(scope="module")
def mc_t1600():
    # criterion 6: the T = 1600 leg, same estimator settings
    return run_monte_carlo(
        ACC_MODEL, make_scheme(1600.0), LaguerreParams(1.0, 20),
        replications=200, x_eval=[1.0, 3.0], base_seed=614_160,
        workers=WORKERS, D_window=1.0,
    )


@pytest.fixture(scope="module")
def mc_t1600_clt():
    # criterion 7: CLT-regime run; the full-sample D window keeps
    # sqrt(T) (D_hat - D_0) negligible, matching the hypothesis under which
    # the plug-in covariance is derived (the n = T^2 scheme has n delta^2 = 1,
    # so the fixed unit window would leave D_hat noise at the CLT order)
    return run_monte_carlo(
        ACC_MODEL, make_scheme(1600.0), LaguerreParams(1.0, 20),
        replications=500, x_eval=[1.0, 3.0], base_seed=614_700,
        workers=WORKERS, D_window=1600.0,
    )


def test_criterion_1_laplace_identity():
    start = time.time()
    q = ACC_MODEL.q
    gamma = lundberg_exponent(ACC_MODEL, q)
    approx = scale_approx(ACC_MODEL, LaguerreParams(1.0, 40))
    # e^{(Phi - theta) x_max} < 1e-6 for the smallest shift 0.5
    x_max = np.log(1e6) / 0.5
    xs = np.linspace(0.0, x_max, 6001)
    wk = approx.w(xs)
    from scipy.integrate import simpson

    worst = 0.0
    for shift in (0.5, 1.0, 2.0):
        theta = gamma + shift
        lhs = simpson(np.exp(-theta * xs) * wk, x=xs)
        rhs = 1.0 / (laplace_exponent(ACC_MODEL, theta) - q)
        worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.time() - start
    criterion(
        "1 Laplace identity",
        worst <= 1e-2 and elapsed < 10.0,
        f"max rel err {worst:.2e} (tol 1e-2), {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_2_oracle_agreement():
    start = time.time()
    xs = np.linspace(0.0, 10.0, 41)
    pos = xs > 0
    w_talbot = np.zeros_like(xs)
    w_talbot[pos] = [laplace_invert_scale(ACC_MODEL, float(x)).value for x in xs[pos]]
    sup_oracle = np.max(np.abs(w_talbot))
    errs = {}
    for K in (10, 40):
        ap = scale_approx(ACC_MODEL, LaguerreParams(1.0, K))
        errs[K] = np.max(np.abs(ap.w(xs) - w_talbot))
    elapsed = time.time() - start
    criterion(
        "2 Oracle agreement",
        errs[40] <= 1e-2 * sup_oracle and errs[40] <= errs[10] and elapsed < 30.0,
        f"err(K=40) {errs[40]:.2e} <= 1e-2*sup {1e-2 * sup_oracle:.2e}, "
        f"err(K=10) {errs[10]:.2e}, {elapsed:.1f}s (< 30 s)",
    )


def test_criterion_3_brownian_exact():
    model = LevyModel(x0=0.0, c=1.5, D=0.5, jumps=NoJumps(), q=0.1)
    gamma = lundberg_exponent(model, model.q)
    beta = model.c / model.D + gamma
    xs = np.linspace(0.0, 10.0, 201)
    want = (np.exp(gamma * xs) - np.exp(-beta * xs)) / (model.D * (beta + gamma))
    worst = 0.0
    for K in (0, 5, 40):
        ap = scale_approx(model, LaguerreParams(1.0, K))
        worst = max(worst, float(np.max(np.abs(ap.w(xs) - want))))
    criterion("3 Brownian degenerate case", worst <= 1e-12, f"max abs err {worst:.2e}")


def test_criterion_4_compound_geometric_oracle():
    # exponential f_q: the Cramer-Lundberg q=0 model has f_q = Exp(mu) exactly
    model = CL_MODEL_Q0
    theta = model.theta0()
    p = p_value(model, theta)  # 2/3
    mu_tilde = 1.0
    h = 0.01
    xs_grid = np.arange(0.0, 40.0 + h / 2, h)
    f = ftilde_q(model, theta, xs_grid) / p
    oracle = compound_geometric_grid(f, p, h)
    analytic = p * np.exp(-mu_tilde * (1 - p) * oracle.x)
    err_grid = float(np.max(np.abs(oracle.tail - analytic)))

    cs = coeffs_true(model, LaguerreParams(1.0, 40))
    probe = np.linspace(0.0, 10.0, 201)
    err_lag = float(
        np.max(np.abs(partial_sum(cs.a_G, cs.params, probe) - oracle.tail_at(probe)))
    )
    criterion(
        "4 Compound-geometric oracle",
        err_grid <= 1e-4 and err_lag <= 2e-2,
        f"grid vs analytic {err_grid:.2e} (tol 1e-4), "
        f"Laguerre vs grid {err_lag:.2e} (tol 2e-2)",
    )


def test_criterion_5_ruin_identity():
    model = CL_MODEL_Q0
    theta = model.theta0()
    p = p_value(model, theta)
    h = 0.01
    xs_grid = np.arange(0.0, 40.0 + h / 2, h)
    f = ftilde_q(model, theta, xs_grid) / p
    oracle = compound_geometric_grid(f, p, h)
    ap = scale_approx(model, LaguerreParams(1.0, 40))
    probe = np.linspace(0.0, 10.0, 201)
    ruin_K = 1.0 - laplace_exponent_deriv(model, 0.0) * ap.w(probe)
    err = float(np.max(np.abs(ruin_K - oracle.tail_at(probe))))
    criterion("5 Ruin identity (q=0)", err <= 2e-2, f"sup err {err:.2e} (tol 2e-2)")


def test_criterion_6_estimator_rate(mc_t400, mc_t1600):
    start = time.time()
    ratios = {}
    for name in ("D_hat", "gamma_hat", "p_hat"):
        ratios[name] = mc_t400.summary[name]["rmse"] / mc_t1600.summary[name]["rmse"]
    ok = all(1.4 <= r <= 2.8 for r in ratios.values())
    detail = ", ".join(f"{k}: {v:.2f}" for k, v in ratios.items())
    criterion(
        "6 Estimator sqrt(T) rate",
        ok,
        f"RMSE(400)/RMSE(1600) in [1.4, 2.8]: {detail}",
    )


def test_w_sup_error_sqrtT_rate(mc_t400, mc_t1600):
    # not an acceptance criterion: the sup|W_hat - W_K| medians should also
    # improve at the sqrt(T) rate between the two runs
    ratio = mc_t400.summary["W_sup_err"]["median"] / mc_t1600.summary["W_sup_err"]["median"]
    assert 1.4 <= ratio <= 2.8


def test_criterion_7_normality_and_coverage(mc_t1600_clt):
    s = mc_t1600_clt.summary
    gamma0 = mc_t1600_clt.truth.gamma
    g = ACC_MODEL
    nu_k2 = 1 / (1 + 2 * gamma0) - 2 / (1 + gamma0) + 1
    psi_p = g.c + 2 * g.D * gamma0 - g.jumps.exp_moment(gamma0)
    v0_sq = nu_k2 / psi_p**2
    emp_var = s["gamma_scaled_var"]["empirical"]
    var_ok = abs(emp_var - v0_sq) <= 0.3 * v0_sq
    cov = s["coverage_W"]
    cov_ok = all(0.90 <= c <= 0.98 for c in cov)
    criterion(
        "7 Asymptotic normality and CIs",
        var_ok and cov_ok and s["failures"] == 0,
        f"var sqrt(T) gamma_hat {emp_var:.4f} vs v0^2 {v0_sq:.4f} (+/-30%), "
        f"coverage W at x=1,3: {[round(c, 3) for c in cov]} in [0.90, 0.98]",
    )


def test_criterion_8_structural_invariants(tmp_path):
    checks: list[tuple[str, bool]] = []

    # triangular-solve residual <= 1e-12
    params = LaguerreParams(1.0, 40)
    cs = coeffs_true(ACC_MODEL, params)
    A = build_Af(cs.a_f, params.alpha)
    resid = float(np.max(np.abs(A @ cs.a_G - cs.a_F)))
    checks.append(("solve residual", resid <= 1e-12 * max(1.0, np.max(np.abs(cs.a_F)))))

    # Gram orthonormality <= 1e-8 (Gauss-Legendre panels on [0, 60/alpha])
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(0.0, 60.0, 61)
    xs = np.concatenate([0.5 * (hi - lo) * nodes + 0.5 * (lo + hi) for lo, hi in zip(edges[:-1], edges[1:])])
    ws = np.concatenate([0.5 * (hi - lo) * weights for lo, hi in zip(edges[:-1], edges[1:])])
    from qscale.laguerre import laguerre_fn_all

    phi = laguerre_fn_all(LaguerreParams(1.0, 20), xs)
    gram_err = float(np.max(np.abs((phi * ws) @ phi.T - np.eye(21))))
    checks.append(("Gram orthonormality", gram_err <= 1e-8))

    # |phi_{alpha,k}| <= sqrt(2 alpha)
    rng = np.random.default_rng(8)
    bound_ok = True
    for alpha in (0.5, 1.0, 2.0):
        pts = rng.uniform(0.0, 100.0, 500)
        vals = laguerre_fn_all(LaguerreParams(alpha, 64), pts)
        bound_ok &= bool(np.all(np.abs(vals) <= np.sqrt(2 * alpha) * (1 + 1e-12)))
    checks.append(("basis bound", bound_ok))

    # gamma_hat = 0 exactly at q = 0
    obs = simulate(CL_MODEL_Q0, make_scheme(100.0), seed=88)
    rep_q0 = build_report(obs, 0.0, CL_MODEL_Q0.c, LaguerreParams(1.0, 10), x=[1.0])
    checks.append(("gamma_hat == 0 at q=0", rep_q0.gamma_hat == 0.0))

    # Gamma block structure
    obs2 = simulate(ACC_MODEL, make_scheme(100.0), seed=89)
    rep = build_report(obs2, ACC_MODEL.q, ACC_MODEL.c, LaguerreParams(1.0, 10), x=[1.0])
    G = rep.cov.Gamma
    d = G.shape[0]
    gamma_ok = (
        np.array_equal(G[: d - 1, : d - 1], np.eye(d - 1))
        and G[d - 1, d - 1] == 1.0
        and np.all(G[d - 1, : d - 1] == 0.0)
    )
    checks.append(("Gamma structure", gamma_ok))

    # deterministic reruns byte-identical (CLI level)
    cfg = {
        "model": {
            "x0": 0.0, "c": 1.5, "D": 0.5, "q": 0.1,
            "jumps": {"kind": "compound-poisson-exponential", "rate": 1.0, "jump_mean": 1.0},
        },
        "laguerre": {"alpha": 1.0, "K": 10},
        "scheme": {"T": 50, "a": 1.0, "rho": 0.49, "c_eps": 1.0, "seed": 21},
        "mc": {"replications": 2, "workers": 1},
        "output": {"directory": str(tmp_path / "out")},
        "x_grid": {"min": 0.0, "max": 5.0, "points": 6},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    byte_ok = True
    for command in ("simulate", "mc"):
        dirs = [tmp_path / f"{command}_{i}" for i in (1, 2)]
        for d_out in dirs:
            assert cli_main([command, "--config", str(cfg_path), "--out", str(d_out)]) == 0
        for f in sorted(p.name for p in dirs[0].iterdir()):
            byte_ok &= (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
    checks.append(("byte-identical reruns", byte_ok))

    ok = all(c for _, c in checks)
    detail = "; ".join(f"{name}: {'ok' if c else 'FAIL'}" for name, c in checks)
    criterion("8 Structural invariants", ok, detail)
