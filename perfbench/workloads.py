"""The three benchmark workloads.

Each workload builds its inputs from the workload seed, runs one closed-loop
operation per call of ``op(i)`` and checks that operation's outputs in
``check(i, out)``.  Operations call the program through module attributes
(``series.scale_approx``, ``mc.run_replication``, ``cli.main``) so that the
traced run, which rebinds those attributes, sees every call.

``w_max_rel_err`` is the sup-norm error of the series ``W_K`` against the
Talbot inversion oracle, relative to the oracle's sup over x > 0, for the
curves the workload evaluates (none of the benchmark's models has a closed
form).  On ``curve`` it comes from the timed operations' outputs; on
``mc_t1600`` and ``roundtrip`` it is the true-model ``W_K`` at the
workload's K and x grid, computed during set-up.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from qscale import cli, mc, oracles, series
from qscale.laguerre import LaguerreParams
from qscale.levy import (
    CompoundPoissonExponential,
    CompoundPoissonGamma,
    GammaSubordinator,
    LevyModel,
)
from qscale.simulate import make_scheme

# acceptance criterion 2: sup |W_K - W| <= 1e-2 * sup |W| on x > 0
W_TOL = 1e-2

# the acceptance model: Exp(1) jumps at rate 1, D = 0.5 (tests/test_acceptance.py)
ACC_MODEL = LevyModel(
    x0=0.0, c=1.5, D=0.5, jumps=CompoundPoissonExponential(rate=1.0, jump_mean=1.0), q=0.1
)
# the three jump families of tests/conftest.py
FAMILIES = {
    "exponential": ACC_MODEL,
    "gamma_subordinator": LevyModel(
        x0=0.0, c=1.5, D=0.3, jumps=GammaSubordinator(shape=0.5, rate=1.0), q=0.2
    ),
    "cp_gamma": LevyModel(
        x0=0.0, c=2.0, D=0.0, jumps=CompoundPoissonGamma(rate=1.0, shape=2.0, scale=0.4),
        q=0.05,
    ),
}
X_GRID = np.linspace(0.0, 10.0, 201)


class CheckFailed(Exception):
    """An operation returned output that fails the benchmark's correctness check."""


def op_seed(seed: int, i: int) -> int:
    """Program seed of operation i; distinct for every (workload seed, i < 100000)."""
    return seed * 100_000 + i


def talbot_W(model: LevyModel, x: np.ndarray) -> np.ndarray:
    """Oracle W^(q) at x > 0 by fixed-Talbot inversion."""
    return np.array([oracles.laplace_invert_scale(model, float(xx)).value for xx in x])


def rel_sup_err(w: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(w - ref)) / np.max(np.abs(ref)))


def _check_interval(name: str, lo, mid, hi) -> None:
    lo, mid, hi = (np.asarray(v, dtype=float) for v in (lo, mid, hi))
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(mid)) and np.all(np.isfinite(hi))):
        raise CheckFailed(f"{name}: non-finite estimate or bound")
    if not np.all((lo <= mid) & (mid <= hi)):
        raise CheckFailed(f"{name}: estimate outside its confidence interval")


class Curve:
    """`scale compute`: one curve of the 3-family x K in {20, 40, 64} mix per op.

    Every pass of nine operations evaluates each curve once, in an order
    drawn from the seed.
    """

    name = "curve"
    pass_ops = 9

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.mix = [(fam, K) for fam in FAMILIES for K in (20, 40, 64)]
        pos = X_GRID > 0
        self.refs = {fam: talbot_W(model, X_GRID[pos]) for fam, model in FAMILIES.items()}
        self.w_max_rel_err = 0.0

    def warm_up(self) -> None:
        # one pass: the first evaluation of each (family, K) runs slower
        for entry in self.mix:
            self.check(-1, self._run(*entry))

    def _run(self, fam: str, K: int):
        approx = series.scale_approx(FAMILIES[fam], LaguerreParams(1.0, K))
        return fam, K, approx.w(X_GRID), approx.z(X_GRID)

    def op(self, i: int):
        p, j = divmod(i, self.pass_ops)
        order = np.random.default_rng([self.seed, p]).permutation(self.pass_ops)
        return self._run(*self.mix[order[j]])

    def check(self, i: int, out) -> None:
        fam, K, w, z = out
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(z))):
            raise CheckFailed(f"{fam} K={K}: non-finite W_K or Z_K")
        err = rel_sup_err(w[X_GRID > 0], self.refs[fam])
        if err > W_TOL:
            raise CheckFailed(f"{fam} K={K}: sup error {err:.3e} of W_K above {W_TOL}")
        self.w_max_rel_err = max(self.w_max_rel_err, err)

    def close(self) -> None:
        pass


class McT1600:
    """Criterion-7 replication: simulate + estimate at T = 1600, K = 20."""

    name = "mc_t1600"
    pass_ops = 5
    x_eval = np.array([1.0, 3.0])
    params = LaguerreParams(1.0, 20)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.scheme = make_scheme(1600.0)
        true_W = series.scale_approx(ACC_MODEL, self.params).w(self.x_eval)
        self.w_max_rel_err = rel_sup_err(true_W, talbot_W(ACC_MODEL, self.x_eval))

    def warm_up(self) -> None:
        # the first replications run slower while the allocator settles on
        # the 2.56M-point grid arrays
        for i in range(3):
            self.check(i, self.op(i))

    def op(self, i: int) -> dict:
        return mc.run_replication(
            ACC_MODEL, self.scheme, self.params, op_seed(self.seed, i), self.x_eval,
            D_window=1600.0,
        )

    def check(self, i: int, row: dict) -> None:
        if row["failed"]:
            raise CheckFailed(f"replication {i} failed: {row['failed']}")
        scalars = [row[k] for k in ("D_hat", "gamma_hat", "p_hat", "v_gamma_sq")]
        if not np.all(np.isfinite(scalars)):
            raise CheckFailed(f"replication {i}: non-finite scalar estimate")
        _check_interval("W", row["W_lo"], row["W_hat"], row["W_hi"])
        _check_interval("Z", row["Z_lo"], row["Z_hat"], row["Z_hi"])

    def close(self) -> None:
        pass


class Roundtrip:
    """`scale simulate` then `scale estimate` at T = 400, K = 40, 201 x points.

    The byte-identity check simulates a second time, which costs almost as
    much as the operation, so it runs on the first operation of each pass.
    """

    name = "roundtrip"
    pass_ops = 5
    K = 40

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.dir = Path(tempfile.mkdtemp(prefix="roundtrip-", dir=work_dir))
        pos = X_GRID > 0
        true_W = series.scale_approx(ACC_MODEL, LaguerreParams(1.0, self.K)).w(X_GRID[pos])
        self.w_max_rel_err = rel_sup_err(true_W, talbot_W(ACC_MODEL, X_GRID[pos]))

    def warm_up(self) -> None:
        self.check(0, self.op(0))

    def _config(self, i: int) -> str:
        cfg = {
            "model": {
                "x0": 0.0, "c": 1.5, "D": 0.5, "q": 0.1,
                "jumps": {"kind": "compound-poisson-exponential", "rate": 1.0, "jump_mean": 1.0},
            },
            "laguerre": {"alpha": 1.0, "K": self.K},
            "scheme": {"T": 400, "a": 1.0, "rho": 0.49, "c_eps": 1.0, "seed": op_seed(self.seed, i)},
            "output": {"directory": str(self.dir / "run"), "formats": ["csv", "json"]},
            "x_grid": {"min": 0.0, "max": 10.0, "points": len(X_GRID)},
        }
        path = self.dir / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def op(self, i: int):
        cfg = self._config(i)
        return (
            cli.main(["simulate", "--config", cfg]),
            cli.main(["estimate", "--config", cfg]),
        )

    def check(self, i: int, codes) -> None:
        if codes != (cli.EXIT_OK, cli.EXIT_OK):
            raise CheckFailed(f"simulate/estimate exit codes {codes}")
        run = self.dir / "run"
        try:
            curves = json.loads((run / "report.json").read_text())["curves"]
        except (ValueError, KeyError) as exc:
            raise CheckFailed(f"report.json does not parse: {exc!r}") from exc
        if len(curves["W_hat"]) != len(X_GRID):
            raise CheckFailed("report.json: W_hat has the wrong length")
        _check_interval("W", curves["W_lo"], curves["W_hat"], curves["W_hi"])
        if i % self.pass_ops:
            return
        again = self.dir / "again"
        code = cli.main(["simulate", "--config", self._config(i), "--out", str(again)])
        if code != cli.EXIT_OK:
            raise CheckFailed(f"second simulate exit code {code}")
        for name in ("grid.csv", "jumps.csv"):
            if (run / name).read_bytes() != (again / name).read_bytes():
                raise CheckFailed(f"{name} differs between two simulate runs with one seed")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Curve, McT1600, Roundtrip)}


def make(name: str, seed: int, work_dir: Path):
    """Set up workload `name`: inputs, references and warm-up."""
    wl = WORKLOADS[name](seed, work_dir)
    try:
        wl.warm_up()
    except BaseException:
        wl.close()
        raise
    return wl
