"""Discretely observed trajectories under the high-frequency sampling scheme.

An observation consists of the grid samples X_{i * delta}, i = 0..n, plus the
set of jumps exceeding the threshold eps.  Large jumps are taken as directly
observed (think recorded insurance claims), never reconstructed from
increments.  ``simulate`` and ``simulate_window`` take the jumps from the
model's jump family (``JumpMeasure.draw_jumps`` in ``levy``), the zero
measure included: none for ``NoJumps``, exactly for the compound Poisson
families, and for the gamma subordinator exactly above the cutoff eps / 10,
with the jumps below it replaced by their mean drift.

Randomness comes from Philox (counter-based) streams keyed by the seed, so
replications parallelize reproducibly; identical (model, scheme, seed) give
bit-identical observations.  Draw order is fixed: jump count, jump times,
jump sizes, then Gaussian increments.

The estimators read the grid only through the sum of squared increments on
[0, window].  ``simulate_window`` draws that sum without building the path:
its jumps equal those of ``simulate`` with the same seed (the same stream
prefix), the increments that hold a jump are drawn one by one, and the
squared sum of the jump-free ones is one noncentral chi-square draw.  So its
sum equals the grid's in law, not draw for draw; with D = 0 nothing is
random and the two agree to rounding.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, DataError, DomainError, _check_int, _check_number
from .levy import LevyModel
from .tabular import write_csv, write_json

__all__ = [
    "SamplingScheme",
    "JumpSample",
    "ObservationSet",
    "make_scheme",
    "window_steps",
    "simulate",
    "simulate_window",
    "path_rng",
    "replication_seed",
    "save_observation",
    "load_observation",
]


@dataclass(frozen=True)
class SamplingScheme:
    """Grid size n, step delta, jump threshold eps; T = n * delta.

    `rule` records the (a, rho, c_eps) used by make_scheme when the scheme
    was derived from a horizon T, purely as metadata.
    """

    n: int
    delta: float
    eps: float
    rule: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise ConfigError(f"n must be a positive integer, got {self.n}")
        if not (self.delta > 0 and math.isfinite(self.T)):
            raise ConfigError(f"delta must be > 0 with T = n * delta finite, got {self.delta}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"eps must be finite and > 0, got {self.eps}")

    @property
    def T(self) -> float:
        return self.n * self.delta

    def to_dict(self) -> dict:
        d = {"n": self.n, "delta": self.delta, "eps": self.eps}
        if self.rule is not None:
            d["rule"] = {"a": self.rule[0], "rho": self.rule[1], "c_eps": self.rule[2]}
        return d

    @staticmethod
    def from_dict(d: dict) -> "SamplingScheme":
        """The scheme ``to_dict`` wrote, checked as the config checks its fields:
        ``n`` an integer-valued number, the others finite numbers (ConfigError)."""
        rule = None
        if d.get("rule") is not None:
            r = d["rule"]
            rule = tuple(float(_check_number(r, k, "scheme.rule")) for k in ("a", "rho", "c_eps"))
        return SamplingScheme(
            n=_check_int(d, "n", "scheme", 1),
            delta=float(_check_number(d, "delta", "scheme")),
            eps=float(_check_number(d, "eps", "scheme")),
            rule=rule,
        )


def make_scheme(T: float, a: float = 1.0, rho: float = 0.49, c_eps: float = 1.0) -> SamplingScheme:
    """n = ceil(T^{1+a}), delta = T/n, eps = c_eps * delta^rho.

    a = 1 gives n = T^2 and n delta^2 = 1/T -> 0 (condition S1); rho <= 1/2
    keeps the small-jump moments o(T^{-1/2}) for our families (condition S2:
    sqrt(T) times the integral of (z + z^2) nu(dz) over (0, eps] tends to 0).
    """
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    if not 0.0 < a <= 1.0:
        raise ConfigError(f"a must be in (0, 1], got {a}")
    if not 0.0 < rho <= 0.5:
        raise ConfigError(f"rho must be in (0, 1/2], got {rho}")
    if c_eps <= 0:
        raise ConfigError(f"c_eps must be > 0, got {c_eps}")
    n = int(math.ceil(T ** (1.0 + a)))
    delta = T / n
    eps = c_eps * delta**rho
    return SamplingScheme(n=n, delta=delta, eps=eps, rule=(a, rho, c_eps))


def window_steps(scheme: SamplingScheme, window: float) -> int:
    """Number m of grid increments on [0, window]; DomainError unless 1 <= m <= n."""
    if window <= 0:
        raise DomainError(f"window must be > 0, got {window}")
    # window / delta is off from the exact ratio by a few ulps of itself (delta
    # is T / n rounded), so at window = T it can fall just below n; an
    # absolute guard fails once n is large, a relative one holds at any n
    m = int(math.floor(window / scheme.delta * (1.0 + 8.0 * np.finfo(float).eps)))
    if m < 1 or m > scheme.n:
        raise DomainError(f"window {window} needs {m} increments but the grid has {scheme.n}")
    return m


@dataclass(frozen=True)
class JumpSample:
    """Recorded jumps (> eps strictly), scheme, and seed: what the estimators
    read besides the realized variance."""

    jump_times: np.ndarray
    jump_sizes: np.ndarray
    scheme: SamplingScheme
    seed: int

    def __post_init__(self):
        if np.any(self.jump_sizes <= self.scheme.eps):
            raise ValueError("recorded jump sizes must exceed eps strictly")


@dataclass(frozen=True, kw_only=True)
class ObservationSet(JumpSample):
    """Grid samples X_{i delta}, i = 0..n, plus the recorded jumps."""

    grid: np.ndarray

    def __post_init__(self):
        if len(self.grid) != self.scheme.n + 1:
            raise ValueError("grid must have n + 1 samples")
        super().__post_init__()

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.scheme.n + 1) * self.scheme.delta


def path_rng(seed: int) -> np.random.Generator:
    """Philox stream for one path; distinct seeds give independent streams."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def replication_seed(base_seed: int, rep: int) -> int:
    """Per-replication seed; rep 0 reproduces a direct run with base_seed."""
    return int(base_seed) + int(rep)


def _grid_bins(jt: np.ndarray, delta: float, n: int) -> np.ndarray:
    """Index of the first grid time i * delta, i = 0..n, not below each jump time.

    Equals searchsorted(arange(n + 1) * delta, jt, side="left") in O(#jumps):
    ceil(jt / delta) is off by at most one from it, and one comparison with
    the grid times (computed as arange computes them) on either side corrects
    it.  Times beyond n * delta get n + 1.
    """
    b = np.clip(np.ceil(jt / delta), 0, n + 1).astype(np.int64)
    b -= (b > 0) & ((b - 1) * delta >= jt)
    b += (b <= n) & (b * delta < jt)
    return b


def simulate(model: LevyModel, scheme: SamplingScheme, seed: int) -> ObservationSet:
    """Simulation of the observation set: grid values plus jumps > eps.

    Exact but for the gamma subordinator's jumps below eps / 10 (see
    ``GammaSubordinator.draw_jumps``).  Deterministic in (model, scheme, seed).
    """
    rng = path_rng(seed)
    n, dt, eps = scheme.n, scheme.delta, scheme.eps
    jt, js, small_drift = model.jumps.draw_jumps(scheme, rng)

    t = np.arange(n + 1) * dt
    # number of jumps at or before each grid time
    jumps_so_far = np.cumsum(np.bincount(_grid_bins(jt, dt, n), minlength=n + 2))[: n + 1]
    # X = x0 + (c - drift) t + W - L, accumulated in place in t's buffer in
    # that order (same rounding as the expression, no grid-sized temporaries)
    X = t
    X *= model.c - small_drift
    X += model.x0
    if model.D > 0:
        incr = rng.normal(0.0, model.sigma * math.sqrt(dt), size=n)
        X[1:] += np.cumsum(incr, out=incr)  # W_0 = 0
    cum_jumps = np.concatenate([[0.0], np.cumsum(js)])
    X -= cum_jumps[jumps_so_far]

    recorded = js > eps
    return ObservationSet(
        grid=X,
        jump_times=jt[recorded],
        jump_sizes=js[recorded],
        scheme=scheme,
        seed=int(seed),
    )


def simulate_window(
    model: LevyModel, scheme: SamplingScheme, seed: int, window: float
) -> tuple[JumpSample, float]:
    """The recorded jumps of ``simulate(model, scheme, seed)`` and a draw of
    the sum of squared grid increments on [0, window], without building the grid.

    The jumps come from the same stream prefix as ``simulate``, so they are
    equal to its jumps.  Of the m = window_steps(scheme, window) increments,
    the k that hold a jump are drawn one by one: the drift (c - small-jump
    drift) delta plus a N(0, s^2) draw, s = sigma sqrt(delta), minus the
    jumps in the bin.  The other m - k are i.i.d. N(drift, s^2), so their
    squared sum is s^2 chi'^2(m - k, (m - k) (drift / s)^2) in law: one
    noncentral chi-square draw, made of one normal and one chi-square.  The
    sum therefore equals the grid's in law, not draw for draw; with D = 0
    nothing is random and it equals the grid's sum to rounding.  Time and
    memory are O(#jumps), whatever m is.
    """
    m = window_steps(scheme, window)
    rng = path_rng(seed)
    dt, eps = scheme.delta, scheme.eps
    jt, js, small_drift = model.jumps.draw_jumps(scheme, rng)

    # increment i (from t_i to t_{i+1}) holds the jumps binned at grid time i + 1;
    # a jump at t = 0 lands in X_0 and in no increment
    step = _grid_bins(jt, dt, scheme.n) - 1
    inside = (step >= 0) & (step < m)
    step, bin_start = np.unique(step[inside], return_index=True)
    bin_jumps = np.add.reduceat(js[inside], bin_start) if len(step) else np.empty(0)

    drift = (model.c - small_drift) * dt
    free = m - len(step)  # increments without a jump
    incr = drift - bin_jumps
    free_sq = free * drift**2
    if model.D > 0:
        scale = model.sigma * math.sqrt(dt)
        incr += rng.normal(0.0, scale, size=len(incr))
        if free:
            # s^2 chi'^2(free, free (drift / s)^2) as numpy's sampler draws it,
            # the square of a N(sqrt(free) drift, s^2) plus s^2 chi^2(free - 1),
            # but scaled before squaring: (drift / s)^2 overflows at subnormal D
            free_sq = (math.sqrt(free) * drift + scale * rng.standard_normal()) ** 2
            free_sq += scale**2 * 2.0 * rng.standard_gamma((free - 1) / 2.0)
    # einsum, not np.dot: the reduction stays on this thread
    sum_sq = free_sq + float(np.einsum("i,i->", incr, incr))

    recorded = js > eps
    sample = JumpSample(
        jump_times=jt[recorded], jump_sizes=js[recorded], scheme=scheme, seed=int(seed)
    )
    return sample, sum_sq


# ---------------------------------------------------------------------------
# Serialization: CSV pair plus JSON sidecar
# ---------------------------------------------------------------------------

def save_observation(obs: ObservationSet, grid_path, jumps_path, sidecar_path) -> None:
    i = np.arange(obs.scheme.n + 1)
    write_csv(grid_path, ["i", "t", "X"], [i, obs.times, obs.grid])
    write_csv(jumps_path, ["t", "size"], [obs.jump_times, obs.jump_sizes])
    sidecar = {"scheme": obs.scheme.to_dict(), "seed": obs.seed}
    write_json(sidecar_path, sidecar)


def _read_sidecar(path) -> tuple[SamplingScheme, int]:
    """(scheme, seed) from the JSON sidecar written by save_observation."""
    try:
        sidecar = json.loads(Path(path).read_text())
        scheme = SamplingScheme.from_dict(sidecar["scheme"])
        return scheme, _check_int(sidecar, "seed", "sidecar", 0)
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from exc
    # not JSON or nested deeper than the parser recurses, wrong types (a scheme
    # that is not an object has no .get), a field that fails its check
    # (ConfigError is a ValueError)
    except (TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_table(path, header: str, ncols: int) -> np.ndarray:
    """The rows of a CSV written by write_csv under `header`, (rows, ncols), all finite."""
    try:
        with open(path) as f:
            first = f.readline().rstrip("\n")
        with warnings.catch_warnings():
            # a file holding only its header is an empty table
            warnings.simplefilter("ignore", UserWarning)
            # by path, not by the open handle: loadtxt reads a path in chunks
            # but iterates a handle line by line, which is slower
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:  # unparsable cell, ragged row, undecodable bytes
        raise DataError(f"{path}: {exc}") from exc
    if first != header:
        raise DataError(f"{path}: header {first!r}, expected {header!r}")
    if rows.size == 0:
        return np.empty((0, ncols))
    if rows.shape[1] != ncols:
        raise DataError(f"{path}: {rows.shape[1]} columns, expected {ncols}")
    if not np.isfinite(rows).all():
        raise DataError(f"{path}: non-finite value")
    return rows


def load_observation(grid_path, jumps_path, sidecar_path) -> ObservationSet:
    """Read back what save_observation wrote, checking it on the way.

    Raises DataError unless the sidecar holds the scheme and the seed, the
    headers are ``i,t,X`` and ``t,size``, the grid has n + 1 finite rows with
    i = 0..n and t = i * delta bit for bit (the writer's shortest repr reads
    back exactly), and the jumps are finite, their times sorted in [0, T] and
    their sizes above eps.
    """
    scheme, seed = _read_sidecar(sidecar_path)
    n = scheme.n
    grid = _read_table(grid_path, "i,t,X", 3)
    if len(grid) != n + 1:
        raise DataError(f"{grid_path}: {len(grid)} rows, expected n + 1 = {n + 1}")
    i = np.arange(n + 1)
    if not np.array_equal(grid[:, 0], i):
        raise DataError(f"{grid_path}: column i is not 0..{n}")
    if not np.array_equal(grid[:, 1], i * scheme.delta):
        raise DataError(f"{grid_path}: column t is not i * delta, delta = {scheme.delta!r}")
    jumps = _read_table(jumps_path, "t,size", 2)
    jt, js = jumps[:, 0], jumps[:, 1]
    if len(jt) and (jt[0] < 0 or jt[-1] > scheme.T or np.any(np.diff(jt) < 0)):
        raise DataError(f"{jumps_path}: jump times are not sorted in [0, T = {scheme.T!r}]")
    if np.any(js <= scheme.eps):
        raise DataError(f"{jumps_path}: jump sizes must exceed eps = {scheme.eps!r}")
    return ObservationSet(grid=grid[:, 2], jump_times=jt, jump_sizes=js, scheme=scheme, seed=seed)
