"""Experiment configuration: JSON schema, validation, and hashing.

Schema (all blocks validated before any work starts):

    {
      "model":    {"x0": 0.0, "c": 1.5, "sigma": 1.0 | "D": 0.5, "q": 0.1,
                   "jumps": {"kind": "...", ...}},
      "laguerre": {"alpha": 1.0, "K": 40},
      "scheme":   {"T": 400, "a": 1.0, "rho": 0.49, "c_eps": 1.0, "seed": 1},
      "mc":       {"replications": 200, "workers": 1, "D_window": 1.0},
      "output":   {"directory": "out", "formats": ["csv", "json"]},
      "x_grid":   {"min": 0.0, "max": 10.0, "points": 201}
    }

Commands require only the blocks they use; `model` is always required.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, DomainError, _check_int, _check_number
from .laguerre import LaguerreParams
from .levy import (
    CompoundPoissonExponential, CompoundPoissonGamma, GammaSubordinator, JumpMeasure, LevyModel,
    NoJumps,
)
from .simulate import SamplingScheme, make_scheme

__all__ = [
    "ExperimentConfig", "parse_config", "load_config", "config_hash",
    "jump_measure_from_dict", "model_from_dict",
]

_FORMATS = {"csv", "json"}

# a family's parameters are its dataclass fields, in order; the kind and
# the field names are part of the CLI contract
_JUMP_KINDS = {
    cls.kind: cls
    for cls in (NoJumps, CompoundPoissonExponential, CompoundPoissonGamma, GammaSubordinator)
}


@dataclass(frozen=True)
class McConfig:
    replications: int
    workers: int
    D_window: float  # realized-variance window of D_hat


@dataclass(frozen=True)
class ExperimentConfig:
    model: LevyModel
    laguerre: LaguerreParams | None
    scheme: SamplingScheme | None
    seed: int               # scheme.seed: the simulation seed, or base seed of mc
    mc: McConfig | None
    out_dir: str
    formats: tuple[str, ...]
    x_grid: np.ndarray | None
    raw: dict

    def require(self, *blocks: str) -> None:
        for b in blocks:
            if getattr(self, b, None) is None:
                raise ConfigError(f"config block {b!r} is required for this command")


def _block(d: dict, name: str) -> dict:
    """The config block d[name], which must be a JSON object."""
    block = d[name]
    if not isinstance(block, dict):
        raise ConfigError(f"{name} block must be an object, got {block!r}")
    return block


def jump_measure_from_dict(d: dict) -> JumpMeasure:
    """Build a jump measure from {kind, <the kind's parameters>}."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("jumps block must be an object with a 'kind' field")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in _JUMP_KINDS:
        raise ConfigError(f"unknown jump kind {kind!r}; expected one of {sorted(_JUMP_KINDS)}")
    cls = _JUMP_KINDS[kind]
    names = [f.name for f in fields(cls)]
    missing = [name for name in names if name not in d]
    if missing:
        raise ConfigError(f"jump kind {kind!r} missing parameters {missing}")
    extra = set(d) - set(names) - {"kind"}
    if extra:
        raise ConfigError(f"jump kind {kind!r} got unexpected parameters {sorted(extra)}")
    values = {name: float(_check_number(d, name, "jumps")) for name in names}
    try:
        return cls(**values)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def model_from_dict(d: dict) -> LevyModel:
    """Build a LevyModel from {x0, c, sigma or D, q, jumps: {...}}."""
    if not isinstance(d, dict):
        raise ConfigError("model block must be an object")
    required = {"x0", "c", "jumps"}
    missing = required - set(d)
    if missing:
        raise ConfigError(f"model block missing fields {sorted(missing)}")
    if "sigma" in d and "D" in d:
        raise ConfigError("model block must give exactly one of 'sigma' or 'D'")
    if "sigma" in d:
        sigma = float(_check_number(d, "sigma", "model"))
        D = 0.5 * sigma * sigma
        if not math.isfinite(D):
            raise ConfigError(f"model.sigma = {sigma!r} gives a non-finite D")
    elif "D" in d:
        D = float(_check_number(d, "D", "model"))
    else:
        raise ConfigError("model block must give one of 'sigma' or 'D'")
    x0 = float(_check_number(d, "x0", "model"))
    c = float(_check_number(d, "c", "model"))
    q = float(_check_number(d, "q", "model", default=0.0))
    jumps = jump_measure_from_dict(d["jumps"])
    try:
        return LevyModel(x0=x0, c=c, D=D, jumps=jumps, q=q)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(d: dict) -> ExperimentConfig:
    """Validate a decoded config; any malformed field raises ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError("config root must be a JSON object")
    if "model" not in d:
        raise ConfigError("config requires a 'model' block")
    model = model_from_dict(d["model"])

    laguerre = None
    if "laguerre" in d:
        lb = _block(d, "laguerre")
        alpha = _check_number(lb, "alpha", "laguerre", default=1.0)
        K = _check_int(lb, "K", "laguerre", 0)
        try:
            laguerre = LaguerreParams(alpha=float(alpha), K=K)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    scheme, seed = None, 0
    if "scheme" in d:
        sb = _block(d, "scheme")
        seed = _check_int(sb, "seed", "scheme", 0, default=0)
        T = float(_check_number(sb, "T", "scheme"))
        # the rule's defaults are make_scheme's; pass only what the config gives
        rule = {k: float(_check_number(sb, k, "scheme")) for k in ("a", "rho", "c_eps") if k in sb}
        try:
            scheme = make_scheme(T, **rule)
        except OverflowError as exc:
            raise ConfigError(f"scheme.T = {T!r} is too large: {exc}") from exc

    mc = None
    if "mc" in d:
        mb = _block(d, "mc")
        reps = _check_int(mb, "replications", "mc", 1)
        workers = _check_int(mb, "workers", "mc", 1, default=1)
        D_window = 1.0  # also when given as null
        if mb.get("D_window") is not None:
            D_window = float(_check_number(mb, "D_window", "mc"))
            if D_window <= 0:
                raise ConfigError("mc.D_window must be > 0")
        mc = McConfig(replications=reps, workers=workers, D_window=D_window)

    out_dir = "out"
    formats: tuple[str, ...] = ("csv", "json")
    if "output" in d:
        ob = _block(d, "output")
        out_dir = ob.get("directory", "out")
        if not isinstance(out_dir, str) or not out_dir:
            raise ConfigError("output.directory must be a non-empty string")
        fmts = ob.get("formats", ["csv", "json"])
        if (
            not isinstance(fmts, list) or not fmts
            or not all(isinstance(f, str) and f in _FORMATS for f in fmts)
        ):
            raise ConfigError(f"output.formats must be a non-empty subset of {sorted(_FORMATS)}")
        formats = tuple(fmts)

    x_grid = None
    if "x_grid" in d:
        gb = _block(d, "x_grid")
        lo = float(_check_number(gb, "min", "x_grid"))
        hi = float(_check_number(gb, "max", "x_grid"))
        pts = _check_int(gb, "points", "x_grid", 1)
        if hi < lo:
            raise ConfigError(f"x_grid requires max >= min, got [{lo}, {hi}]")
        if lo < 0:
            raise ConfigError(f"x_grid.min must be >= 0, got {lo}")
        x_grid = np.linspace(lo, hi, pts)

    return ExperimentConfig(
        model=model, laguerre=laguerre, scheme=scheme, seed=seed, mc=mc,
        out_dir=out_dir, formats=formats, x_grid=x_grid, raw=d,
    )


def load_config(path) -> ExperimentConfig:
    data = Path(path).read_bytes()
    try:
        d = json.loads(data.decode("utf-8"))
    # undecodable bytes, malformed JSON, an integer too long to convert, or
    # nesting deeper than the parser recurses
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(d)


def config_hash(cfg: ExperimentConfig) -> str:
    """SHA-256 of the canonicalized raw config."""
    canon = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
