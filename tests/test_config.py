"""Config parsing: every malformed field is a ConfigError, which the CLI maps to exit 2."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscale.cli import main
from qscale.config import ExperimentConfig, model_from_dict, parse_config
from qscale.exceptions import ConfigError
from qscale.levy import CompoundPoissonExponential, CompoundPoissonGamma, GammaSubordinator, NoJumps

VALID = {
    "model": {
        "x0": 0.0, "c": 1.5, "D": 0.5, "q": 0.1,
        "jumps": {"kind": "compound-poisson-exponential", "rate": 1.0, "jump_mean": 1.0},
    },
    "laguerre": {"alpha": 1.0, "K": 4},
    "scheme": {"T": 5, "a": 1.0, "rho": 0.49, "c_eps": 1.0, "seed": 3},
    "mc": {"replications": 2, "workers": 1},
    "output": {"directory": "out", "formats": ["csv", "json"]},
    "x_grid": {"min": 0.0, "max": 5.0, "points": 3},
}

# (block, value): a dict value overrides fields of the valid block, anything
# else replaces the whole block
BAD = {
    "laguerre_not_object": ("laguerre", 5),
    "output_not_object": ("output", 3),
    "x0_string": ("model", {"x0": "abc"}),
    "K_nan": ("laguerre", {"K": math.nan}),
    "points_inf": ("x_grid", {"points": math.inf}),
    "points_zero": ("x_grid", {"points": 0}),
    "replications_inf": ("mc", {"replications": math.inf}),
    "replications_zero": ("mc", {"replications": 0}),
    "T_nan": ("scheme", {"T": math.nan}),
    "q_nan": ("model", {"q": math.nan}),
    "x_max_inf": ("x_grid", {"max": math.inf}),
    "alpha_nan": ("laguerre", {"alpha": math.nan}),
    "K_bool": ("laguerre", {"K": True}),
    "K_fraction": ("laguerre", {"K": 4.5}),
    "K_negative": ("laguerre", {"K": -1}),
    "c_minus_inf": ("model", {"c": -math.inf}),
    "sigma_overflows_D": ("model", {"sigma": 1e200}),
    "int_beyond_float": ("model", {"x0": 10**400}),
    "jump_rate_string": (
        "model",
        {"jumps": {"kind": "compound-poisson-exponential", "rate": "1", "jump_mean": 1.0}},
    ),
    "jump_kind_list": ("model", {"jumps": {"kind": ["none"]}}),
    "T_overflows_n": ("scheme", {"T": 1e200}),
    "seed_negative": ("scheme", {"seed": -1}),
    "seed_fraction": ("scheme", {"seed": 1.5}),
    "workers_inf": ("mc", {"workers": math.inf}),
    "workers_fraction": ("mc", {"workers": 1.5}),
    "D_window_nan": ("mc", {"D_window": math.nan}),
    "formats_unhashable": ("output", {"formats": [["csv"]]}),
    "x_grid_not_object": ("x_grid", [0, 1, 2]),
}


def _config(block: str, value) -> dict:
    cfg = json.loads(json.dumps(VALID))
    cfg[block] = {**cfg[block], **value} if isinstance(value, dict) else value
    return cfg


def test_valid_config_parses():
    cfg = parse_config(json.loads(json.dumps(VALID)))
    assert cfg.laguerre.K == 4 and len(cfg.x_grid) == 3 and cfg.seed == 3


@pytest.mark.parametrize("given, window", [({}, 1.0), ({"D_window": None}, 1.0),
                                           ({"D_window": 20}, 20.0)])
def test_D_window_is_a_float_defaulting_to_one(given, window):
    D_window = parse_config(_config("mc", given)).mc.D_window
    assert type(D_window) is float and D_window == window


@pytest.mark.parametrize("name", sorted(BAD))
def test_malformed_field_raises_config_error(name):
    with pytest.raises(ConfigError):
        parse_config(_config(*BAD[name]))


@pytest.mark.parametrize("name", sorted(BAD))
def test_malformed_field_exits_2(tmp_path, capsys, name):
    path = tmp_path / "cfg.json"
    # json writes nan/inf as NaN/Infinity, which json.loads reads back
    path.write_text(json.dumps(_config(*BAD[name])))
    assert main(["compute", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


# small sizes only: K and x_grid.points stay <= 5, so no draw allocates much
_KINDS = [
    "none", "compound-poisson-exponential", "compound-poisson-gamma", "gamma-subordinator",
    "cauchy",
]
_VALUES = st.one_of(
    st.integers(-2, 5),
    st.floats(-2.0, 5.0),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, True, False, "1", None, [1.0], {"a": 1}, *_KINDS]
    ),
)
_DELETE = "<delete>"
_FIELDS = {
    "model": ["x0", "c", "sigma", "D", "q", "jumps"],
    "laguerre": ["alpha", "K"],
    "scheme": ["T", "a", "rho", "c_eps", "seed"],
    "mc": ["replications", "workers", "D_window"],
    "output": ["directory", "formats"],
    "x_grid": ["min", "max", "points"],
}
# the root, every block and every field (also the optional ones VALID leaves out)
_PATHS = (
    [()]
    + [(block,) for block in _FIELDS]
    + [(block, key) for block, keys in _FIELDS.items() for key in keys]
    + [("model", "jumps", key) for key in ["kind", "rate", "jump_mean", "shape", "scale"]]
)
_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(_PATHS), st.one_of(_VALUES, st.just(_DELETE))), max_size=4
)


def _mutate(cfg, path: tuple, value):
    """Set (or delete) the entry at path; a no-op where an earlier change left no object."""
    if not path:
        return value
    parent = cfg
    for key in path[:-1]:
        if not isinstance(parent, dict) or not isinstance(parent.get(key), dict):
            return cfg
        parent = parent[key]
    if not isinstance(parent, dict):
        return cfg
    if value == _DELETE:
        parent.pop(path[-1], None)
    else:
        parent[path[-1]] = value
    return cfg


@settings(max_examples=400, deadline=None)
@given(mutations=_MUTATIONS)
def test_parses_or_raises_config_error(mutations):
    # missing keys, wrong types, nan, +-inf and bools, applied to a valid config
    cfg = json.loads(json.dumps(VALID))
    for path, value in mutations:
        cfg = _mutate(cfg, path, value)
    try:
        parsed = parse_config(cfg)
    except ConfigError:
        return
    assert isinstance(parsed, ExperimentConfig)


# each jump kind with the README's parameters, in order
JUMP_KINDS = {
    "none": (NoJumps, []),
    "compound-poisson-exponential": (CompoundPoissonExponential, ["rate", "jump_mean"]),
    "compound-poisson-gamma": (CompoundPoissonGamma, ["rate", "shape", "scale"]),
    "gamma-subordinator": (GammaSubordinator, ["shape", "rate"]),
}


@pytest.mark.parametrize("kind", sorted(JUMP_KINDS))
def test_jump_kind_parameters_are_the_dataclass_fields(kind):
    cls, names = JUMP_KINDS[kind]
    assert cls.kind == kind
    assert [f.name for f in dataclasses.fields(cls)] == names
    params = {name: 0.5 + i for i, name in enumerate(names)}
    model = {"x0": 0.0, "c": 9.0, "D": 0.5, "jumps": {"kind": kind, **params}}
    assert model_from_dict(model).jumps == cls(**params)
    for name in names:
        jumps = {k: v for k, v in model["jumps"].items() if k != name}
        msg = f"jump kind {kind!r} missing parameters {[name]}"
        with pytest.raises(ConfigError, match=re.escape(msg)):
            model_from_dict({**model, "jumps": jumps})
    msg = f"jump kind {kind!r} got unexpected parameters ['extra']"
    with pytest.raises(ConfigError, match=re.escape(msg)):
        model_from_dict({**model, "jumps": {**model["jumps"], "extra": 1.0}})
    # the kind is a class constant: no constructor argument sets it
    with pytest.raises(TypeError):
        cls(*params.values(), "compound-poisson-exponential")
