"""The benchmark's trace probes resolve against the library.

``perfbench/tracing.py`` rebinds each (module, attribute) of its ``PROBES``
list when a traced run starts, and a name it cannot look up ends that run.
The projections it binds keep their signatures and return shapes.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from qscale import laguerre, series
from qscale.laguerre import LaguerreParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _probes():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.PROBES]


@pytest.mark.parametrize("module,attr", _probes())
def test_probe_resolves(module, attr):
    mod = importlib.import_module(module)
    if "." in attr:
        # a method is rebound on its class, so the class must define it itself
        cls_name, meth = attr.split(".")
        assert callable(getattr(mod, cls_name).__dict__[meth])
    else:
        assert callable(getattr(mod, attr))


_EXP = ["x", "p", "gamma", "D", "c"]


@pytest.mark.parametrize(
    "name,params",
    [
        ("eval_P", _EXP), ("eval_Pstar", _EXP), ("grad_P", _EXP), ("grad_Pstar", _EXP),
        *((name, ["params", *_EXP]) for name in (
            "eval_Q_all", "eval_Qstar_all", "grad_Q_all", "grad_Qstar_all",
        )),
    ],
)
@pytest.mark.parametrize("x", [np.float64(1.5), np.linspace(0.0, 4.0, 5)], ids=["scalar", "grid"])
def test_projection_signature_and_shape(name, params, x):
    fn = getattr(series, name)
    assert list(inspect.signature(fn).parameters) == params
    lp = LaguerreParams(1.0, 6)
    args = (x, 0.3, 0.2, 0.5, 1.5) if params == _EXP else (lp, x, 0.3, 0.2, 0.5, 1.5)
    out = fn(*args)
    shape = np.shape(x) if params == _EXP else (lp.K + 1,) + np.shape(x)
    parts = out if name.startswith("grad") else (out,)
    assert len(parts) == (2 if name.startswith("grad") else 1)
    assert all(np.shape(part) == shape for part in parts)


def test_psi_db_projection_shape():
    fn = laguerre.psi_integral_db_all
    assert list(inspect.signature(fn).parameters) == ["params", "x", "b"]
    lp = LaguerreParams(1.0, 6)
    assert fn(lp, np.linspace(0.0, 4.0, 5), -0.3).shape == (7, 5)
    assert fn(lp, 1.5, 0.3).shape == (7,)
