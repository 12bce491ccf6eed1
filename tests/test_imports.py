"""Start-up imports: the commands run on numpy alone.

``scale compute``, ``scale simulate`` (the gamma subordinator's included),
``scale estimate`` and a Monte Carlo replication load no scipy module at
all, ``scipy`` itself included, nor ``mpmath``, which only the coefficient
reference of ``qscale.oracles`` imports: the root finder, the triangular
solve and the thin QR are numpy code, the one normal quantile is a
constant, the gamma subordinator's jumps come by Poisson thinning with no
special function, and the manifest reads scipy's version from its package
metadata.  One command loads scipy when it runs: the MC summary's normality
screen (``scipy.stats``, which imports the other subpackages).
The check runs in a fresh interpreter, since this process has loaded them
all through other tests; it asserts what is in ``sys.modules``, not a time.
On Linux a second check reads ``/proc/self/maps``: ``scale compute``, a
gamma-subordinator ``scale simulate`` and a replication map no library
from ``scipy.libs``, whose OpenBLAS nothing calls.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json
import sys

MODULES = (
    "scipy", "scipy.linalg", "scipy.special", "scipy.optimize", "scipy.stats", "scipy.integrate",
    "mpmath",
)


def loaded():
    return sorted(name for name in MODULES if name in sys.modules)


seen = {}
import qscale
import qscale.cli
seen["import"] = loaded()

exp_cfg, gamma_cfg, out = sys.argv[1:4]
main = qscale.cli.main
seen["exits"] = [main(["compute", "--oracle", "--config", exp_cfg, "--out", out + "/compute"])]
seen["compute"] = loaded()
seen["exits"].append(main(["simulate", "--config", exp_cfg, "--out", out + "/data"]))
seen["exits"].append(
    main(["estimate", "--config", exp_cfg, "--data", out + "/data", "--out", out + "/estimate"])
)
seen["simulate_estimate"] = loaded()

from qscale.laguerre import LaguerreParams
from qscale.levy import CompoundPoissonExponential, LevyModel
from qscale.mc import run_monte_carlo, run_replication
from qscale.simulate import make_scheme

model = LevyModel(x0=0.0, c=1.5, D=0.5, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.1)
row = run_replication(model, make_scheme(100.0), LaguerreParams(1.0, 20), 3, [1.0], D_window=100.0)
seen["replication_ok"] = row["failed"] == ""
seen["replication"] = loaded()

seen["exits"].append(main(["simulate", "--config", gamma_cfg, "--out", out + "/gamma"]))
seen["gamma_simulate"] = loaded()

res = run_monte_carlo(model, make_scheme(10.0), LaguerreParams(1.0, 10), 20, [1.0], D_window=10.0)
seen["mc_normality"] = "gamma_normality" in res.summary
seen["mc"] = loaded()
print(json.dumps(seen))
"""


def _config(path: Path, jumps: dict) -> Path:
    path.write_text(json.dumps({
        "model": {"x0": 0.0, "c": 1.5, "D": 0.5, "q": 0.1, "jumps": jumps},
        "laguerre": {"alpha": 1.0, "K": 20},
        "scheme": {"T": 20, "a": 1.0, "rho": 0.49, "c_eps": 1.0, "seed": 11},
        "x_grid": {"min": 0.0, "max": 5.0, "points": 11},
        "output": {"directory": str(path.parent / "out")},
    }))
    return path


def _fresh_interpreter(script: str, *args) -> str:
    """Run script in a new interpreter that imports qscale from SRC; its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_commands_load_no_scipy_subpackage(tmp_path):
    exp_cfg = _config(
        tmp_path / "exp.json",
        {"kind": "compound-poisson-exponential", "rate": 1.0, "jump_mean": 1.0},
    )
    gamma_cfg = _config(tmp_path / "gamma.json", {"kind": "gamma-subordinator", "shape": 0.5, "rate": 1.0})
    seen = json.loads(_fresh_interpreter(SCRIPT, exp_cfg, gamma_cfg, tmp_path / "out"))
    assert seen["exits"] == [0, 0, 0, 0]
    assert (tmp_path / "out" / "compute" / "oracle_summary.json").is_file()
    assert (tmp_path / "out" / "estimate" / "report.json").is_file()
    assert seen["replication_ok"]
    for stage in ("import", "compute", "simulate_estimate", "replication", "gamma_simulate"):
        assert seen[stage] == [], stage
    # the one lazy user: the normality screen (scipy.stats itself imports
    # the other subpackages)
    assert seen["mc_normality"]
    assert "scipy.stats" in seen["mc"]


MAPS_SCRIPT = r"""
import json
import sys

stage, cfg, out = sys.argv[1:4]
if stage in ("compute", "simulate"):
    import qscale.cli

    assert qscale.cli.main([stage, "--config", cfg, "--out", out]) == 0
else:
    from qscale.laguerre import LaguerreParams
    from qscale.levy import CompoundPoissonExponential, LevyModel
    from qscale.mc import run_replication
    from qscale.simulate import make_scheme

    model = LevyModel(x0=0.0, c=1.5, D=0.5, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.1)
    row = run_replication(model, make_scheme(100.0), LaguerreParams(1.0, 20), 3, [1.0], D_window=100.0)
    assert row["failed"] == "", row["failed"]
with open("/proc/self/maps") as maps:
    print(json.dumps(sorted({line.split()[-1] for line in maps if ".libs/" in line})))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
@pytest.mark.parametrize("stage", ["compute", "simulate", "replication"])
def test_commands_map_no_scipy_library(tmp_path, stage):
    # the simulate stage draws gamma-subordinator jumps
    jumps = (
        {"kind": "gamma-subordinator", "shape": 0.5, "rate": 1.0}
        if stage == "simulate"
        else {"kind": "compound-poisson-exponential", "rate": 1.0, "jump_mean": 1.0}
    )
    cfg = _config(tmp_path / "model.json", jumps)
    mapped = json.loads(_fresh_interpreter(MAPS_SCRIPT, stage, cfg, tmp_path / "out"))
    assert not [path for path in mapped if "/scipy.libs/" in path], mapped
