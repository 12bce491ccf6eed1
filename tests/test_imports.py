"""Start-up imports: a command loads only the scipy subpackages it runs.

``scipy.stats`` (the MC normality screen) and ``scipy.integrate`` (the
quadrature cross-checks in ``oracles``) are the slowest scipy imports, and
no ``scale compute`` needs either.  The check runs in a fresh interpreter,
since this process has loaded both through other tests; it asserts what is
in ``sys.modules``, not a time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json
import sys

LAZY = ("scipy.stats", "scipy.integrate")


def loaded():
    return sorted(name for name in LAZY if name in sys.modules)


seen = {}
import qscale
import qscale.cli
seen["import"] = loaded()

cfg_path, out = sys.argv[1], sys.argv[2]
seen["compute_exit"] = qscale.cli.main(["compute", "--oracle", "--config", cfg_path, "--out", out])
seen["compute"] = loaded()

from qscale.laguerre import LaguerreParams
from qscale.levy import CompoundPoissonExponential, LevyModel
from qscale.mc import run_monte_carlo
from qscale.simulate import make_scheme

model = LevyModel(x0=0.0, c=1.5, D=0.5, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.1)
res = run_monte_carlo(model, make_scheme(10.0), LaguerreParams(1.0, 10), 20, [1.0], D_window=10.0)
seen["mc_normality"] = "gamma_normality" in res.summary
seen["mc"] = loaded()
print(json.dumps(seen))
"""


def test_stats_and_integrate_load_only_where_called(tmp_path):
    cfg = {
        "model": {
            "x0": 0.0, "c": 1.5, "D": 0.5, "q": 0.1,
            "jumps": {"kind": "compound-poisson-exponential", "rate": 1.0, "jump_mean": 1.0},
        },
        "laguerre": {"alpha": 1.0, "K": 20},
        "x_grid": {"min": 0.0, "max": 5.0, "points": 11},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cfg_path), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["compute_exit"] == 0
    assert (tmp_path / "out" / "oracle_summary.json").is_file()
    assert seen["compute"] == []
    # the normality screen is the one caller of scipy.stats, and it loads it
    # (scipy.stats itself imports scipy.integrate)
    assert seen["mc_normality"]
    assert "scipy.stats" in seen["mc"]
