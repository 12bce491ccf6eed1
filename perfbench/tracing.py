"""In-memory span tracer for the traced benchmark run.

``Tracer.installed()`` rebinds the program's public functions, in every
``qscale`` module that binds them, to wrappers that record one span per call:
name, parent span, root span, start and end (``perf_counter_ns``) and a work
count.  The benchmark opens a ``bench.setup`` or ``bench.op`` root span
around each set-up and operation.  ``layer_metrics`` derives per-layer self
time (span duration minus the time its child spans cover) and exact counts
from the spans after the run; nothing is aggregated while the program runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# span record fields
NAME, PARENT, ROOT, T0, T1, WORK = range(6)

OP, SETUP = "bench.op", "bench.setup"


def _psi_layer(args, kwargs) -> str:
    b = args[2] if len(args) > 2 else kwargs["b"]
    return "laguerre.psi_bwd" if b < 0 else "laguerre.psi_fwd"


def _z_count(args, kwargs, result) -> int:
    return int(np.size(args[4] if len(args) > 4 else kwargs["z"]))


def _rows(args, kwargs, result) -> int:
    columns = args[2] if len(args) > 2 else kwargs["columns"]
    return len(np.atleast_1d(columns[0]))


def _grid_bytes(args, kwargs, result) -> int:
    return int(result.grid.nbytes)


def _rep_ok(args, kwargs, result) -> int:
    return 0 if result["failed"] else 1


_JUMP_CLASSES = ("CompoundPoissonExponential", "CompoundPoissonGamma", "GammaSubordinator")

# (module, function or Class.method, span name or namer, work count or None):
# the public functions the workloads reach, grouped into layers
PROBES = [
    ("qscale.laguerre", "psi_integral_all", _psi_layer, None),
    ("qscale.laguerre", "psi_integral_db_all", "laguerre.psi_db", None),
    ("qscale.laguerre", "laguerre_fn_all", "laguerre.fn", None),
    ("qscale.series", "h_functionals_at", "series.h_kernels", _z_count),
    ("qscale.series", "coeffs_true", "series.coeffs_true", None),
    ("qscale.series", "build_Af", "series.solve", None),
    ("qscale.series", "solve_aG", "series.solve", None),
    *(("qscale.series", fn, "series.eval", None) for fn in (
        "eval_P", "eval_Q_all", "eval_Pstar", "eval_Qstar_all",
        "grad_P", "grad_Q_all", "grad_Pstar", "grad_Qstar_all",
        "ScaleApprox.w", "ScaleApprox.z",
    )),
    *(("qscale.levy", fn, "levy", None) for fn in (
        "laplace_exponent", "laplace_exponent_deriv", "check_npc", "lundberg_exponent",
        "LevyModel.theta0",
    )),
    *(("qscale.levy", f"{cls}.{meth}", "levy", None)
      for cls in _JUMP_CLASSES for meth in ("density", "exp_functional", "exp_moment")),
    ("qscale.simulate", "simulate", "simulate.path", _grid_bytes),
    ("qscale.simulate", "save_observation", "simulate.save", None),
    ("qscale.simulate", "load_observation", "simulate.load", None),
    ("qscale.tabular", "write_csv", "tabular.write_csv", _rows),
    ("qscale.estimators", "estimate_D", "estimators.D", None),
    ("qscale.estimators", "estimate_gamma", "estimators.gamma", None),
    # psi-hat evaluations count as gamma work; psi_evals counts those made
    # directly inside estimate_gamma
    ("qscale.estimators", "empirical_psi", "estimators.gamma", None),
    ("qscale.estimators", "empirical_psi_deriv", "estimators.gamma", None),
    ("qscale.estimators", "estimate_coeffs", "estimators.coeffs", None),
    ("qscale.estimators", "covariance_machinery", "estimators.covariance", None),
    ("qscale.estimators", "build_report", "estimators.report", None),
    ("qscale.estimators", "EstimationReport.save_json", "estimators.report_json", None),
    ("qscale.mc", "run_replication", "mc", _rep_ok),
    *(("qscale.cli", fn, "cli", None) for fn in ("main", "cmd_simulate", "cmd_estimate")),
    ("qscale.oracles", "laplace_invert_scale", "oracles", None),
]

# layers whose self time is reported per operation, plus the benchmark's own
# glue (the self time of the bench.op root spans)
OP_LAYERS = [
    "laguerre.psi_bwd", "laguerre.psi_fwd", "laguerre.psi_db", "laguerre.fn",
    "series.h_kernels", "series.coeffs_true", "series.solve", "series.eval", "levy",
    "simulate.path", "simulate.save", "simulate.load", "tabular.write_csv",
    "estimators.D", "estimators.gamma", "estimators.coeffs", "estimators.covariance",
    "estimators.report", "estimators.report_json", "mc", "cli", "bench",
]

# every per-layer metric: name -> unit
PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in OP_LAYERS},
    "oracles.self_ms": "ms",
    "laguerre.psi_bwd.calls": "count",
    "series.h_kernels.calls": "count",
    "series.h_kernels.z_per_call": "count",
    "estimators.h_sweeps_per_op": "count",
    "estimators.gamma.psi_evals": "count",
    "simulate.grid_bytes_computed": "B",
    "tabular.rows_written": "count",
    "mc.ok_share": "ratio",
    "bench.cyclic_garbage_mb": "MB",
    # median over untraced passes of the pass's mean operation time
    "bench.op_ms_p50": "ms",
    "trace.op_ms": "ms",
    "trace.overhead_share": "ratio",
}


class Tracer:
    """Spans kept in memory as ``[name, parent, root, t0_ns, t1_ns, work]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, work: int = 0) -> list:
        sid = len(self.spans)
        stack = self._stack
        rec = [name, stack[-1] if stack else -1, stack[0] if stack else sid,
               time.perf_counter_ns(), 0, work]
        self.spans.append(rec)
        stack.append(sid)
        return rec

    def _close(self, rec: list) -> None:
        self._stack.pop()
        rec[T1] = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, work: int = 0):
        rec = self._open(name, work)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    rec[WORK] = work(args, kwargs, result)
                return result
            finally:
                self._close(rec)

        return traced

    @contextmanager
    def installed(self):
        """Rebind every probed function where a qscale module binds it; restore on exit."""
        undo = []
        try:
            for module, attr, name, work in PROBES:
                mod = importlib.import_module(module)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(mod, cls_name)
                    orig = owner.__dict__[meth]
                    undo.append((owner, meth, orig))
                    setattr(owner, meth, self.wrap(orig, name, work))
                    continue
                orig = getattr(mod, attr)
                wrapper = self.wrap(orig, name, work)
                for mod_name, other in list(sys.modules.items()):
                    if mod_name != "qscale" and not mod_name.startswith("qscale."):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            undo.append((other, key, orig))
                            setattr(other, key, wrapper)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON: a name table and [id, parent, name, t0, t1, work] rows."""
        names = sorted({rec[NAME] for rec in self.spans})
        index = {n: k for k, n in enumerate(names)}
        base = self.spans[0][T0] if self.spans else 0
        rows = [[sid, rec[PARENT], index[rec[NAME]], rec[T0] - base, rec[T1] - base, rec[WORK]]
                for sid, rec in enumerate(self.spans)]
        path.write_text(json.dumps({"names": names, "unit": "ns", "spans": rows},
                                   separators=(",", ":")))


def layer_metrics(spans: list[list], pass_ops: int, baseline_op_s: list[float]) -> dict:
    """Per-layer metrics from the spans of one traced run.

    Self times are per operation, averaged over every ``bench.op`` root;
    ``oracles.self_ms`` is per set-up.  Counts are per operation over the
    first ``pass_ops`` operations, so they repeat exactly for one seed.
    ``baseline_op_s`` holds untraced times of operations 0, 1, ... on the
    same inputs; ``trace.overhead_share`` compares them with the traced times.
    """
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_ns[rec[PARENT]] += rec[T1] - rec[T0]
    op_index = {sid: rec[WORK] for sid, rec in enumerate(spans) if rec[NAME] == OP}
    setups = sum(1 for rec in spans if rec[NAME] == SETUP)
    n_ops = len(op_index)

    self_ms = dict.fromkeys(OP_LAYERS, 0.0)
    self_ms["oracles"] = 0.0
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    psi_evals = sweeps = reps = reps_ok = 0
    op_ns = []
    for sid, rec in enumerate(spans):
        name, root = rec[NAME], rec[ROOT]
        own_ms = (rec[T1] - rec[T0] - child_ns[sid]) / 1e6
        if name == OP:
            self_ms["bench"] += own_ms
            op_ns.append(rec[T1] - rec[T0])
            continue
        if root not in op_index:
            if name == "oracles" and spans[root][NAME] == SETUP:
                self_ms["oracles"] += own_ms
            continue
        self_ms[name] += own_ms
        if name == "mc":
            reps += 1
            reps_ok += rec[WORK]
        if op_index[root] >= pass_ops:
            continue
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + rec[WORK]
        parent = rec[PARENT]
        if name == "estimators.gamma" and spans[parent][NAME] == "estimators.gamma":
            psi_evals += 1
        if name == "series.h_kernels":
            while parent >= 0 and not spans[parent][NAME].startswith("estimators."):
                parent = spans[parent][PARENT]
            sweeps += parent >= 0

    per_pass = max(min(pass_ops, n_ops), 1)
    m = min(len(op_ns), len(baseline_op_s))
    overhead = (sum(op_ns[:m]) / 1e9) / sum(baseline_op_s[:m]) - 1.0 if m else 0.0
    h_calls = calls.get("series.h_kernels", 0)

    metrics = {f"{layer}.self_ms": ms / max(n_ops, 1) for layer, ms in self_ms.items()}
    metrics["oracles.self_ms"] = self_ms["oracles"] / max(setups, 1)
    metrics.update({
        "laguerre.psi_bwd.calls": calls.get("laguerre.psi_bwd", 0) / per_pass,
        "series.h_kernels.calls": h_calls / per_pass,
        "series.h_kernels.z_per_call": work.get("series.h_kernels", 0) / h_calls if h_calls else 0.0,
        "estimators.h_sweeps_per_op": sweeps / per_pass,
        "estimators.gamma.psi_evals": psi_evals / per_pass,
        "simulate.grid_bytes_computed": work.get("simulate.path", 0) / per_pass,
        "tabular.rows_written": work.get("tabular.write_csv", 0) / per_pass,
        "mc.ok_share": reps_ok / reps if reps else 0.0,
        "trace.op_ms": sum(op_ns) / 1e6 / max(n_ops, 1),
        "trace.overhead_share": overhead,
    })
    return metrics
