"""qscale benchmark: one closed-loop workload per run, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload curve --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``curve`` (``scale compute`` path),
``mc_t1600`` (one Monte Carlo replication at T = 1600) and ``roundtrip``
(``scale simulate`` + ``scale estimate`` through files).  Each run imports
qscale from ``src/`` of the checkout, sets the workload up several times,
then runs operations one after another, in whole passes, until ``--seconds``
have elapsed, checking every operation's outputs.

``--trace 0`` prints the end-to-end metrics (``END_TO_END``).  ``--trace 1``
sets up once under tracing, runs every pass untraced and then traced, prints
the per-layer metrics (``tracing.PER_LAYER``) and writes the spans to
``.perfbench_out/``.  End-to-end numbers come only from untraced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every operation passed its check, 1 when one failed and 2 when the
program cannot be found or set up.  The run uses one process; BLAS threads
default to the number of usable cores.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MAX_TRACEBACKS = 3

# name -> unit.  ops_per_s is operations per second of time spent in them;
# ops_failed_share is the result's failed / attempted.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "w_max_rel_err": "ratio",
    "peak_rss_mb": "MB",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> dict:
    """Thread count of each OpenBLAS that numpy and scipy load."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "lib*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    found[pkg.__name__] = fn()
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "python_threads": threading.active_count(),
    }


def import_program() -> float:
    """Import qscale from the checkout's src/ and the workloads; returns seconds taken."""
    if not (SRC / "qscale" / "__init__.py").is_file():
        raise FileNotFoundError(f"qscale sources not found under {SRC}")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(nproc()))
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qscale
    import workloads  # noqa: F401  (imports every qscale module the workloads use)

    if Path(qscale.__file__).resolve().parent != SRC / "qscale":
        raise ImportError(f"imported qscale from {qscale.__file__}, not from {SRC}")
    return time.perf_counter() - t0


def collect_garbage() -> float:
    """Free unreachable reference cycles; returns the MB of arrays they held.

    The estimation path leaves each observation set in a reference cycle
    (through a closure that scipy's root finder keeps), so without a
    collection after each operation every T = 1600 replication would leave
    its 20 MB grid behind until the interpreter's next cyclic collection,
    and peak memory and page-fault time would depend on where a run stops
    in the collector's cycle.
    """
    import numpy as np

    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
    finally:
        gc.set_debug(0)
    arrays = {id(a): a for obj in gc.garbage for a in gc.get_referents(obj)
              if isinstance(a, np.ndarray)}
    gc.garbage.clear()
    gc.collect()
    return sum(a.nbytes for a in arrays.values()) / 2**20


class Loop:
    """Closed loop over a workload: operation i + 1 starts when operation i returns."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.garbage_mb: list[float] = []  # per operation, in the order run

    def run_pass(self, p: int, tracer=None) -> list[float]:
        """Operations of pass p, each under a bench.op span when `tracer` is given.

        Returns the wall time of every operation that returned.  Its check
        and a garbage collection run outside the timed region.
        """
        from workloads import CheckFailed

        wl, times = self.wl, []
        for i in range(p * wl.pass_ops, (p + 1) * wl.pass_ops):
            self.attempted += 1
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    out = wl.op(i)
                    times.append(time.perf_counter() - t0)
                else:
                    with tracer.span("bench.op", work=i):
                        t0 = time.perf_counter()
                        out = wl.op(i)
                        times.append(time.perf_counter() - t0)
                wl.check(i, out)
            except CheckFailed as exc:
                self._fail(f"{wl.name} op {i}: check failed: {exc}")
            except Exception:  # the loop keeps measuring; the run reports the failure
                self._fail(f"{wl.name} op {i} raised:\n{traceback.format_exc()}")
            self.garbage_mb.append(collect_garbage())
        return times

    def run(self, seconds: float, tracer=None) -> tuple[list[list[float]], list[list[float]]]:
        """Passes 0, 1, ... until `seconds` have elapsed; returns untraced and traced times.

        With a tracer each pass runs untraced and then traced on the same
        inputs, so that drift in machine speed cancels out of the overhead.
        """
        plain, traced, p = [], [], 0
        deadline = time.perf_counter() + seconds
        while p == 0 or time.perf_counter() < deadline:
            plain.append(self.run_pass(p))
            if tracer is not None:
                with tracer.installed():
                    traced.append(self.run_pass(p, tracer))
            p += 1
        return plain, traced

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_TRACEBACKS:
            print(message, file=sys.stderr)


def run_untraced(name: str, seed: int, seconds: float, import_s: float):
    import workloads

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.make(name, seed, OUT)
        setup_times.append(time.perf_counter() - t0)
        collect_garbage()
        if len(setup_times) < SETUP_REPEATS:
            wl.close()
    loop = Loop(wl)
    try:
        passes, _ = loop.run(seconds)
    finally:
        wl.close()
    times = [t for p in passes for t in p]
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": len(times) / sum(times) if times else 0.0,
        "w_max_rel_err": wl.w_max_rel_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return loop, metrics, {"op_s": times, "setup_s": setup_times, "import_s": import_s}


def run_traced(name: str, seed: int, seconds: float):
    import tracing
    import workloads

    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span(tracing.SETUP):
        wl = workloads.make(name, seed, OUT)
    collect_garbage()
    loop = Loop(wl)
    try:
        baseline, traced = loop.run(seconds, tracer)
    finally:
        wl.close()
    pass_means = [statistics.fmean(p) for p in baseline if p]
    baseline = [t for p in baseline for t in p]
    traced = [t for p in traced for t in p]
    metrics = tracing.layer_metrics(tracer.spans, wl.pass_ops, baseline)
    metrics["bench.cyclic_garbage_mb"] = statistics.fmean(loop.garbage_mb[: wl.pass_ops])
    metrics["bench.op_ms_p50"] = 1e3 * statistics.median(pass_means) if pass_means else 0.0
    tracer.dump(OUT / f"trace-{name}.json")
    return loop, metrics, {"op_s_untraced": baseline, "op_s_traced": traced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["curve", "mc_t1600", "roundtrip"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        import_s = import_program()
        OUT.mkdir(exist_ok=True)
        if args.trace:
            loop, metrics, samples = run_traced(args.workload, args.seed, args.seconds)
        else:
            loop, metrics, samples = run_untraced(
                args.workload, args.seed, args.seconds, import_s
            )
    except Exception:  # no result can be measured: report and exit without one
        traceback.print_exc()
        return 2

    import tracing

    units = tracing.PER_LAYER if args.trace else END_TO_END
    env = environment()
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "samples": samples, **result}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    width = max(len(k) for k in units)
    for k, u in units.items():
        print(f"{k:<{width}}  {metrics[k]:.6g} {u}")
    print(f"{'ops_failed_share':<{width}}  {loop.failed / loop.attempted:.6g} "
          f"({loop.failed}/{loop.attempted})")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
