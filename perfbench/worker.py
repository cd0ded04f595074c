"""One benchmark call: a fresh process sets up the program, then runs one
workload's ``sim`` command in-process through ``cfphase.cli.main``, as the
``sim`` entry point would, and checks its outputs.

Started by ``run.py`` with ``PYTHONPATH=src`` and BLAS threads set to 1.
Prints one JSON object on its last stdout line.  With ``--traced`` the call
runs under the span tracer (tracer.py) and the spans are part of the result.
A calibration loop timed right before and right after the call measures
the host's current speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads

WARMUP_CONFIG = "n = 16\nkappa = 0.2\nt_end = 0.002\nsnapshot_interval = 0.001\n"
STEP_ITERS = 3000        # calibration loop sizes
HISTORY_ITERS = 60


def set_up():
    """Import the package and make a first tiny run; returns
    (import_s, setup_s)."""
    t0 = perf_counter()
    import cfphase
    t_import = perf_counter()
    cfg = cfphase.parse_config(WARMUP_CONFIG)
    cfphase.run(cfg.initial_field(), cfg.model_params(), cfg.solver_config())
    return t_import - t0, perf_counter() - t0


def calibrate() -> float:
    """Time a fixed mix of the program's two kinds of work, to measure how
    fast the host runs right now: small-array numpy arithmetic (a solver
    step) and stacking and interpolating a history of rows (the mollifier).
    Neither part calls the program."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 201)
    kappa = 0.1
    rows = [np.sin(np.linspace(0.0, 3.0, 51) + 0.001 * i) for i in range(512)]
    times = np.linspace(0.0, 0.1, 512)
    s = np.linspace(0.02, 0.09, 257)
    total = 0.0
    t0 = perf_counter()
    for _ in range(STEP_ITERS):
        d = np.diff(x) * 200.0
        w = np.hypot(d, kappa)
        f = 0.5 * (d * w + kappa * kappa * np.arcsinh(d / kappa))
        total += float(np.dot(f, w))
    for _ in range(HISTORY_ITERS):
        v = np.vstack(rows)
        idx = np.clip(np.searchsorted(times, s) - 1, 0, times.size - 2)
        theta = (s - times[idx]) / (times[idx + 1] - times[idx])
        total += float(((1.0 - theta)[:, None] * v[idx] + theta[:, None] * v[idx + 1]).sum())
    return perf_counter() - t0


def environment() -> dict:
    import importlib.util
    import os
    import platform

    import numpy

    import cfphase.solver as solver
    pick = getattr(solver, "_pick_engine", None)
    engine = "unknown"
    if pick is not None:
        engine = "compiled" if pick(solver.SolverConfig(), None) else "numpy"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "engine_for_default_run": engine,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def call(args) -> dict:
    """Run the workload's command once and check what it wrote."""
    import cfphase.cli as cli

    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.run_id = args.call
    out_dir = Path(args.workdir) / f"out-{args.call}"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    argv = workloads.argv(args.workload, Path(args.config), out_dir)

    if tracer is not None:
        tracer.install()
    cpu0 = _cpu_s()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # noqa: BLE001 - a crash is a failed call, not a failed benchmark
        traceback.print_exc()
        code = "exception"
    finally:
        wall = perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()

    try:
        problems = workloads.check_outputs(args.workload, code, out_dir)
        if args.reference and not problems:
            reference = json.loads(Path(args.reference).read_text(encoding="utf-8"))
            problems = workloads.compare_reference(
                reference[args.workload],
                workloads.reference_record(args.workload, out_dir), args.workload)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        problems = [f"cannot read the outputs: {exc!r}"]
    result = {"wall_s": wall, "cpu_s": cpu, "problems": problems,
              "bytes_written": sum(p.stat().st_size for p in out_dir.rglob("*")
                                   if p.is_file()) if out_dir.exists() else 0}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(args.call)
        result["missing_hooks"] = tracer.missing
        result["spans"] = tracer.spans
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--call", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--reference", default=None)
    args = parser.parse_args()

    import_s, setup_s = set_up()
    result = {"import_s": import_s, "setup_s": setup_s, "env": environment()}
    calibration = calibrate()
    result.update(call(args))
    result["calibration_s"] = 0.5 * (calibration + calibrate())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
