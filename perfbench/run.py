"""cfphase benchmark: run one workload (or all of them), check the outputs,
and print the metrics.

    python3 perfbench/run.py --workload run-direct --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Each workload is one ``sim`` command.  A call is a fresh worker process
(worker.py, with ``PYTHONPATH=src`` and BLAS threads set to 1) that sets the
program up and then runs the command once in-process through
``cfphase.cli.main``, as the ``sim`` entry point does.  Calls repeat, one
after another, until ``--seconds`` have passed.

With ``--trace 0`` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones.  Names and
units come from BENCHMARK.json.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full records go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (lives next to this file)

DEADLINE_S = 170.0      # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# On the shared 2-core VM the benchmark was built on, host speed drifts in
# phases of seconds to minutes that slow every call by up to 1.7x, in CPU
# time as much as in wall time.  So the end-to-end time metrics are
# host-normalized: each call's measured seconds are scaled by
# CALIBRATION_REF_S / (the worker's calibration loop time around that call),
# which gives seconds at the speed that VM has when it is quiet.  Raw
# seconds are printed and recorded beside them.
CALIBRATION_REF_S = 0.052

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(RuntimeError):
    """The benchmark could not run the program; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(args: list, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                              capture_output=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _summary(values: list) -> dict:
    values = sorted(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"min": values[0], "q1": q1, "median": statistics.median(values),
            "q3": q3, "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return its record."""
    started = time.monotonic()
    if not (ROOT / "src" / "cfphase" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {ROOT / 'src'}")
    results = HERE / "results"
    workdir = HERE / "work" / f"{name}-{os.getpid()}"
    results.mkdir(exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = workloads.config_text(name, seed)
    config_path = workdir / "config.cfg"
    config_path.write_text(config, encoding="utf-8")
    args = ["--workload", name, "--config", str(config_path),
            "--workdir", str(workdir)]
    if seed == 0:
        args += ["--reference", str(HERE / "references.json")]
    calls = []
    try:
        # a traced run alternates untraced and traced calls, so that the
        # tracing overhead is measured within the run
        while (not calls or (trace and len(calls) < 2)
               or time.monotonic() - started < seconds):
            traced = trace and len(calls) % 2 == 1
            extra = ["--call", str(len(calls))] + (["--traced"] if traced else [])
            result = _worker(args + extra, DEADLINE_S - (time.monotonic() - started))
            result["traced"] = traced
            calls.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [c for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    for c in calls:
        c["host_factor"] = CALIBRATION_REF_S / c["calibration_s"]
    summaries = {
        "wall_s": _summary([c["wall_s"] * c["host_factor"] for c in plain]),
        "setup_s": _summary([c["setup_s"] * c["host_factor"] for c in calls]),
        "peak_rss_mb": _summary([c["peak_rss_mb"] for c in plain]),
        "wall_raw_s": _summary([c["wall_s"] for c in plain]),
        "setup_raw_s": _summary([c["setup_s"] for c in calls]),
        "host_factor": _summary([c["host_factor"] for c in calls]),
    }
    if trace:
        from tracer import span_columns
        import numpy as np
        spans = [span for c in traced for span in c.pop("spans")]
        np.savez_compressed(results / f"{name}-seed{seed}-spans.npz",
                            **span_columns(spans))
        plain_wall = summaries["wall_raw_s"]["median"]
        summaries = {key: _summary([c["layers"][key] for c in traced])
                     for key in LAYER_UNITS if key in traced[0]["layers"]}
        summaries.update({
            "cli.bytes_written": _summary([c["bytes_written"] for c in traced]),
            "proc.cpu_s": _summary([c["cpu_s"] for c in plain]),
            "proc.import_s": _summary([c["import_s"] for c in calls]),
            "trace.wall_s": _summary([c["wall_s"] for c in traced]),
            "trace.overhead_s": _summary([c["wall_s"] - plain_wall for c in traced]),
            "trace.span_coverage": _summary([c["layers"]["top_span_s"] / c["wall_s"]
                                             for c in traced]),
        })
    units = LAYER_UNITS if trace else END_TO_END
    metrics = {key: {"value": summaries[key]["median"], "unit": unit}
               for key, unit in units.items()}
    failed = sum(bool(c["problems"]) for c in calls)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "config": config, "env": calls[0]["env"],
        "missing_hooks": sorted({h for c in traced for h in c["missing_hooks"]}),
        "problems": [f"call {i}: {p}" for i, c in enumerate(calls)
                     for p in c["problems"]][:20],
        "attempted": len(calls), "failed": failed,
        "failed_frac": failed / len(calls),
        "summaries": summaries,
        "calls": [{k: c[k] for k in ("wall_s", "setup_s", "calibration_s",
                                      "host_factor", "traced")} for c in calls],
        "metrics": metrics,
    }
    out = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def _print_table(records: list):
    print(f"{'workload':<15} {'metric':<30} {'median':>12} {'unit':<6} "
          f"{'n':>4} {'min':>12} {'q1':>12} {'q3':>12}")
    for rec in records:
        units = LAYER_UNITS if rec["trace"] else dict(
            END_TO_END, wall_raw_s="s", setup_raw_s="s", host_factor="ratio")
        for key, unit in units.items():
            s = rec["summaries"][key]
            print(f"{rec['workload']:<15} {key:<30} {s['median']:12.6g} {unit:<6} "
                  f"{s['n']:>4} {s['min']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g}")
        print(f"{rec['workload']:<15} {'failed_frac':<30} "
              f"{rec['failed_frac']:12.6g} {'ratio':<6} {rec['attempted']:>4}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        print("# env " + json.dumps(rec["env"], sort_keys=True))
        print(f"# {rec['workload']} config: " + rec["config"].strip().replace("\n", "; "))
        for problem in rec["problems"]:
            print(f"# {rec['workload']} check failed: {problem}")
        if rec["missing_hooks"]:
            print(f"# {rec['workload']} hooks not found: {rec['missing_hooks']}")
    _print_table(records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{rec['workload']}.{key}": m
                   for rec in records for key, m in rec["metrics"].items()}
    print(json.dumps({
        "correct": all(rec["failed"] == 0 for rec in records),
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
