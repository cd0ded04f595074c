"""The benchmark's workloads: one ``sim`` command each, its generated config,
and the checks its outputs must pass.

Seed 0 is the canonical configuration, whose outputs are compared with
``references.json``.  Any other seed perturbs the inputs within a narrow
range: the initial profile's amplitude (+-2 %) and width (+-3 %) for the
profile-based workloads, and kappa (+-5 %) for ``mms-source``.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

# Relative tolerance for the seed-0 reference comparison.  The outputs are
# byte-identical on unchanged code; the slack admits an engine that sums in
# another order.  Step counts are compared exactly.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-14

MIN_MMS_ORDER = 0.9
MAX_UNIFORMITY_RATIO = 2.0

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "run-direct": {
        "command": "run",
        "config": {"n": 200, "kappa": 0.1, "t_end": 0.03125,
                   "coupling": "direct"},
    },
    "sweep-kappa": {
        "command": "sweep",
        "config": {"n": 50, "t_end": 0.0625, "snapshot_interval": 0.0009765625},
    },
    "mms-source": {
        "command": "mms",
        "config": {"mms_t_end": 0.04, "mms_grids": "25,50,100"},
        "seeded": "kappa",
    },
    "run-mollified": {
        "command": "run",
        "config": {"n": 50, "kappa": 0.1, "t_end": 0.1,
                   "coupling": "mollified"},
    },
}


def config_text(name: str, seed: int) -> str:
    """The config file the workload's ``sim`` command reads."""
    spec = WORKLOADS[name]
    values = dict(spec["config"])
    rng = random.Random(seed)

    def jitter(scale):
        return 1.0 if seed == 0 else 1.0 + scale * (2.0 * rng.random() - 1.0)

    if spec.get("seeded") == "kappa":
        values["kappa"] = 0.1 * jitter(0.05)
    else:
        values["initial_profile"] = "smoothed-step"
        values["amplitude"] = 1.0 * jitter(0.02)
        values["profile_width"] = 0.3 * jitter(0.03)
    return "".join(f"{key} = {val!r}\n" if isinstance(val, float)
                   else f"{key} = {val}\n" for key, val in values.items())


def argv(name: str, config_path: Path, out_dir: Path) -> list:
    return [WORKLOADS[name]["command"], str(config_path),
            "--output", str(out_dir)]


def _csv_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_outputs(name: str, exit_code: int, out_dir: Path) -> list:
    """Problems with one run's outputs; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems = []
    command = WORKLOADS[name]["command"]
    if command == "run":
        meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
        if meta["verdicts"]["max_principle_ok"] is not True:
            problems.append("meta.json: max_principle_ok is not true")
    elif command == "mms":
        orders = [float(r["observed_order"]) for r in _csv_rows(out_dir / "mms.csv")
                  if r["observed_order"]]
        if not orders or min(orders) < MIN_MMS_ORDER:
            problems.append(f"mms.csv: observed orders {orders} below {MIN_MMS_ORDER}")
    else:
        bad = [r["kappa"] for r in _csv_rows(out_dir / "sweep.csv")
               if r["status"] != "ok"]
        if bad:
            problems.append(f"sweep.csv: rows not ok for kappa {bad}")
        meta = json.loads((out_dir / "sweep_meta.json").read_text(encoding="utf-8"))
        if meta["compactness_distances_decreasing"] is not True:
            problems.append("sweep_meta.json: compactness distances not decreasing")
        for key, entry in sorted(meta["uniformity"].items()):
            if not entry["ratio"] <= MAX_UNIFORMITY_RATIO:
                problems.append(f"sweep_meta.json: uniformity ratio of {key} "
                                f"is {entry['ratio']!r} > {MAX_UNIFORMITY_RATIO}")
    return problems


def reference_record(name: str, out_dir: Path) -> dict:
    """The values of one run compared against the seed-0 reference: the
    final monitors.csv row (per kappa for a sweep) and n_steps, or the MMS
    errors."""
    command = WORKLOADS[name]["command"]
    if command == "run":
        meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
        return {"n_steps": meta["verdicts"]["n_steps"],
                "final_monitors": _csv_rows(out_dir / "monitors.csv")[-1]}
    if command == "mms":
        return {"l2q_error": [r["l2q_error"] for r in _csv_rows(out_dir / "mms.csv")]}
    return {sub.name: _csv_rows(sub / "monitors.csv")[-1]
            for sub in sorted(out_dir.glob("kappa_*"))}


def compare_reference(expected, actual, where="") -> list:
    """Mismatches between two reference records: integers exactly, numbers
    to REFERENCE_RTOL, everything else by equality."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for key in sorted(expected)
                for m in compare_reference(expected[key], actual[key],
                                           f"{where}/{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in compare_reference(e, a, f"{where}[{i}]")]
    if isinstance(expected, int):
        return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]
    try:
        e, a = float(expected), float(actual)
    except (TypeError, ValueError):
        return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]
    if abs(a - e) <= REFERENCE_RTOL * max(abs(a), abs(e)) + REFERENCE_ATOL:
        return []
    return [f"{where}: {a!r} differs from reference {e!r}"]
