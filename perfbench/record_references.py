"""Record references.json: run every workload once at seed 0 with the current
program and keep the values that the benchmark compares on seed 0.

    PYTHONPATH=src python3 perfbench/record_references.py

Re-record only when a change is meant to alter the program's numbers, and
say so in that change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads

import cfphase.cli as cli


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for name in workloads.WORKLOADS:
            config = Path(tmp) / f"{name}.cfg"
            config.write_text(workloads.config_text(name, 0), encoding="utf-8")
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(workloads.argv(name, config, out))
            problems = workloads.check_outputs(name, code, out)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            refs[name] = workloads.reference_record(name, out)
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
