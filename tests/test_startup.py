"""What ``import cfphase`` costs: every ``sim`` command pays it in a fresh
process, so the import loads only the program's modules (no quadrature,
no generator of the formatter's table), no thread pool, and generates the
dataclass methods of the three configs alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = r"""
import dataclasses, json, sys

processed = []
_process_class = dataclasses._process_class


def recording(cls, *args, **kwargs):
    processed.append(cls.__name__)
    return _process_class(cls, *args, **kwargs)


dataclasses._process_class = recording

import cfphase

print(json.dumps({
    "package": sorted(m for m in sys.modules
                      if m == "cfphase" or m.startswith("cfphase.")),
    "loaded": sorted(m for m in ("concurrent.futures", "logging")
                     if m in sys.modules),
    "dataclasses": sorted(processed),
}))
"""

# every module ``import cfphase`` loads; ``cfphase.cli`` loads on its own
PROGRAM_MODULES = ["cfphase", "cfphase._native", "cfphase.config",
                   "cfphase.convergence", "cfphase.elasticity",
                   "cfphase.estimates", "cfphase.model", "cfphase.mollifier",
                   "cfphase.solver", "cfphase.tensors"]


def test_import_does_no_quadrature_and_loads_no_pool():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["package"] == PROGRAM_MODULES
    assert got["loaded"] == []
    # only the configs whose callers use ``replace``, ``asdict`` or
    # ``fields`` are dataclasses; generating a class's methods costs about
    # 1-3 ms per process
    assert got["dataclasses"] == ["ModelParams", "RunConfig", "SolverConfig"]
