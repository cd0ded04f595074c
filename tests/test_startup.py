"""What ``import cfphase`` costs: every ``sim`` command pays it in a fresh
process, so the import does no numerical work and loads no thread pool."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Loads cfphase.quadrature on its own and wraps adaptive_simpson before the
# package's other modules load (and bind it), then imports the package.
_PROBE = r"""
import importlib.util, json, sys

spec = importlib.util.find_spec("cfphase")
path = spec.submodule_search_locations[0] + "/quadrature.py"
qspec = importlib.util.spec_from_file_location("cfphase.quadrature", path)
quadrature = importlib.util.module_from_spec(qspec)
sys.modules["cfphase.quadrature"] = quadrature
qspec.loader.exec_module(quadrature)

calls = []
real = quadrature.adaptive_simpson

def counting(*args, **kwargs):
    calls.append(args[1:3])
    return real(*args, **kwargs)

quadrature.adaptive_simpson = counting

import cfphase
import cfphase.model

print(json.dumps({
    "wrapped": cfphase.model.adaptive_simpson is counting,
    "calls": len(calls),
    "loaded": sorted(m for m in ("concurrent.futures", "logging")
                     if m in sys.modules),
}))
"""


def test_import_does_no_quadrature_and_loads_no_pool():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["wrapped"]
    assert got["calls"] == 0
    assert got["loaded"] == []
