"""The sha256 of every file the ``sim`` CLI writes, over a fixed set of cases.

    PYTHONPATH=src python tools/cli_hashes.py [--out HASHES.json]
        [--compare OLD.json | --against REV]

Cases: the seed-0 configs of the four benchmark workloads, a Picard run,
a Picard run whose kernel (kappa = 0.4 over t_end = 0.1) clips the
centered window of every table row at t = 0 and at t_end, runs that emit
every 7th step (direct, and mollified and Picard, whose rows hold the
coupling field too), a run under the sine body force, a run with a
shear misfit strain, non-default Lame constants and a constant body force,
a run on a grid so wide that one snapshot is more than one block of the
``snapshots.csv`` writer, a sweep on a sextic double well with wells at
-0.25 and 1, a sweep on 200 cells (wider than numpy's 128-value pairwise
sum block, so the weak residuals pair rows that sum recursively), and
``sim mms`` with mollified and with Picard coupling (the only CLI path
that runs a source with an averaged coupling field) and with c, nu, kappa,
the sextic well, the shear misfit and the Lame constants off their
defaults (the only case whose manufactured source reads constants that are
not the defaults) and on grids 25 and 75 (the one refinement that does not
double, whose order divides by log2 of 3), and a run at kappa = 1e-9,
whose gradients pass 2^28 kappa, so the step's asinh takes libm's asinh
on glibc's large-argument branch, and a run at nu = 1e307 whose initial
right-hand side overflows, which pins the exit code 2 of an abort on the
first step, and runs on 8 cells at nu = 0.01, direct and mollified
(``reaction-cap`` and ``reaction-cap-mollified``), on which the reaction
cap, not the diffusion limit, sets each of the 32 steps, each with
``jit = auto`` (its one value).  The
4/3-power pass's special lanes run in two of them: the zero lanes of the
smoothed-step plateaus in ``run-direct``, and the lone last value in
``wide``, whose 4999 interior nodes leave 7 in the last block of 64.  The
hashes and exit codes are keyed ``case/auto/file``, the
layout of hash files that also held ``case/off/file`` entries from the
numpy engine, which no longer exists; ``--compare`` lists every key whose
value differs from the older file's (or is missing from either) and then
exits 1.  ``--against REV`` compares in the same way with the hashes of the
git revision REV, which this tool takes in a subprocess that imports the
package of a ``git archive`` of REV (so both sides run the same cases and
keys).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench.workloads import WORKLOADS, config_text  # noqa: E402

from cfphase.cli import main  # noqa: E402

SMALL = "n = 50\nkappa = 0.1\nt_end = 0.1\n"
CASES = {name: (spec["command"], config_text(name, 0)) for name, spec in WORKLOADS.items()}
CASES["picard"] = ("run", SMALL + "coupling = picard\n")
CASES["picard-wide-kernel"] = ("run", "n = 50\nkappa = 0.4\nt_end = 0.1\n"
                               "coupling = picard\n")
STRIDE = "n = 50\nkappa = 0.1\nt_end = 0.02\nsnapshot_interval = 0.0\nsnapshot_stride = 7\n"
CASES["stride"] = ("run", STRIDE)
CASES["stride-mollified"] = ("run", STRIDE + "coupling = mollified\n")
CASES["stride-picard"] = ("run", STRIDE + "coupling = picard\n")
CASES["body-sine"] = ("run", SMALL + "body_force = sine\n")
SHEAR = "lame_lambda = 2.0\nlame_mu = 0.5\nepsbar = 0.3, -0.2, 0.1, 0.4, -0.25, 0.15\n"
CASES["elastic-shear"] = ("run", SMALL + SHEAR + "body_force = constant\n"
                          "body_force_vector = 0.5, -0.25, 1.0\n")
CASES["wide"] = ("run", "n = 5000\nt_end = 1e-06\nsnapshot_interval = 5e-07\n")
SEXTIC = ("potential = poly\npoly_coeffs = 1.0, -2.25, 2.328125, -1.3828125, "
          "-0.1474609375, 0.380859375, 0.0712890625\nwells = -0.25, 0.375, 1.0\n")
CASES["sweep-sextic"] = ("sweep", "n = 50\nt_end = 0.1\n" + SEXTIC
                         + "initial_profile = sine\namplitude = 0.9\n")
CASES["sweep-wide"] = ("sweep", "n = 200\nt_end = 0.005\nsnapshot_interval = 7.8125e-05\n")
MMS = "mms_grids = 25,50\nmms_t_end = 0.02\n"
CASES["mms-mollified"] = ("mms", MMS + "coupling = mollified\n")
CASES["mms-picard"] = ("mms", MMS + "coupling = picard\n")
CASES["mms-constants"] = ("mms", MMS + "c = 2.0\nnu = 0.5\nkappa = 0.15\n" + SEXTIC + SHEAR)
CASES["mms-uneven"] = ("mms", "mms_grids = 25,75\nmms_t_end = 0.02\n")
CASES["kappa-tiny"] = ("run", "n = 50\nkappa = 1e-9\nt_end = 0.02\ninitial_profile = smoothed-step\n")
CASES["nonfinite-start"] = ("run", "n = 32\nnu = 1e307\ninitial_profile = sine\n"
                            "amplitude = 10\n")
CAP = "n = 8\nnu = 0.01\nt_end = 0.05\nsnapshot_interval = 0.01\n"
CASES["reaction-cap"] = ("run", CAP)
CASES["reaction-cap-mollified"] = ("run", CAP + "coupling = mollified\n")


def hashes() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, text) in CASES.items():
            case = Path(tmp, name)
            case.mkdir()
            (case / "config.txt").write_text(text + "jit = auto\n")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, str(case / "config.txt"), "--output", str(case / "out")])
            out[f"{name}/auto/exit code"] = str(code)
            for path in sorted((case / "out").rglob("*")):
                if path.is_file():
                    key = f"{name}/auto/{path.relative_to(case / 'out')}"
                    out[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def hashes_at(rev: str) -> dict:
    """The hashes of revision ``rev``: this tool, run on a ``git archive``
    of it in a temporary directory, with only its ``src`` on PYTHONPATH."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        out = Path(tmp, "hashes.json")
        subprocess.run([sys.executable, __file__, "--out", str(out)], check=True,
                       env=dict(os.environ, PYTHONPATH=str(Path(tmp, "src"))))
        return json.loads(out.read_text())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the hashes to this JSON file")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--compare", help="an older hash file to compare with")
    group.add_argument("--against", metavar="REV", help="a git revision to compare with")
    args = parser.parse_args()
    new = hashes()
    if args.out:
        Path(args.out).write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    if args.compare or args.against:
        old = (json.loads(Path(args.compare).read_text()) if args.compare
               else hashes_at(args.against))
        differ = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        print("\n".join(differ) or f"all {len(new)} entries identical")
        sys.exit(1 if differ else 0)
