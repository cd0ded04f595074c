"""Traced benchmark runs repeat their counts exactly, and the top-level
spans account for the measured wall time of each traced call."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run as bench  # noqa: E402

COUNTS = ("solver.steps", "estimates.snapshots", "mollifier.averages",
          "convergence.source_calls", "cli.bytes_written")
# A traced call's top-level span (cli.main) covers at least this share of
# the wall time measured around it.
SPAN_SHARE = 0.98


@pytest.mark.parametrize("workload", ["run-mollified", "mms-source"])
def test_traced_counts_repeat(workload):
    first, second = (bench.run_workload(workload, seed=7, seconds=0.0, trace=True)
                     for _ in range(2))
    for rec in (first, second):
        assert rec["failed"] == 0, rec["problems"]
        assert rec["missing_hooks"] == []
        coverage = rec["summaries"]["trace.span_coverage"]
        assert SPAN_SHARE <= coverage["min"] and coverage["q3"] <= 1.0
    for key in COUNTS:
        assert first["summaries"][key] == second["summaries"][key], key
    assert first["metrics"]["solver.steps"]["value"] > 0
    assert first["metrics"]["estimates.snapshots"]["value"] > 0
    assert first["metrics"]["cli.bytes_written"]["value"] > 0
    layer = {"run-mollified": "mollifier.averages",
             "mms-source": "convergence.source_calls"}[workload]
    assert first["metrics"][layer]["value"] > 0
