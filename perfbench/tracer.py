"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the program: :class:`Tracer.install`
replaces public entry points of the ``cfphase`` modules with timing
wrappers, and :meth:`Tracer.uninstall` puts the originals back.  The
program's source is never changed.

Each span has a name, start, end, parent span id and run id (one run id per
``cli.main`` call).  Spans stay in memory until the benchmark writes them
once at the end.  A span's self time is its duration minus the union of its
children's intervals, so the overlapping runs of a threaded sweep are not
counted twice.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from time import perf_counter

import numpy as np

# (module, attribute or Class.method, span name); every module of the
# package that holds the same function object under that name is patched,
# because ``from .x import f`` copies the reference.
HOOKS = (
    ("cfphase.cli", "main", "cli.main"),
    ("cfphase.solver", "run", "solver.run"),
    ("cfphase.solver", "run_with_coupling_table", "solver.run"),
    ("cfphase.estimates", "MonitorAccumulator.snapshot", "estimates.snapshot"),
    ("cfphase.estimates", "MonitorAccumulator.accumulate", "estimates.accumulate"),
    ("cfphase.elasticity", "ElasticityOperator.from_params", "elasticity"),
    ("cfphase.elasticity", "solve_correction", "elasticity"),
    ("cfphase.elasticity", "assemble_displacement", "elasticity"),
    ("cfphase.mollifier", "_mollify_arrays", "mollifier.average"),
    ("cfphase.convergence", "manufactured_source", "convergence.make_source"),
    ("cfphase.convergence", "manufactured_run", "convergence.mms"),
    ("cfphase.convergence", "weak_residual_family", "convergence.weak_residual"),
    ("cfphase.convergence", "compactness_distance", "convergence.distance"),
    ("cfphase.convergence", "trajectory_l2_distance", "convergence.distance"),
    ("cfphase.convergence", "reaction_factor_gap", "convergence.distance"),
    ("cfphase.convergence", "kappa_sweep", "convergence.sweep"),
)

SOLVER_SPAN = "solver.run"
SOURCE_SPAN = "convergence.source"


class Tracer:
    """In-memory span recorder with install/uninstall of the hooks."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, run)
        self.counters = {}       # (run, name) -> count
        self.run_id = -1
        self.missing = []        # hooks whose target does not exist
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack
        self._patches = []       # (owner, attribute, original raw value)

    # ---- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a worker thread (the sweep's pool) inherits the span that the
        # main thread has open while it waits for the pool
        main = self._main_stack
        return main[-1] if main else -1

    def count(self, name, n=1):
        key = (self.run_id, name)
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name, on_result=None):
        """Return ``fn`` wrapped in a span named ``name``.  ``on_result``
        sees (args, result) after the call and may replace the result."""
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.run_id))
            if on_result is not None:
                result = on_result(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    # ---- result hooks --------------------------------------------------------

    def _count_steps(self, args, result):
        config = args[2] if len(args) > 2 else None
        if getattr(config, "coupling", None) != "picard":
            # a Picard run only wraps inner runs, which count themselves
            traj, monitors = result[0], result[1]
            self.count("solver.steps", int(monitors.n_steps))
            self.count("solver.node_steps",
                       int(monitors.n_steps) * (traj.grid.n_nodes - 2))
        return result

    def _wrap_source(self, args, source):
        return self.wrap(source, SOURCE_SPAN)

    # ---- install / uninstall -------------------------------------------------

    def install(self):
        """Patch every hook target; targets that no longer exist are listed
        in ``self.missing`` and reported instead of failing the run."""
        on_result = {SOLVER_SPAN: self._count_steps,
                     "convergence.make_source": self._wrap_source}
        self.missing = []
        for module_name, target, name in HOOKS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.missing.append(f"{module_name}.{target}")
                continue
            hook = on_result.get(name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name, hook))
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self.wrap(raw, name, hook)
            if owner_name:
                self._patch(owner, attr, raw, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "cfphase" or mod_name.startswith("cfphase.")) \
                        and vars(mod).get(attr) is raw:
                    self._patch(mod, attr, raw, wrapped)

    def _patch(self, owner, attr, raw, wrapped):
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    # ---- analysis -------------------------------------------------------------

    def layer_metrics(self, run_id):
        """Per-layer totals of one traced ``cli.main`` call."""
        spans = [s for s in self.spans if s[5] == run_id]
        children = {}
        for s in spans:
            children.setdefault(s[4], []).append((s[2], s[3]))
        total = {}
        calls = {}
        self_time = {}
        for sid, name, t0, t1, _, _ in spans:
            total[name] = total.get(name, 0.0) + (t1 - t0)
            calls[name] = calls.get(name, 0) + 1
            covered = union_length(children.get(sid, ()), t0, t1)
            self_time[name] = self_time.get(name, 0.0) + (t1 - t0 - covered)
        runs = [(s[2], s[3]) for s in spans if s[1] == SOLVER_SPAN]
        run_union = union_length(runs, -np.inf, np.inf)
        steps = self.counters.get((run_id, "solver.steps"), 0)
        solver_self = self_time.get(SOLVER_SPAN, 0.0)
        return {
            "solver.run_s": total.get(SOLVER_SPAN, 0.0),
            "solver.self_s": solver_self,
            "solver.runs": calls.get(SOLVER_SPAN, 0),
            "solver.steps": steps,
            "solver.node_steps": self.counters.get((run_id, "solver.node_steps"), 0),
            "solver.us_per_step": 1e6 * solver_self / steps if steps else 0.0,
            "estimates.snapshot_s": total.get("estimates.snapshot", 0.0),
            "estimates.snapshots": calls.get("estimates.snapshot", 0),
            "estimates.accumulate_s": total.get("estimates.accumulate", 0.0),
            "estimates.accumulates": calls.get("estimates.accumulate", 0),
            "elasticity.s": total.get("elasticity", 0.0),
            "elasticity.calls": calls.get("elasticity", 0),
            "mollifier.average_s": total.get("mollifier.average", 0.0),
            "mollifier.averages": calls.get("mollifier.average", 0),
            "convergence.source_s": total.get(SOURCE_SPAN, 0.0),
            "convergence.source_calls": calls.get(SOURCE_SPAN, 0),
            "convergence.weak_residual_s": total.get("convergence.weak_residual", 0.0),
            "convergence.distance_s": total.get("convergence.distance", 0.0),
            "convergence.sweep_self_s": self_time.get("convergence.sweep", 0.0),
            "convergence.sweep_run_overlap": (sum(b - a for a, b in runs) / run_union
                                              if run_union > 0.0 else 0.0),
            "cli.self_s": self_time.get("cli.main", 0.0),
            "top_span_s": sum(t1 - t0 for _, _, t0, t1, parent, _ in spans
                              if parent == -1),
        }


def union_length(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    covered = 0.0
    end = -np.inf
    for a, b in sorted(intervals):
        a = max(a, lo, end)
        b = min(b, hi)
        if b > a:
            covered += b - a
            end = b
    return covered


def span_columns(spans):
    """Spans as named columns, for writing once at the end of a run."""
    names = sorted({s[1] for s in spans})
    code = {n: i for i, n in enumerate(names)}
    rows = sorted(spans, key=lambda s: (s[5], s[0]))
    return {
        "names": np.array(names),
        "id": np.array([s[0] for s in rows], dtype=np.int64),
        "name": np.array([code[s[1]] for s in rows], dtype=np.int32),
        "start": np.array([s[2] for s in rows]),
        "end": np.array([s[3] for s in rows]),
        "parent": np.array([s[4] for s in rows], dtype=np.int64),
        "run": np.array([s[5] for s in rows], dtype=np.int32),
    }
