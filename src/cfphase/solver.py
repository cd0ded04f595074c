"""Explicit conservative finite-difference integration of the regularized
order-parameter equation, coupled to the quasi-static elasticity solve.

The degenerate diffusion term is differenced in flux form through the
antiderivative of the smoothed absolute value, so interior flux differences
telescope to boundary fluxes exactly; the reaction uses the central gradient
and vanishes identically wherever that gradient is zero.  Time stepping is
forward Euler under an adaptive step-size budget for the gradient-dependent
diffusion coefficient plus a reaction cap.

One driver, one kernel.  The run's setup (``_start``) and its driver
(``_drive``) own, once, what a run does around the steps: the check of its
inputs, the emission plan (the stop times min(t_end, cadence k), or a
stride), the row store (``_Emitter``), the ``max_steps`` budget and the
mapping of the kernel's non-finite status to ``SolverAbort``.
The kernel, ``_native._CompiledKernel`` (whose docstring gives its
interface), steps and records the planned rows itself, so a run makes one
call per ``_CHUNK`` steps, not one per snapshot.  Public ``step`` is one
step of that kernel under that setup, so there is one step formula in the
package; its numpy copy (``_rhs_and_budget``) gives only the first row's
||S_t||^2 and the tests' reference kernel.

A run takes only inputs it can run: a body force given as nodal values,
not as a function of time, and no source hook or one that carries a
compiled form (the ``convergence.ManufacturedSolution`` whose source it
is).  Any other input is a ``ValueError`` before the first step, and a
missing compiled library is ``_native.Unavailable``; no run falls back to
another engine.
Picard coupling's fixed-point sweeps are iterated in ``run`` alone.
A source hook is called as ``source(t, grid, params, op)`` and reads the
model constants and the elasticity operator of the run that calls it, as
the loop reads them from its context.  A source forces the equation, so the
monitors' running integrals (``estimates.RUNNING_INTEGRALS``) bound nothing
in a run that has one: the loop skips them and their columns read NaN.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import mollifier as _mollifier
from ._native import _CompiledKernel
from .elasticity import (ElasticityOperator, coupling_stress_rows,
                         solve_correction, zero_body_force)
from .estimates import ACC_SLOTS, RUNNING_INTEGRALS, MonitorAccumulator
from .model import (ModelParams, ScalarField, Trajectory, flux_primitive,
                    trajectory_l2_distance, trapezoid, trapezoid_rows)
from .tensors import ReadOnlyRecord

_CHUNK = 16384


class SolverAbort(RuntimeError):
    """Raised when a run cannot continue (non-finite state, budget blown)."""

    def __init__(self, reason: str, t: float, step: int):
        super().__init__(f"{reason} (t={t!r}, step {step})")
        self.reason = reason
        self.t = t
        self.step = step


@dataclass(frozen=True)
class SolverConfig:
    """Run controls: coupling mode, step-size safety, output cadence."""

    coupling: str = "direct"            # direct | mollified | picard
    cfl_safety: float = 0.4
    max_steps: int = 5_000_000
    source: Optional[Callable] = None   # source(t, grid, params, op) -> nodal values
    snapshot_stride: int = 1            # record every k-th step ...
    snapshot_interval: float = 0.0      # ... or at this time spacing if > 0
    picard_sweeps: int = 2
    mollify_samples: int = 257
    mollify_table: int = 513
    dt_override: float = 0.0            # forced step size (stability tests)

    def __post_init__(self):
        if self.coupling not in ("direct", "mollified", "picard"):
            raise ValueError("coupling must be direct, mollified or picard")
        if not (0.0 < self.cfl_safety < 1.0):
            raise ValueError("cfl_safety must lie in (0, 1)")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        # the negated comparisons reject NaN too; an infinite forced step
        # would be cut to each stop instead of forcing one
        if not self.snapshot_interval >= 0.0:
            raise ValueError("snapshot_interval must be >= 0")
        if not (self.dt_override >= 0.0 and np.isfinite(self.dt_override)):
            raise ValueError("dt_override must be finite and >= 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.picard_sweeps < 0:
            raise ValueError("picard_sweeps must be >= 0")
        if self.mollify_samples < 1 or self.mollify_table < 2:
            raise ValueError("mollify_samples must be >= 1, mollify_table >= 2")


class StepReport(ReadOnlyRecord):
    """What ``step`` took: the step from t of size dt, the new max|S| and
    the elasticity solve's residual."""

    __slots__ = ("t", "dt", "max_abs_s", "elasticity_residual")

    def __init__(self, t: float, dt: float, max_abs_s: float,
                 elasticity_residual: float):
        if not (dt > 0.0):
            raise ValueError("step size must be positive")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "max_abs_s", max_abs_s)
        object.__setattr__(self, "elasticity_residual", elasticity_residual)


# ---------------------------------------------------------------------------
# the step formula in numpy
# ---------------------------------------------------------------------------

def _rhs_and_budget(v, dx, tdot, src, params: ModelParams, react_coef=0.0,
                    safety=1.0):
    """The right-hand side on the interior nodes of the state ``v`` and the
    step-size budget, the one numpy copy of the step formula.

    Flux-form diffusion (differences of the flux primitive of the one-sided
    gradients D+ S) plus the configurational reaction with the central
    gradient weight |D0 S|_kappa, D0 = (D+ left + D+ right) / 2; ``tdot`` is
    T : epsbar on the interior nodes (or a scalar), ``src`` an interior
    source or None.  The budget is safety * dx^2 / (2 c nu max|D+ S|_kappa),
    capped by safety over ``react_coef`` (c times the reaction's Lipschitz
    budget) times max|D0 S|_kappa - kappa.  Slice differences give np.diff's
    bits without its per-call overhead.  Returns (rhs, reaction, dt, D+ S,
    |D0 S|_kappa).

    A run takes its first row's ||S_t||^2 from it (``_initial_st_l2``), and
    the tests' numpy reference kernel steps with it; the compiled loop
    agrees with it up to floating-point association, and mollified runs to
    rounding rather than bit for bit (C has libm ``exp`` and a blocked row
    sum where numpy has its own ``exp`` and BLAS's ``coef @ values``)."""
    kap = params.kappa
    dplus = (v[1:] - v[:-1]) / dx
    wplus = np.hypot(dplus, kap)
    fp = flux_primitive(dplus, kap)
    w0 = np.hypot(0.5 * (dplus[1:] + dplus[:-1]), kap)
    reaction = params.c * (tdot - params.potential.psi_prime(v[1:-1])) * (w0 - kap)
    rhs = params.c * params.nu * ((fp[1:] - fp[:-1]) / dx) + reaction
    if src is not None:
        rhs = rhs + src
    dt = safety * dx * dx / (2.0 * params.c * params.nu) / float(wplus.max())
    gain = react_coef * (float(w0.max()) - kap)
    if gain > 0.0:
        dt = min(dt, safety / gain)
    return rhs, reaction, dt, dplus, w0


def _reaction_prefactor(params: ModelParams, op: ElasticityOperator,
                        sup_abs: float) -> float:
    """Lipschitz budget for the reaction's dependence on S: the potential
    curvature on the reachable range plus the stress-coupling gains."""
    bound = sup_abs + 1.0
    return (params.potential.psi_prime_lipschitz(-bound, bound)
            + abs(op.alpha) + abs(op.beta))


# ---------------------------------------------------------------------------
# the run driver
# ---------------------------------------------------------------------------

class _Emitter:
    """The run's row store, which the kernel fills as the run goes: per row
    t and the monitor slots ``acc.slots`` (``scalars``, laid out as the
    compiled loop's record), the state and, when the run stores it, the
    coupling field.  The monitor columns and the coupling stress of all rows
    are computed in one pass at the end."""

    def __init__(self, grid, params, op, corr, s0_values, store_s_eff, rows):
        self.grid, self.params, self.op, self.corr = grid, params, op, corr
        self.acc = MonitorAccumulator(grid, params, s0_values)
        self.scalars = np.empty((rows, 1 + len(ACC_SLOTS)))
        self.states = np.empty((rows, grid.n_nodes))
        self.seffs = np.empty_like(self.states) if store_s_eff else None
        self.count = 0

    def reserve(self, rows):
        """Room for at least ``rows`` rows past the recorded ones."""
        if self.count + rows > len(self.scalars):
            self._resize(self.count + rows)

    def _resize(self, cap):
        for name in ("scalars", "states", "seffs"):
            old = getattr(self, name)
            if old is not None:
                setattr(self, name, np.empty((cap,) + old.shape[1:]))
                getattr(self, name)[:self.count] = old[:self.count]

    def emit(self, t, s_values, s_eff_values):
        """Record a row at t, as the compiled loop records one."""
        i = self.count
        self.scalars[i, 0] = t
        self.scalars[i, 1:] = self.acc.slots
        self.states[i] = s_values
        if self.seffs is not None:
            self.seffs[i] = s_eff_values
        self.count = i + 1

    def finish(self):
        if self.count < len(self.scalars):  # room the run did not fill
            self._resize(self.count)
        values, s_eff = self.states, self.seffs
        recorded = self.scalars.T.copy()
        traj = Trajectory(self.grid, recorded[0], values,
                          tdot_eps=coupling_stress_rows(
                              values if s_eff is None else s_eff,
                              self.corr.sig_dot_eps, self.op),
                          s_eff=s_eff, displacement=(self.op.u_star, self.corr.w))
        monitors = self.acc.build(recorded, values, self.corr.residual)
        return traj, monitors


@np.errstate(over="ignore", invalid="ignore")
def _initial_st_l2(S, op, corr, params, s_eff_values, source):
    """The first row's ||S_t||^2, that of the initial state (the kernel
    writes each step's): numpy's dot over the right-hand side on the nodes,
    zero at the ends.  A value that is not finite is left to the loop's
    check on step 1."""
    tdot = coupling_stress_rows(s_eff_values[None, :], corr.sig_dot_eps, op)[0]
    src = None if source is None else source(0.0, op.grid, params, op)[1:-1]
    rhs = np.zeros_like(S)
    rhs[1:-1] = _rhs_and_budget(S, op.grid.dx, tdot[1:-1], src, params)[0]
    return float(op.grid.dx * np.dot(rhs, rhs))


def _emission_plan(config: SolverConfig, t_end: float):
    """The stops min(t_end, cadence k) for k = 1, 2, ... up to the first at
    t_end, and stride 0; or no stops and the stride."""
    if config.snapshot_interval > 0.0:
        cadence = min(config.snapshot_interval, t_end)
        stops = cadence * np.arange(1, int(t_end / cadence) + 3)
        return np.minimum(t_end, stops[:np.argmax(stops >= t_end) + 1]), 0
    return np.zeros(0), config.snapshot_stride


def _stride_rows(budget: int, stride: int) -> int:
    """The most rows a call of ``budget`` steps records under the stride
    plan: after each step the stride divides, and at t_end."""
    return budget // stride + 2


def _check_inputs(config: SolverConfig, b):
    """Raise a ValueError that names the first input the compiled chunk
    loop cannot run: a body force given as a function of time, or a source
    with no compiled form."""
    if callable(b):
        raise ValueError("b: a body force that varies in time (a callable) "
                         "cannot run; pass its nodal values")
    if config.source is not None and getattr(config.source, "compiled_form", None) is None:
        raise ValueError("source: the source hook has no compiled_form, "
                         "so the compiled chunk loop cannot evaluate it")


def _table_at(table, t):
    """A coupling table ``(t0, dt, vals, means)`` interpolated linearly in
    time at t: the field and its mean."""
    tab_t0, tab_dt, tab_vals, tab_means = table
    pos = (t - tab_t0) / tab_dt
    idx = int(min(max(int(pos), 0), tab_vals.shape[0] - 2))
    theta = float(min(max(pos - idx, 0.0), 1.0))
    return ((1.0 - theta) * tab_vals[idx] + theta * tab_vals[idx + 1],
            (1.0 - theta) * tab_means[idx] + theta * tab_means[idx + 1])


def _coupling(S, params, config, op, table):
    """The coupling at t=0: a table run's table ``(t0, dt, vals, means)``
    (else None), and the coupling field and its mean (None and 0.0 for
    direct coupling, which reads the state)."""
    dx = op.grid.dx
    if table is not None:
        ref_times, vals = (np.asarray(part, dtype=float) for part in table)
        n_tab = ref_times.size
        if ref_times.ndim != 1 or n_tab < 2 or vals.shape != (n_tab, S.size):
            raise ValueError("a coupling table needs two or more rows of the "
                             "grid's nodes, one per reference time")
        tab_dt = float(ref_times[1] - ref_times[0])
        gaps = ref_times - ref_times[0] - tab_dt * np.arange(n_tab)
        if not (tab_dt > 0.0 and np.all(np.abs(gaps) <= 1e-9 * tab_dt)):
            raise ValueError("a coupling table needs equally spaced, rising "
                             "reference times")
        first, last = float(ref_times[0]), float(ref_times[-1])
        slack = 1e-9 * tab_dt
        if first > slack or last < params.t_end - slack:
            raise ValueError(f"a coupling table's reference times span "
                             f"[{first!r}, {last!r}], which does not cover "
                             f"[0, t_end = {params.t_end!r}]")
        tab =(float(ref_times[0]), tab_dt, np.ascontiguousarray(vals),
               trapezoid_rows(vals, dx) / op.length)
        return (tab, *_table_at(tab, 0.0))
    if config.coupling == "mollified":
        # the causal average at t=0, over the one state there; after each
        # step the kernel appends the new state and averages into it
        kernel = _mollifier.MollifierKernel(params.kappa, centered=False)
        [seff] = _mollifier._mollify_arrays(np.zeros(1), S[None, :], kernel,
                                            [0.0], 0.0, config.mollify_samples)
        return None, seff, trapezoid(seff, dx) * (1.0 / op.length)
    return None, None, 0.0


def _start(s0: ScalarField, params: ModelParams, config: SolverConfig, b,
           table=None):
    """The setup of a run, and of ``step``: the checked inputs, the state
    pinned at the boundary, the coupling, the row store with the row at
    t = 0, and the kernel over them.  Returns (kernel, emitter, stride)."""
    grid = s0.grid
    if not (grid.a == params.a and grid.d == params.d):
        raise ValueError("grid endpoints do not match the model domain")
    S = np.array(s0.values)  # the run's state, which the kernel writes in place
    if S[0] != 0.0 or S[-1] != 0.0:
        warnings.warn("initial data does not vanish at the boundary; pinning endpoints",
                      stacklevel=3)
        S[0] = 0.0
        S[-1] = 0.0
    _check_inputs(config, b)
    op = ElasticityOperator.from_params(grid, params)
    corr = solve_correction(zero_body_force(grid) if b is None else b, op)
    table, seff, seff_mean = _coupling(S, params, config, op, table)
    s_eff0 = S if seff is None else seff

    stops, stride = _emission_plan(config, params.t_end)
    emitter = _Emitter(grid, params, op, corr, S, store_s_eff=seff is not None,
                       rows=len(stops) + 1)
    eacc = emitter.acc
    if config.source is not None:  # the chunk loop skips these with a source
        eacc.slots[:len(RUNNING_INTEGRALS)] = np.nan
    # the kernels only write the last step's ||S_t||^2; the first row's is
    # that of the initial state
    eacc.slots[ACC_SLOTS.index("st_l2_sq")] = _initial_st_l2(
        S, op, corr, params, s_eff0, config.source)
    emitter.emit(0.0, S, s_eff0)

    kernel = _CompiledKernel(
        S, emitter, stops, stride, params, config, op, corr,
        params.c * _reaction_prefactor(params, op, eacc.max_abs_s0),
        table, seff, seff_mean)
    return kernel, emitter, stride


def _drive(params: ModelParams, config: SolverConfig, kernel, emitter, stride):
    """The run driver over the kernel that ``_start`` set up (see the
    module docstring)."""
    t_end = params.t_end
    steps = 0
    t = 0.0
    tiny = 1e-14 * (t_end + 1.0)
    while t < t_end - tiny:
        budget = min(_CHUNK, config.max_steps - steps)
        if budget <= 0:
            raise SolverAbort("step budget exhausted", t=t, step=steps)
        if stride:
            emitter.reserve(_stride_rows(budget, stride))
        done, t, status = kernel.advance(t, budget)
        steps += done
        if status == 1:
            raise SolverAbort("non-finite state", t=t, step=steps)

    emitter.acc.n_steps = steps
    traj, series = emitter.finish()
    # an averaged coupling field clips its kernel window: a table's centered
    # window reaches before t = 0, and the causal window is cut to [0, t] at
    # every t < kappa
    series.mollifier_truncated = emitter.seffs is not None
    return traj, series


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(s0: ScalarField, params: ModelParams, config: SolverConfig, b=None):
    """Integrate from the initial field to t_end.

    Returns the trajectory and the monitor series (including the maximum
    principle verdict; with a source, its running integrals read NaN).
    An input the compiled chunk loop cannot run is a ValueError that names
    it, raised before the first step (see the module docstring).

    Picard coupling runs a direct pass and ``picard_sweeps`` sweeps coupled
    to the centered mollification of the last trajectory; a sweep whose
    L2(Q) distance to it is positive and not below the last is ``SolverAbort``.
    """
    if config.coupling != "picard":
        return _drive(params, config, *_start(s0, params, config, b))
    # each pass goes through a module-level name, which a tracer can patch
    direct_cfg = replace(config, coupling="direct")
    traj, monitors = run(s0, params, direct_cfg, b=b)
    kernel = _mollifier.MollifierKernel(params.kappa, centered=True)
    distances = []
    for sweep in range(1, config.picard_sweeps + 1):
        table = _mollifier.build_mollified_table(
            traj, kernel, config.mollify_table, config.mollify_samples)
        new, monitors = run_with_coupling_table(traj.initial, params,
                                                direct_cfg, *table, b=b)
        distances.append(trajectory_l2_distance(new, traj))
        if sweep >= 2 and distances[-1] > 0.0 and distances[-1] >= distances[-2]:
            raise SolverAbort(f"Picard sweeps do not contract: sweep {sweep} distance "
                              f"{distances[-1]!r} >= sweep {sweep - 1} distance "
                              f"{distances[-2]!r}", t=new.t_end, step=monitors.n_steps)
        traj = new
    monitors.picard_distances = distances
    return traj, monitors


def run_with_coupling_table(s0: ScalarField, params: ModelParams,
                            config: SolverConfig, ref_times, table, b=None):
    """Integrate with the stress assembled from a tabulated coupling field
    (a Picard sweep's) at equally spaced reference times that cover
    [0, t_end]."""
    return _drive(params, config,
                  *_start(s0, params, config, b, table=(ref_times, table)))


# step()'s t_end: under the stride plan t_end is the only stop, and the
# loop cuts a step to it only if the step would end within 1e-14 of the
# largest double
_NO_END = sys.float_info.max


def step(s: ScalarField, t: float, config: SolverConfig, params: ModelParams,
         b=None):
    """One forward-Euler step from the field s at time t, with direct
    coupling: one ``advance`` of the kernel that ``run`` steps with, set up
    by ``run``'s own setup, so it takes the inputs ``run`` takes, pins the
    boundary as ``run`` does and clamps as ``run``'s steps do.  A step from
    the initial field at t = 0 is the first step of ``run`` bit for bit,
    unless ``run`` cuts it to t_end.  A non-finite state is ``SolverAbort``.

    Returns the new field and a report of the step actually taken.
    """
    cfg = replace(config, coupling="direct", snapshot_stride=1, snapshot_interval=0.0)
    kernel, emitter, _ = _start(s, replace(params, t_end=_NO_END), cfg, b)
    emitter.reserve(1)  # the row the step records
    _, t_new, status = kernel.advance(t, 1)
    if status == 1:
        raise SolverAbort("non-finite state", t=t_new, step=1)
    new = ScalarField(s.grid, emitter.states[1].copy())
    dt = float(emitter.acc.slots[ACC_SLOTS.index("last_dt")])
    return new, StepReport(t=t, dt=dt, max_abs_s=new.max_abs(),
                           elasticity_residual=emitter.corr.residual)

