"""Explicit conservative finite-difference integration of the regularized
order-parameter equation, coupled to the quasi-static elasticity solve.

The degenerate diffusion term is differenced in flux form through the
antiderivative of the smoothed absolute value, so interior flux differences
telescope to boundary fluxes exactly; the reaction uses the central gradient
and vanishes identically wherever that gradient is zero.  Time stepping is
forward Euler under an adaptive step-size budget for the gradient-dependent
diffusion coefficient plus a reaction cap.

One driver, two kernels.  The run driver (``_drive``) owns, once, all a run
does between steps: the emission plan and cadence, the ``max_steps``
budget, the mapping of a kernel's status to ``SolverAbort`` or a mollifier
error, the step sizes, the final reciprocal fold and the emitted coupling
field.  A kernel only steps: ``advance(t, t_stop, budget) -> (done, t,
status)`` takes at most ``budget`` forward-Euler steps from t towards
t_stop, and writes the state, the step sizes, the last right-hand side and
the running monitor sums (``estimates.ACC_SLOTS``) into arrays the driver
owns.  Status 0 means t_stop was reached, 1 a non-finite state, 2 the
budget used up, 3 a causal history that ends short of the kernel window.

* The compiled kernel is the fused chunk loop in C (``_chunk_loop.c``,
  compiled with the system C compiler on first use and cached, see
  ``_native``).  It runs automatically when the run has no time-dependent
  body force and either no source hook or one that carries a compiled
  form (``SineModeSource``, the manufactured source of the sine mode).
* The numpy kernel is the reference, with the one numpy copy of the step
  formula (``_rhs_and_budget``, which ``discrete_rhs``, ``cfl_dt`` and
  ``step`` share) and of the monitor fold (``MonitorAccumulator.accumulate``).
  It serves the runs the C loop does not cover (other source hooks, and a
  body force that varies in time, through a per-step correction hook) and
  is the fallback when no compiler is available.

Both kernels couple directly, through a coupling table, or through the
causal mollification of the past states, which they average after every
step.  They agree up to floating-point association; mollified runs agree to
rounding rather than bit for bit, as C has libm ``exp`` and a blocked row
sum where numpy has its own ``exp`` and BLAS's ``coef @ values``.
``jit="on"`` warns whenever a run falls back to numpy, and says why.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import _native
from . import mollifier as _mollifier
from .elasticity import (CorrectionPair, ElasticityOperator,
                         coupling_stress_rows, solve_correction,
                         zero_body_force)
from .estimates import MonitorAccumulator
from .model import Grid, ModelParams, ScalarField, Trajectory, trapezoid

_CHUNK = 16384
_P43 = 4.0 / 3.0


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
    source: Optional[Callable] = None   # source(t, grid) -> nodal values
    snapshot_stride: int = 1            # record every k-th step ...
    snapshot_interval: float = 0.0      # ... or at this time spacing if > 0
    picard_sweeps: int = 2
    mollify_samples: int = 257
    mollify_table: int = 513
    jit: str = "auto"                   # auto | on | off
    dt_override: float = 0.0            # forced step size (stability tests)

    def __post_init__(self):
        if self.coupling not in ("direct", "mollified", "picard"):
            raise ValueError("coupling must be direct, mollified or picard")
        if not (0.0 < self.cfl_safety < 1.0):
            raise ValueError("cfl_safety must lie in (0, 1)")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.mollify_samples < 1 or self.mollify_table < 2:
            raise ValueError("mollify_samples must be >= 1, mollify_table >= 2")
        if self.jit not in ("auto", "on", "off"):
            raise ValueError("jit must be auto, on or off")


@dataclass(frozen=True)
class SineModeSource:
    """Compiled form of the manufactured source of the decaying sine mode
    exp(-t) sin(arg(x)) (see ``convergence.manufactured_source``).

    A source callable that carries one as its ``compiled_form`` attribute
    runs on the compiled chunk loop, which evaluates the same residual per
    node; the callable itself stays the reference and serves the numpy
    engine.  The loop takes the model constants from the run, so the form
    applies only when ``constants`` equals ``source_constants`` of the run.
    """

    rows: Callable      # grid -> (sin(arg), cos(arg)) on the grid's nodes
    k: float            # d(arg)/dx
    mean: float         # domain mean of sin(arg)
    constants: tuple    # source_constants(params, op) the residual uses


def source_constants(params: ModelParams, op: ElasticityOperator) -> tuple:
    """The model constants a manufactured source's residual depends on."""
    return (params.kappa, params.c, params.nu, op.alpha, op.beta,
            *params.potential.dcoeffs.tolist())


@dataclass(frozen=True)
class StepReport:
    t: float
    dt: float
    max_abs_s: float
    max_grad_weight: float
    reaction_max: float
    elasticity_residual: float

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("step size must be positive")


# ---------------------------------------------------------------------------
# initial profiles
# ---------------------------------------------------------------------------

def _smoothstep(u):
    """Quintic ramp with zero first and second derivatives at both ends."""
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))


def make_initial_profile(kind: str, amplitude: float, grid: Grid,
                         width: Optional[float] = None) -> ScalarField:
    """Generated initial data with zero boundary values.

    * ``sine``: amplitude * sin(pi * (x-a)/(d-a)).
    * ``smoothed-step``: rises from exactly 0 through a quintic transition of
      the given width to a plateau at ``amplitude`` and returns to exactly 0
      before the right endpoint, so value, slope and curvature all vanish on
      the boundary (monotone along each transition).
    * ``polynomial-bump``: 16 * amplitude * (u*(1-u))^2, zero value and slope
      at the endpoints.
    """
    if not np.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    length = grid.d - grid.a
    u = (grid.x - grid.a) / length
    if kind == "sine":
        values = amplitude * np.sin(np.pi * u)
    elif kind == "smoothed-step":
        w = 0.3 * length if width is None else float(width)
        margin = 0.05 * length
        w = min(max(w, 4.0 * grid.dx), 0.5 * (length - 2.0 * margin))
        rise = (grid.x - (grid.a + margin)) / w
        fall = (grid.x - (grid.d - margin - w)) / w
        values = amplitude * (_smoothstep(rise) - _smoothstep(fall))
    elif kind == "polynomial-bump":
        values = 16.0 * amplitude * (u * (1.0 - u)) ** 2
    else:
        raise ValueError(f"unknown profile kind {kind!r}; "
                         "use sine, smoothed-step or polynomial-bump")
    values[0] = 0.0
    values[-1] = 0.0
    return ScalarField(grid, values)


# ---------------------------------------------------------------------------
# the step formula (plain numpy, the reference) and the public single steps
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
    |D0 S|_kappa)."""
    kap = params.kappa
    dplus = (v[1:] - v[:-1]) / dx
    wplus = np.hypot(dplus, kap)
    fp = 0.5 * (dplus * wplus + kap * kap * np.arcsinh(dplus / kap))
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


def _interior(field):
    values = field.values if isinstance(field, ScalarField) else np.asarray(field, dtype=float)
    return values[1:-1]


def _check_rhs(rhs):
    if not np.all(np.isfinite(rhs)):
        raise SolverAbort("non-finite right-hand side", t=float("nan"), step=-1)


def discrete_rhs(s: ScalarField, tdot_eps, params: ModelParams,
                 source=None) -> ScalarField:
    """Right-hand side of the evolution equation on interior nodes (see
    ``_rhs_and_budget``); endpoints are held at zero."""
    rhs = np.zeros_like(s.values)
    rhs[1:-1] = _rhs_and_budget(s.values, s.grid.dx, _interior(tdot_eps),
                                None if source is None else _interior(source),
                                params)[0]
    _check_rhs(rhs)
    return ScalarField(s.grid, rhs)


def _reaction_prefactor(params: ModelParams, op: ElasticityOperator,
                        sup_abs: float) -> float:
    """Lipschitz budget for the reaction's dependence on S: the potential
    curvature on the reachable range plus the stress-coupling gains."""
    bound = sup_abs + 1.0
    return (params.potential.psi_prime_lipschitz(-bound, bound)
            + abs(op.alpha) + abs(op.beta))


def cfl_dt(s: ScalarField, params: ModelParams, safety: float) -> float:
    """The step-size budget of ``_rhs_and_budget`` on the current range of
    S (the same budget the run kernels use for each step)."""
    op = ElasticityOperator.from_params(s.grid, params)
    react_coef = params.c * _reaction_prefactor(params, op, s.max_abs())
    return _rhs_and_budget(s.values, s.grid.dx, 0.0, None, params,
                           react_coef, safety)[2]


def step(s: ScalarField, t: float, config: SolverConfig, params: ModelParams,
         b=None, op: Optional[ElasticityOperator] = None,
         corr: Optional[CorrectionPair] = None):
    """One forward-Euler step with direct coupling; endpoints stay pinned.

    Returns the new field and a report of the step actually taken.
    """
    grid = s.grid
    if op is None:
        op = ElasticityOperator.from_params(grid, params)
    if corr is None:
        b_arr = zero_body_force(grid) if b is None else np.asarray(b, dtype=float)
        corr = solve_correction(b_arr, op)
    tdot = coupling_stress_rows(s.values[None, :], corr.sig_dot_eps, op)[0]
    src = None if config.source is None else _interior(config.source(t, grid))
    rhs, reaction, dt, dplus, _ = _rhs_and_budget(
        s.values, grid.dx, tdot[1:-1], src, params,
        params.c * _reaction_prefactor(params, op, s.max_abs()), config.cfl_safety)
    _check_rhs(rhs)
    if config.dt_override > 0.0:
        dt = config.dt_override
    new_values = np.zeros_like(s.values)
    new_values[1:-1] = s.values[1:-1] + dt * rhs
    if not np.all(np.isfinite(new_values)):
        raise SolverAbort("non-finite state after update", t=t, step=-1)
    report = StepReport(
        t=t, dt=dt, max_abs_s=float(np.max(np.abs(new_values))),
        max_grad_weight=float(np.max(np.hypot(dplus, params.kappa))),
        reaction_max=float(np.max(np.abs(reaction))) if reaction.size else 0.0,
        elasticity_residual=corr.residual)
    return ScalarField(grid, new_values), report


# ---------------------------------------------------------------------------
# the run driver
# ---------------------------------------------------------------------------

class _Emitter:
    """Collects the snapshot rows while a run progresses: an emission only
    copies its state (and its coupling field, when the run stores it) and
    records t, ||S_t||^2 and the accumulator's running integrals.  The
    monitor columns and the coupling stress of every row are computed in
    one pass when the run finishes.

    ``corr`` is the body-force correction; a run whose body force varies in
    time replaces it at each emission, which then records the correction's
    sigma : epsbar with its row (``corr_varies``)."""

    def __init__(self, grid, params, op, corr, s0_values, store_s_eff,
                 corr_varies=False):
        self.grid = grid
        self.params = params
        self.op = op
        self.corr = corr
        self.acc = MonitorAccumulator(grid, params, s0_values)
        self.rows = []
        self.scalars = []
        self.seffs = [] if store_s_eff else None
        self.sigs = [] if corr_varies else None
        self.dts_parts = []

    def emit(self, t, s_values, s_eff_values, st_l2):
        self.rows.append(np.array(s_values))
        self.scalars.append((t, st_l2, *self.acc.cumulative()))
        if self.seffs is not None:
            self.seffs.append(np.array(s_eff_values))
        if self.sigs is not None:
            self.sigs.append(self.corr.sig_dot_eps)

    def finish(self):
        dts = np.concatenate(self.dts_parts) if self.dts_parts else np.zeros(0)
        values = np.vstack(self.rows)
        s_eff = np.vstack(self.seffs) if self.seffs is not None else None
        sig = (self.corr.sig_dot_eps if self.sigs is None
               else np.vstack(self.sigs))
        times, st_l2, *cumulative = np.array(self.scalars).T.copy()
        traj = Trajectory(self.grid, times, values,
                          tdot_eps=coupling_stress_rows(
                              values if s_eff is None else s_eff, sig, self.op),
                          s_eff=s_eff, dts=dts)
        monitors = self.acc.build(times, values, st_l2, cumulative,
                                  self.corr.residual)
        return traj, monitors


def _initial_st_l2(s0: ScalarField, op, corr, params, s_eff_values, source):
    tdot = coupling_stress_rows(s_eff_values[None, :], corr.sig_dot_eps, op)[0]
    src = None if source is None else source(0.0, s0.grid)
    rhs = discrete_rhs(s0, tdot, params, source=src)
    return float(s0.grid.dx * np.dot(rhs.values, rhs.values))


def _emission_plan(config: SolverConfig, t_end: float):
    if config.snapshot_interval > 0.0:
        return "interval", min(config.snapshot_interval, t_end)
    return "stride", config.snapshot_stride


def _table_at(table, t):
    """A coupling table ``(t0, dt, vals, means)`` interpolated linearly in
    time at t: the field and its mean."""
    tab_t0, tab_dt, tab_vals, tab_means = table
    pos = (t - tab_t0) / tab_dt
    idx = int(min(max(int(pos), 0), tab_vals.shape[0] - 2))
    theta = float(min(max(pos - idx, 0.0), 1.0))
    return ((1.0 - theta) * tab_vals[idx] + theta * tab_vals[idx + 1],
            (1.0 - theta) * tab_means[idx] + theta * tab_means[idx + 1])


def _correction_hook(b_callable, op, corr):
    """``corr_at(t)``: the correction that balances the body force at t,
    solved again only when t changes (``corr`` is the one at t=0)."""
    t_held = 0.0

    def corr_at(t):
        nonlocal corr, t_held
        if t != t_held:
            corr, t_held = solve_correction(b_callable(t), op), t
        return corr
    return corr_at


def _coupling(S, params, config, op, table):
    """The kernels' coupling data (a table or the causal average, as
    ``_native.context`` takes them; none for direct coupling) and
    ``seff_at(t)``, the field an emission at t records."""
    dx = op.grid.dx
    if table is not None:
        ref_times, tab_vals = (np.asarray(part, dtype=float) for part in table)
        tab_vals = np.ascontiguousarray(tab_vals)
        tab_t0 = float(ref_times[0])
        tab_dt = float(ref_times[1] - ref_times[0])
        tab_means = np.array([trapezoid(row, dx) / op.length for row in tab_vals])
        tab = (tab_t0, tab_dt, tab_vals, tab_means)
        return {"table": tab}, lambda t: _table_at(tab, t)[0]
    if config.coupling == "mollified":
        # the average at t=0; after each step the kernel appends the new
        # state and averages into this buffer
        history = _CausalHistory(params.kappa, op.grid.n_nodes)
        history.append(0.0, S)
        seff = np.array(history.mollify(_causal_kernel(params), 0.0,
                                        config.mollify_samples))
        causal = (history, config.mollify_samples, _mollifier.BUMP_MASS, seff,
                  trapezoid(seff, dx) * (1.0 / op.length))
        return {"causal": causal}, lambda t: seff
    return {}, lambda t: S


def _causal_kernel(params):
    return _mollifier.MollifierKernel(params.kappa, centered=False)


def _drive(s0: ScalarField, params: ModelParams, config: SolverConfig, b,
           table=None):
    """The run driver over either kernel (see the module docstring)."""
    grid = s0.grid
    if not (grid.a == params.a and grid.d == params.d):
        raise ValueError("grid endpoints do not match the model domain")
    S = np.array(s0.values)  # the run's state, which the kernel writes in place
    if S[0] != 0.0 or S[-1] != 0.0:
        warnings.warn("initial data does not vanish at the boundary; pinning endpoints",
                      stacklevel=3)
        S[0] = 0.0
        S[-1] = 0.0
    op = ElasticityOperator.from_params(grid, params)
    b_callable = b if callable(b) else None
    if b is None:
        b = zero_body_force(grid)
    corr = solve_correction(b(0.0) if b_callable else b, op)
    corr_at = None if b_callable is None else _correction_hook(b_callable, op, corr)
    coupling, seff_at = _coupling(S, params, config, op, table)

    t_end = params.t_end
    emitter = _Emitter(grid, params, op, corr, S, store_s_eff=bool(coupling),
                       corr_varies=corr_at is not None)
    s_eff0 = seff_at(0.0)
    emitter.emit(0.0, S, s_eff0, _initial_st_l2(ScalarField(grid, S), op, corr,
                                                params, s_eff0, config.source))

    eacc = emitter.acc
    acc = eacc.slots
    rhs_prev = np.zeros(grid.n_nodes)
    dts = np.empty(_CHUNK)
    args = (S, rhs_prev, dts, eacc, params, config, op, corr,
            params.c * _reaction_prefactor(params, op, eacc.max_abs_s0), coupling)
    kernel = (_CompiledKernel(*args) if _pick_engine(config, b_callable, params, op)
              else _NumpyKernel(*args, corr_at))
    advance = kernel.advance

    plan, cadence = _emission_plan(config, t_end)
    emit_count = 1
    steps = 0
    t = 0.0
    tiny = 1e-14 * (t_end + 1.0)
    while t < t_end - tiny:
        if plan == "interval":
            t_stop = min(t_end, cadence * emit_count)
            budget = _CHUNK
        else:
            t_stop = t_end
            budget = min(_CHUNK, cadence - steps % cadence)
        budget = min(budget, config.max_steps - steps)
        if budget <= 0:
            raise SolverAbort("step budget exhausted", t=t, step=steps)
        done, t, status = advance(t, t_stop, budget)
        steps += done
        if done:
            emitter.dts_parts.append(dts[:done].copy())
        if status == 1:
            raise SolverAbort("non-finite state", t=t, step=steps)
        if status == 3:
            raise _mollifier.uncovered(kernel.newest(), t,
                                       max(0.0, t - params.kappa), t)
        reached_end = t >= t_end - tiny
        if (status == 0 if plan == "interval"
                else steps % cadence == 0 or reached_end):
            if corr_at is not None:
                # the emitted stress balances the body force at t
                emitter.corr = corr_at(t)
            emitter.emit(t, S, seff_at(t), acc[8])
            emit_count += 1
        if reached_end:
            break

    eacc.n_steps = steps
    if acc[9] > 0.0:
        # the last step's reciprocal term, with the weight of the final state
        w0 = np.hypot((S[2:] - S[:-2]) / (2.0 * grid.dx), params.kappa)
        eacc.finish_reciprocal(acc[9], float(np.dot(rhs_prev[1:-1] / w0,
                                                    rhs_prev[1:-1])))
    return emitter.finish()


# ---------------------------------------------------------------------------
# the two kernels
# ---------------------------------------------------------------------------

class _CompiledKernel:
    """The fused chunk loop in C: the run's context, filled once, and
    ``advance = chunk_loop(ctx, ...)``."""

    def __init__(self, S, rhs_prev, dts, acc, params, config, op, corr,
                 react_coef, coupling):
        form = None if config.source is None else config.source.compiled_form
        if form is not None:
            coupling = dict(coupling, source=(
                *(np.ascontiguousarray(row, dtype=float) for row in form.rows(op.grid)),
                form.k, form.mean))
        self.history = coupling["causal"][0] if "causal" in coupling else None
        self.ctx = _native.context(
            S, rhs_prev, dts, acc.slots, np.ascontiguousarray(corr.sig_dot_eps),
            np.ascontiguousarray(params.potential.dcoeffs, dtype=float),
            dx=op.grid.dx, kappa=params.kappa, c=params.c, nu=params.nu,
            alpha=op.alpha, beta=op.beta, inv_len=1.0 / op.length,
            react_coef=react_coef, safety=config.cfl_safety,
            dt_override=config.dt_override, **coupling)
        self.advance = functools.partial(_native.chunk_loop(), self.ctx)

    def newest(self):
        """The time of the newest state the causal history keeps."""
        return float(self.history.times[self.ctx.hist_hi - 1])


class _NumpyKernel:
    """The reference kernel: the loop of ``_chunk_loop.c`` in numpy, with
    the step formula of ``_rhs_and_budget``, the monitor fold of
    ``MonitorAccumulator.accumulate``, and any source hook.  ``corr_at`` is
    the per-step correction of a body force that varies in time (or None)."""

    def __init__(self, S, rhs_prev, dts, acc, params, config, op, corr,
                 react_coef, coupling, corr_at):
        self.S, self.rhs_prev, self.dts, self.acc = S, rhs_prev, dts, acc
        self.params, self.config, self.op = params, config, op
        self.inv_len = 1.0 / op.length
        self.sig_eps = corr.sig_dot_eps
        self.react_coef = react_coef
        self.corr_at = corr_at
        self.table = coupling.get("table")
        self.history = self.seff = None
        if "causal" in coupling:
            self.history, _, _, self.seff, self.seff_mean = coupling["causal"]
            self.causal_kernel = _causal_kernel(params)

    def newest(self):
        """The time of the newest state the causal history keeps."""
        return float(self.history.times[self.history.hi - 1])

    def _field_at(self, t):
        """The coupling field at t and its mean."""
        if self.table is not None:
            return _table_at(self.table, t)
        if self.seff is not None:
            return self.seff, self.seff_mean
        return self.S, trapezoid(self.S, self.op.grid.dx) * self.inv_len

    # a diverging step overflows quietly, as in the compiled loop, and the
    # non-finite check ends the chunk
    @np.errstate(over="ignore", invalid="ignore")
    def advance(self, t, t_stop, budget):
        S, rhs_prev, params, config, op = (self.S, self.rhs_prev[1:-1],
                                           self.params, self.config, self.op)
        dx = op.grid.dx
        tiny = 1e-14 * (abs(t_stop) + 1.0)
        done, status = 0, 2
        while done < budget:
            if t_stop - t <= tiny:
                status = 0
                break
            sig_eps = self.sig_eps if self.corr_at is None else self.corr_at(t).sig_dot_eps
            s_eff, ibar = self._field_at(t)
            tdot = op.alpha * s_eff[1:-1] - op.beta * ibar + sig_eps[1:-1]
            src = (None if config.source is None
                   else _interior(config.source(t, op.grid)))
            rhs, _, dt, dplus, w0 = _rhs_and_budget(
                S, dx, tdot, src, params, self.react_coef, config.cfl_safety)
            if config.dt_override > 0.0:
                dt = config.dt_override
            if t + dt >= t_stop - tiny:
                dt = t_stop - t

            d2 = (dplus[1:] - dplus[:-1]) / dx
            sum_recip = float(np.dot(rhs_prev / w0, rhs_prev))
            rhs_prev[:] = rhs
            S[1:-1] += dt * rhs
            sup_new = float(np.max(np.abs(S)))
            st_l2 = dx * float(np.dot(rhs, rhs))
            self.acc.accumulate(
                dt, float(np.dot(w0, d2 * d2)),
                float(np.sum((w0 * np.abs(d2)) ** _P43)), float(np.dot(w0, w0)),
                float(np.abs(dplus).max()), sum_recip, st_l2, sup_new)
            t += dt
            self.dts[done] = dt
            done += 1
            if not sup_new == sup_new or sup_new > 1e150 or not st_l2 == st_l2:
                status = 1
                break
            if self.history is not None:
                self.history.append(t, S)
                try:
                    self.seff[:] = self.history.mollify(
                        self.causal_kernel, t, config.mollify_samples)
                except _mollifier.MollifierError:
                    status = 3
                    break
                self.seff_mean = trapezoid(self.seff, dx) * self.inv_len
            if t_stop - t <= tiny:
                status = 0
                break
        return done, t, status


class _CausalHistory:
    """Thinned record of past states for in-stepping causal mollification.

    Keeps samples spaced at least kappa/keep apart (the causal kernel
    vanishes at the leading edge, so the small uncovered sliver next to the
    current time carries negligible mass).  The samples live in preallocated
    arrays; the live ones are ``times[lo:hi]`` and ``rows[lo:hi]``.  Trimming
    the stale front only advances ``lo``, and the live block is moved back to
    the start when ``hi`` reaches the capacity, so no step copies the
    history.  At most keep + 6 samples are live (one before the window and
    the rest spaced kappa/keep apart within kappa + 4 spacings of the
    newest), so a capacity of twice that always has room after a move."""

    def __init__(self, kappa: float, width: int, keep: int = 512):
        self.spacing = kappa / keep
        self.kappa = kappa
        self.capacity = 2 * (keep + 8)
        self.times = np.empty(self.capacity)
        self.rows = np.empty((self.capacity, width))
        self.lo = self.hi = 0
        self.last_kept = -np.inf

    def append(self, t, values):
        if t - self.last_kept >= self.spacing or self.hi == 0:
            if self.hi == self.capacity:
                live = self.hi - self.lo
                self.times[:live] = self.times[self.lo:self.hi]
                self.rows[:live] = self.rows[self.lo:self.hi]
                self.lo, self.hi = 0, live
            self.times[self.hi] = t
            self.rows[self.hi] = values
            self.hi += 1
            self.last_kept = t
            lo = t - self.kappa - 4.0 * self.spacing
            while self.hi - self.lo > 2 and self.times[self.lo + 1] < lo:
                self.lo += 1

    def mollify(self, kernel, t, samples):
        return _mollifier._mollify_arrays(
            self.times[self.lo:self.hi], self.rows[self.lo:self.hi], kernel,
            t, t, samples, cover_slack=4.0 * self.spacing)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(s0: ScalarField, params: ModelParams, config: SolverConfig, b=None):
    """Integrate from the initial field to t_end.

    Returns the trajectory and the monitor series (including the maximum
    principle verdict).  Picard coupling runs a direct pass first and then
    the configured number of global mollified sweeps.
    """
    if config.coupling == "picard":
        direct_cfg = replace(config, coupling="direct")
        traj, monitors = run(s0, params, direct_cfg, b=b)
        distances = []
        for _ in range(config.picard_sweeps):
            traj, monitors, dist = _mollifier.picard_sweep(traj, params,
                                                           direct_cfg, b=b)
            distances.append(dist)
        monitors.picard_distances = distances
        return traj, monitors

    return _drive(s0, params, config, b)


def run_with_coupling_table(s0: ScalarField, params: ModelParams,
                            config: SolverConfig, ref_times, table, b=None):
    """Integrate with the stress assembled from a tabulated coupling field
    (used by the global fixed-point sweeps)."""
    return _drive(s0, params, config, b, table=(ref_times, table))


def _blocker(config: SolverConfig, b_callable, params, op):
    """What keeps the run off the compiled chunk loop, or None."""
    if b_callable is not None:
        return "a time-dependent body force"
    if config.source is not None:
        form = getattr(config.source, "compiled_form", None)
        if form is None:
            return "a source with no compiled form"
        if params is not None and form.constants != source_constants(params, op):
            return "a source built for other model constants"
    return None


def _pick_engine(config: SolverConfig, b_callable,
                 params: Optional[ModelParams] = None, op=None) -> bool:
    """True when the run goes through the compiled chunk loop (building or
    loading it on first use).  ``params`` and ``op`` are the run's; when
    given, a source's compiled form must have been built with the same
    constants.
    ``jit="on"`` warns with the reason whenever the run falls back to numpy:
    what the loop cannot run, or why the loop is unavailable."""
    if config.jit == "off":
        return False
    blocker = _blocker(config, b_callable, params, op)
    if blocker is not None:
        if config.jit == "on":
            warnings.warn(f"the compiled chunk loop cannot run {blocker}; "
                          "using the numpy engine", stacklevel=4)
        return False
    available = _native.chunk_loop() is not None
    if config.jit == "on" and not available:
        warnings.warn(f"compiled chunk loop unavailable ({_native.reason()}); "
                      "falling back to the numpy engine", stacklevel=4)
    return available
