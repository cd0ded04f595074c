"""Explicit conservative finite-difference integration of the regularized
order-parameter equation, coupled to the quasi-static elasticity solve.

The degenerate diffusion term is differenced in flux form through the
antiderivative of the smoothed absolute value, so interior flux differences
telescope to boundary fluxes exactly; the reaction uses the central gradient
and vanishes identically wherever that gradient is zero.  Time stepping is
forward Euler under an adaptive step-size budget for the gradient-dependent
diffusion coefficient plus a reaction cap.

Two engines produce the same results up to floating-point association: a
fused chunk loop in C (``_chunk_loop.c``, compiled with the system C compiler
on first use and cached, see ``_native``), used automatically when the run
has no time-dependent body force and either no source hook or one that
carries a compiled form (``SineModeSource``, the manufactured source of the
sine mode); and a plain numpy loop, which is the reference, serves the runs
the C loop does not cover (other source hooks among them), and is the
fallback when no compiler is available.  Both couple directly, through a
coupling table, or through the causal mollification of the past states;
the C loop keeps that history and averages after every step itself, with
C ``exp`` and a plain row sum where numpy vectorizes, so mollified runs
agree to rounding rather than bit for bit.  ``jit="on"`` warns whenever a
run falls back to numpy, and says why.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import _native
from . import mollifier as _mollifier
from .elasticity import (CorrectionPair, ElasticityOperator, compute_ustar,
                         solve_correction, zero_body_force)
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
# public single-step operations (plain numpy, reference formulas)
# ---------------------------------------------------------------------------

def discrete_rhs(s: ScalarField, tdot_eps, params: ModelParams,
                 source=None) -> ScalarField:
    """Right-hand side of the evolution equation on interior nodes.

    Flux-form diffusion (differences of the flux primitive of one-sided
    gradients) plus the configurational reaction with the central-gradient
    weight; endpoints are held at zero.
    """
    v = s.values
    dx = s.grid.dx
    kap = params.kappa
    dplus = np.diff(v) / dx
    wplus = np.hypot(dplus, kap)
    fp = 0.5 * (dplus * wplus + kap * kap * np.arcsinh(dplus / kap))
    flux_div = np.diff(fp) / dx
    d0 = (v[2:] - v[:-2]) / (2.0 * dx)
    w0 = np.hypot(d0, kap)
    tview = tdot_eps.values if isinstance(tdot_eps, ScalarField) else np.asarray(tdot_eps, dtype=float)
    psi_p = np.asarray(params.potential.psi_prime(v[1:-1]), dtype=float)
    rhs = np.zeros_like(v)
    rhs[1:-1] = (params.c * params.nu * flux_div
                 + params.c * (tview[1:-1] - psi_p) * (w0 - kap))
    if source is not None:
        src = source.values if isinstance(source, ScalarField) else np.asarray(source, dtype=float)
        rhs[1:-1] += src[1:-1]
    if not np.all(np.isfinite(rhs)):
        raise SolverAbort("non-finite right-hand side", t=float("nan"), step=-1)
    return ScalarField(s.grid, rhs)


def _reaction_prefactor(params: ModelParams, sup_abs: float) -> float:
    """Lipschitz budget for the reaction's dependence on S: the potential
    curvature on the reachable range plus the stress-coupling gains."""
    u_star, eps_star = compute_ustar(params.elastic, params.epsbar)
    alpha = abs(params.elastic.apply(eps_star - params.epsbar).dot(params.epsbar))
    beta = abs(params.elastic.apply(eps_star).dot(params.epsbar))
    bound = sup_abs + 1.0
    return params.potential.psi_prime_lipschitz(-bound, bound) + alpha + beta


def cfl_dt(s: ScalarField, params: ModelParams, safety: float) -> float:
    """Stability budget: safety * dx^2 / (2 c nu max|D+ S|_kappa), further
    capped by safety over c times the reaction's Lipschitz budget on the
    current range of S times max|D0 S|_kappa - kappa, the largest
    central-gradient reaction weight (the same budget the run engines use
    for each step)."""
    dx = s.grid.dx
    kap = params.kappa
    dplus = np.diff(s.values) / dx
    wmax = float(np.max(np.hypot(dplus, kap)))
    w0max = float(np.max(np.hypot(0.5 * (dplus[1:] + dplus[:-1]), kap)))
    dt = safety * dx * dx / (2.0 * params.c * params.nu) / wmax
    gain = params.c * _reaction_prefactor(params, s.max_abs()) * (w0max - kap)
    if gain > 0.0:
        dt = min(dt, safety / gain)
    return dt


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
    sbar = trapezoid(s.values, grid.dx) / op.length
    tdot = op.alpha * s.values - op.beta * sbar + corr.sig_dot_eps
    source = None if config.source is None else config.source(t, grid)
    rhs = discrete_rhs(s, tdot, params, source=source)
    dt = config.dt_override if config.dt_override > 0.0 else cfl_dt(s, params, config.cfl_safety)
    new_values = s.values + dt * rhs.values
    new_values[0] = 0.0
    new_values[-1] = 0.0
    if not np.all(np.isfinite(new_values)):
        raise SolverAbort("non-finite state after update", t=t, step=-1)
    d0 = (s.values[2:] - s.values[:-2]) / (2.0 * grid.dx)
    w0 = np.hypot(d0, params.kappa)
    psi_p = np.asarray(params.potential.psi_prime(s.values[1:-1]), dtype=float)
    reaction = params.c * (tdot[1:-1] - psi_p) * (w0 - params.kappa)
    report = StepReport(
        t=t, dt=dt, max_abs_s=float(np.max(np.abs(new_values))),
        max_grad_weight=float(np.max(np.hypot(np.diff(s.values) / grid.dx, params.kappa))),
        reaction_max=float(np.max(np.abs(reaction))) if reaction.size else 0.0,
        elasticity_residual=corr.residual)
    return ScalarField(grid, new_values), report


# ---------------------------------------------------------------------------
# run engines
# ---------------------------------------------------------------------------

class _Emitter:
    """Collects snapshots and monitor rows while a run progresses."""

    def __init__(self, grid, params, op, corr, s0_values, store_s_eff):
        self.grid = grid
        self.params = params
        self.op = op
        self.corr = corr
        self.acc = MonitorAccumulator(grid, params, s0_values)
        self.times = []
        self.rows = []
        self.tdots = []
        self.seffs = [] if store_s_eff else None
        self.dts_parts = []

    def emit(self, t, s_values, s_eff_values, st_l2):
        sbar = trapezoid(s_eff_values, self.grid.dx) / self.op.length
        tdot = self.op.alpha * s_eff_values - self.op.beta * sbar + self.corr.sig_dot_eps
        self.times.append(t)
        self.rows.append(np.array(s_values))
        self.tdots.append(tdot)
        if self.seffs is not None:
            self.seffs.append(np.array(s_eff_values))
        self.acc.snapshot(t, s_values, st_l2)

    def finish(self):
        dts = np.concatenate(self.dts_parts) if self.dts_parts else np.zeros(0)
        traj = Trajectory(self.grid, np.asarray(self.times), np.vstack(self.rows),
                          tdot_eps=np.vstack(self.tdots),
                          s_eff=np.vstack(self.seffs) if self.seffs is not None else None,
                          dts=dts)
        monitors = self.acc.build(self.corr.residual)
        return traj, monitors


def _initial_st_l2(s0: ScalarField, op, corr, params, s_eff_values, source):
    sbar = trapezoid(s_eff_values, s0.grid.dx) / op.length
    tdot = op.alpha * s_eff_values - op.beta * sbar + corr.sig_dot_eps
    src = None if source is None else source(0.0, s0.grid)
    rhs = discrete_rhs(s0, tdot, params, source=src)
    return float(s0.grid.dx * np.dot(rhs.values, rhs.values))


def _emission_plan(config: SolverConfig, t_end: float):
    if config.snapshot_interval > 0.0:
        return "interval", min(config.snapshot_interval, t_end)
    return "stride", config.snapshot_stride


def _prepare(s0: ScalarField, params: ModelParams, b):
    grid = s0.grid
    if not (grid.a == params.a and grid.d == params.d):
        raise ValueError("grid endpoints do not match the model domain")
    values = np.array(s0.values)
    if values[0] != 0.0 or values[-1] != 0.0:
        warnings.warn("initial data does not vanish at the boundary; pinning endpoints",
                      stacklevel=3)
        values[0] = 0.0
        values[-1] = 0.0
    op = ElasticityOperator.from_params(grid, params)
    b_callable = None
    if b is None:
        b_static = zero_body_force(grid)
    elif callable(b):
        b_callable = b
        b_static = np.asarray(b(0.0), dtype=float)
    else:
        b_static = np.asarray(b, dtype=float)
    corr = solve_correction(b_static, op)
    return grid, values, op, corr, b_callable


def _table_interp(tab_t0, tab_dt, tab_vals, t):
    pos = (t - tab_t0) / tab_dt
    idx = int(min(max(int(pos), 0), tab_vals.shape[0] - 2))
    theta = float(min(max(pos - idx, 0.0), 1.0))
    return idx, theta


def _run_jit(values, grid, params, config, op, corr, table=None):
    S = values  # mutated in place by the compiled loop
    dx = grid.dx
    inv_len = 1.0 / op.length
    coupling = {}
    if table is not None:
        ref_times, tab_vals = table
        tab_vals = np.ascontiguousarray(tab_vals)
        tab_t0 = float(ref_times[0])
        tab_dt = float(ref_times[1] - ref_times[0])
        tab_means = np.array([trapezoid(row, dx) / op.length for row in tab_vals])
        coupling["table"] = (tab_t0, tab_dt, tab_vals, tab_means)

        def seff_at(t):
            idx, theta = _table_interp(tab_t0, tab_dt, tab_vals, t)
            return (1.0 - theta) * tab_vals[idx] + theta * tab_vals[idx + 1]
    elif config.coupling == "mollified":
        # the average at t=0 as the numpy engine takes it; after that the
        # loop appends each new state and averages into this buffer
        kernel = _mollifier.MollifierKernel(params.kappa, centered=False)
        history = _CausalHistory(params.kappa, grid.n_nodes)
        history.append(0.0, values)
        seff = np.array(history.mollify(kernel, 0.0, config.mollify_samples))
        coupling["causal"] = (history, config.mollify_samples,
                              kernel.norm_const, seff,
                              trapezoid(seff, dx) * inv_len)
        seff_at = lambda t: seff  # noqa: E731
    else:
        seff_at = lambda t: S  # noqa: E731

    form = None if config.source is None else config.source.compiled_form
    if form is not None:
        src_sin, src_cos = (np.ascontiguousarray(row, dtype=float)
                            for row in form.rows(grid))
        coupling["source"] = (src_sin, src_cos, form.k, form.mean)

    t_end = params.t_end
    emitter = _Emitter(grid, params, op, corr, values,
                       store_s_eff=(config.coupling == "mollified"
                                    or table is not None))
    s_eff0 = seff_at(0.0)
    st0 = _initial_st_l2(ScalarField(grid, values), op, corr, params, s_eff0,
                         config.source)
    emitter.emit(0.0, values, s_eff0, st0)

    acc = np.zeros(10)
    acc[6] = float(np.max(np.abs(values)))
    rhs_prev = np.zeros(grid.n_nodes)
    dts_buf = np.empty(_CHUNK)
    ctx = _native.context(
        S, rhs_prev, dts_buf, acc, np.ascontiguousarray(corr.sig_dot_eps),
        np.ascontiguousarray(params.potential.dcoeffs, dtype=float),
        dx=dx, kappa=params.kappa, c=params.c, nu=params.nu, alpha=op.alpha,
        beta=op.beta, inv_len=inv_len,
        react_coef=params.c * _reaction_prefactor(params, acc[6]),
        safety=config.cfl_safety, dt_override=config.dt_override, **coupling)
    chunk_loop = _native.chunk_loop()

    plan, cadence = _emission_plan(config, t_end)
    emit_count = 1
    steps_done = 0
    t = 0.0
    tiny_end = 1e-14 * (t_end + 1.0)
    while t < t_end - tiny_end:
        if plan == "interval":
            t_stop = min(t_end, cadence * emit_count)
            budget = _CHUNK
        else:
            t_stop = t_end
            rem = cadence - (steps_done % cadence)
            budget = min(_CHUNK, rem)
        budget = min(budget, config.max_steps - steps_done)
        if budget <= 0:
            raise SolverAbort("step budget exhausted", t=t, step=steps_done)
        done, t, status = chunk_loop(ctx, t, t_stop, budget)
        steps_done += done
        if done:
            emitter.dts_parts.append(dts_buf[:done].copy())
        eacc = emitter.acc
        eacc.diss_cum = acc[0]
        eacc.recip_cum = acc[1]
        eacc.p43_cum = acc[2]
        eacc.wsq_cum = acc[3]
        eacc.linf83_cum = acc[4]
        eacc.st_l2_sq_max = max(eacc.st_l2_sq_max, acc[5])
        eacc.sup_abs_run = max(eacc.sup_abs_run, acc[6])
        eacc.n_steps = steps_done
        if status == 1:
            raise SolverAbort("non-finite state", t=t, step=steps_done)
        if status == 3:
            newest = float(history.times[ctx.hist_hi - 1])
            raise _mollifier.uncovered(newest, t, max(0.0, t - params.kappa), t)
        reached_end = t >= t_end - tiny_end
        if plan == "interval":
            if status == 0:
                emitter.emit(t, S, seff_at(t), acc[8])
                emit_count += 1
        elif steps_done % cadence == 0 or reached_end:
            emitter.emit(t, S, seff_at(t), acc[8])
        if reached_end:
            break

    if acc[9] > 0.0:
        w0 = np.hypot((S[2:] - S[:-2]) / (2.0 * dx), params.kappa)
        emitter.acc.finish_reciprocal(
            acc[9], float(np.dot(rhs_prev[1:-1] / w0, rhs_prev[1:-1])))
    return emitter.finish()


def _run_numpy(values, grid, params, config, op, corr, b_callable=None,
               table=None):
    mode = "direct"
    history = None
    kernel = None
    tab_vals = tab_means = None
    tab_t0 = tab_dt = 0.0
    if table is not None:
        mode = "table"
        ref_times, tab_vals = table
        tab_means = np.array([trapezoid(row, grid.dx) / op.length for row in tab_vals])
        tab_t0 = float(ref_times[0])
        tab_dt = float(ref_times[1] - ref_times[0])
    elif config.coupling == "mollified":
        mode = "mollified"
        kernel = _mollifier.MollifierKernel(params.kappa, centered=False)
        history = _CausalHistory(params.kappa, grid.n_nodes)
        history.append(0.0, values)

    dx = grid.dx
    kap = params.kappa
    c, nu = params.c, params.nu
    t_end = params.t_end
    inv_len = 1.0 / op.length
    sig_eps = corr.sig_dot_eps
    psi_prime = params.potential.psi_prime
    react_coef = c * _reaction_prefactor(params, float(np.max(np.abs(values))))
    diff_coef = config.cfl_safety * dx * dx / (2.0 * c * nu)
    tiny = 1e-14 * (t_end + 1.0)

    def seff_at(t, s_values):
        if mode == "direct":
            return s_values, trapezoid(s_values, dx) * inv_len
        if mode == "table":
            idx, theta = _table_interp(tab_t0, tab_dt, tab_vals, t)
            se = (1.0 - theta) * tab_vals[idx] + theta * tab_vals[idx + 1]
            return se, (1.0 - theta) * tab_means[idx] + theta * tab_means[idx + 1]
        se = history.mollify(kernel, t, config.mollify_samples)
        return se, trapezoid(se, dx) * inv_len

    emitter = _Emitter(grid, params, op, corr, values,
                       store_s_eff=(mode != "direct"))
    # the coupling field of an emission is reused by the step that follows
    # it, at the same t with the same history
    emitted = seff_at(0.0, values)
    st0 = _initial_st_l2(ScalarField(grid, values), op, corr, params,
                         emitted[0], config.source)
    emitter.emit(0.0, values, emitted[0], st0)

    plan, cadence = _emission_plan(config, t_end)
    emit_count = 1
    S = np.array(values)
    rhs_prev = None
    prev_dt = 0.0
    last_st = st0
    t = 0.0
    steps = 0
    dts = []
    while t < t_end - tiny:
        if steps >= config.max_steps:
            raise SolverAbort("step budget exhausted", t=t, step=steps)
        if b_callable is not None:
            corr = solve_correction(np.asarray(b_callable(t), dtype=float), op)
            sig_eps = corr.sig_dot_eps
            emitter.corr = corr
        s_eff, ibar = seff_at(t, S) if emitted is None else emitted
        emitted = None
        # slice differences: the same bits as np.diff on finite input,
        # without its per-call overhead
        dplus = (S[1:] - S[:-1]) / dx
        wplus = np.hypot(dplus, kap)
        fp = 0.5 * (dplus * wplus + kap * kap * np.arcsinh(dplus / kap))
        flux_div = (fp[1:] - fp[:-1]) / dx
        d0 = 0.5 * (dplus[1:] + dplus[:-1])
        w0 = np.hypot(d0, kap)
        d2 = (dplus[1:] - dplus[:-1]) / dx
        psi_p = psi_prime(S[1:-1])
        tdot = op.alpha * s_eff[1:-1] - op.beta * ibar + sig_eps[1:-1]
        rhs = c * nu * flux_div + c * (tdot - psi_p) * (w0 - kap)
        if config.source is not None:
            rhs = rhs + np.asarray(config.source(t, grid), dtype=float)[1:-1]

        wmax = float(wplus.max())
        gmax = float(np.abs(dplus).max())
        w0max = float(w0.max()) if w0.size else kap
        dt = diff_coef / wmax
        gain = react_coef * (w0max - kap)
        if gain > 0.0:
            dt = min(dt, config.cfl_safety / gain)
        if config.dt_override > 0.0:
            dt = config.dt_override
        t_stop = min(t_end, cadence * emit_count) if plan == "interval" else t_end
        if t + dt >= t_stop - tiny:
            dt = t_stop - t

        sum_recip = float(np.dot(rhs_prev / w0, rhs_prev)) if rhs_prev is not None else 0.0
        st_l2 = dx * float(np.dot(rhs, rhs))
        acc = emitter.acc
        acc.accumulate(dt, float(np.dot(w0, d2 * d2)),
                       float(np.sum((w0 * np.abs(d2)) ** _P43)),
                       float(np.dot(w0, w0)), gmax, sum_recip, prev_dt,
                       st_l2, 0.0)
        S[1:-1] += dt * rhs
        sup_new = float(np.max(np.abs(S)))
        if sup_new > acc.sup_abs_run:
            acc.sup_abs_run = sup_new
        t += dt
        steps += 1
        dts.append(dt)
        rhs_prev = rhs
        prev_dt = dt
        last_st = st_l2
        if not np.isfinite(sup_new) or not np.isfinite(st_l2):
            raise SolverAbort("non-finite state", t=t, step=steps)
        if history is not None:
            history.append(t, S)

        reached_end = t >= t_end - tiny
        if plan == "interval":
            if t >= t_stop - tiny:
                emitted = seff_at(t, S)
                emitter.emit(t, S, emitted[0], last_st)
                emit_count += 1
        elif steps % cadence == 0 or reached_end:
            emitted = seff_at(t, S)
            emitter.emit(t, S, emitted[0], last_st)
        if reached_end:
            break

    if rhs_prev is not None:
        w0_final = np.hypot((S[2:] - S[:-2]) / (2.0 * dx), kap)
        emitter.acc.finish_reciprocal(
            prev_dt, float(np.dot(rhs_prev / w0_final, rhs_prev)))
    emitter.dts_parts.append(np.asarray(dts))
    return emitter.finish()


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

    grid, values, op, corr, b_callable = _prepare(s0, params, b)
    if _pick_engine(config, b_callable, params, op):
        return _run_jit(values, grid, params, config, op, corr)
    return _run_numpy(values, grid, params, config, op, corr,
                      b_callable=b_callable)


def run_with_coupling_table(s0: ScalarField, params: ModelParams,
                            config: SolverConfig, ref_times, table, b=None):
    """Integrate with the stress assembled from a tabulated coupling field
    (used by the global fixed-point sweeps)."""
    grid, values, op, corr, b_callable = _prepare(s0, params, b)
    tab = (np.asarray(ref_times, dtype=float), np.asarray(table, dtype=float))
    if _pick_engine(config, b_callable, params, op):
        return _run_jit(values, grid, params, config, op, corr, table=tab)
    return _run_numpy(values, grid, params, config, op, corr,
                      b_callable=b_callable, table=tab)


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
                          "using the numpy engine", stacklevel=3)
        return False
    available = _native.chunk_loop() is not None
    if config.jit == "on" and not available:
        warnings.warn(f"compiled chunk loop unavailable ({_native.reason()}); "
                      "falling back to the numpy engine", stacklevel=3)
    return available
