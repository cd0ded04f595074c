"""The two kernels behind the run driver ``solver._drive``, whose docstring
gives the interface they share.

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
"""

from __future__ import annotations

import numpy as np

from . import _native
from . import mollifier as _mollifier
from .model import ModelParams, ScalarField, trapezoid

_P43 = 4.0 / 3.0


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


def _table_at(table, t):
    """A coupling table ``(t0, dt, vals, means)`` interpolated linearly in
    time at t: the field and its mean."""
    tab_t0, tab_dt, tab_vals, tab_means = table
    pos = (t - tab_t0) / tab_dt
    idx = int(min(max(int(pos), 0), tab_vals.shape[0] - 2))
    theta = float(min(max(pos - idx, 0.0), 1.0))
    return ((1.0 - theta) * tab_vals[idx] + theta * tab_vals[idx + 1],
            (1.0 - theta) * tab_means[idx] + theta * tab_means[idx + 1])


def _causal_kernel(params):
    return _mollifier.MollifierKernel(params.kappa, centered=False)


class _CompiledKernel:
    """The fused chunk loop in C: the run's context, filled once, and
    ``advance``, one ``chunk_loop`` call, which records the plan's rows
    into the emitter's store itself."""

    def __init__(self, S, rhs_prev, emitter, stops, stride, params, config,
                 op, corr, react_coef, coupling):
        form = None if config.source is None else config.source.compiled_form
        if form is not None:
            coupling = dict(coupling, source=(
                *(np.ascontiguousarray(row, dtype=float) for row in form.rows(op.grid)),
                form.k, form.mean))
        self.history = coupling["causal"][0] if "causal" in coupling else None
        self.emitter = emitter
        self.ctx = _native.context(
            S, rhs_prev, emitter.acc.slots,
            np.ascontiguousarray(corr.sig_dot_eps),
            np.ascontiguousarray(params.potential.dcoeffs, dtype=float),
            dx=op.grid.dx, kappa=params.kappa, c=params.c, nu=params.nu,
            alpha=op.alpha, beta=op.beta, inv_len=1.0 / op.length,
            react_coef=react_coef, safety=config.cfl_safety,
            dt_override=config.dt_override, stops=stops, stride=stride,
            t_end=params.t_end, **coupling)
        self.loop = _native.chunk_loop()
        self.bound = None

    def advance(self, t, budget):
        em = self.emitter
        if self.bound is not em.scalars:  # the first call, or the store grew
            _native.bind_rows(self.ctx, em.scalars, em.states, em.seffs, em.count)
            self.bound = em.scalars
        done, t, status = self.loop(self.ctx, t, budget)
        em.count = self.ctx.n_rows
        return done, t, status

    def newest(self):
        """The time of the newest state the causal history keeps."""
        return float(self.history.times[self.ctx.hist_hi - 1])


class _NumpyKernel:
    """The reference kernel: the loop of ``_chunk_loop.c`` in numpy, with
    the step formula of ``_rhs_and_budget``, the monitor fold of
    ``MonitorAccumulator.accumulate``, the emitter's ``emit`` for each row,
    and any source hook.  ``corr_at`` is the per-step correction of a body
    force that varies in time (or None)."""

    def __init__(self, S, rhs_prev, emitter, stops, stride, params, config,
                 op, corr, react_coef, coupling, corr_at):
        self.S, self.rhs_prev = S, rhs_prev
        self.emitter, self.acc = emitter, emitter.acc
        self.stops, self.stride, self.t_end = stops.tolist(), stride, params.t_end
        self.next_stop = self.steps = 0
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

    def advance(self, t, budget):
        """``walk_plan`` of ``_chunk_loop.c``: at most ``budget`` steps along
        the emission plan, recording its rows while the store has room."""
        em, stride, t_end = self.emitter, self.stride, self.t_end
        end_tiny = 1e-14 * (t_end + 1.0)
        done, status = 0, 2
        while done < budget and em.count < len(em.scalars):
            chunk = budget - done
            if stride:
                t_stop = t_end
                chunk = min(chunk, stride - self.steps % stride)
            else:
                t_stop = self.stops[self.next_stop]
            k, t, status = self._steps(t, t_stop, chunk)
            done += k
            self.steps += k
            if status == 1 or status == 3:
                break
            at_end = t >= t_end - end_tiny
            if (self.steps % stride == 0 or at_end) if stride else status == 0:
                self._record(t)
                self.next_stop += 1
            status = 0 if at_end else 2
            if at_end:
                break
        return done, t, status

    def _record(self, t):
        em = self.emitter
        if self.corr_at is not None:
            # the emitted stress balances the body force at t
            em.corr = self.corr_at(t)
        em.emit(t, self.S, None if em.seffs is None else self._field_at(t)[0])

    # a diverging step overflows quietly, as in the compiled loop, and the
    # non-finite check ends the chunk
    @np.errstate(over="ignore", invalid="ignore")
    def _steps(self, t, t_stop, budget):
        """``advance`` of ``_chunk_loop.c``: at most ``budget`` steps from t
        towards t_stop."""
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
