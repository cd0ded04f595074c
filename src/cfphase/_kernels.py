"""The kernel behind the run driver ``solver._drive`` (whose docstring
gives its interface), and the numpy step formula.

The kernel is the fused chunk loop in C (``_chunk_loop.c``, compiled with
the system C compiler on first use and cached, see ``_native``), whose
``_native.Context`` ``_CompiledKernel`` fills once from the run's own
objects; each ``advance`` is then one call of the loop.  It couples
directly, through a coupling table, or through the causal mollification of
the past states; each step reads the coupling field from one buffer (the
state itself, or the table row or causal average that the loop writes after
every step), and it evaluates the manufactured source of the sine mode
itself, from the ``convergence.ManufacturedSolution`` that the source hook
carries as its ``compiled_form`` and the constants of its context, which
the hook reads from the run too.

``_rhs_and_budget`` is the one numpy copy of the step formula, which
``discrete_rhs`` and ``step`` share.  The tests hold a numpy
kernel built on it as the reference for the C loop; the two agree up to
floating-point association, and mollified runs to rounding rather than bit
for bit, as C has libm ``exp`` and a blocked row sum where numpy has its
own ``exp`` and BLAS's ``coef @ values``.
"""

from __future__ import annotations

import numpy as np

from . import _native
from .estimates import ACC_SLOTS
from .model import ModelParams, ScalarField, flux_primitive
from .mollifier import BUMP_MASS

# the causal history keeps states at least kappa / HISTORY_KEEP apart; the
# tests' numpy copy of the history takes it too
HISTORY_KEEP = 512


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


class _CompiledKernel:
    """The fused chunk loop in C: the run's ``_native.Context``, filled once
    from the run's own objects, and ``advance``, one call of the compiled
    loop, which records the plan's rows into the emitter's store itself.

    ``table`` is the coupling table ``(t0, dt, vals, means)`` of a table
    run, and ``seff`` the coupling field at t=0 with its mean ``seff_mean``,
    which the loop rewrites after every step.  A run with ``seff`` and no
    table couples through the causal average over a history that starts
    with the state at t=0; direct coupling has neither."""

    def __init__(self, S, emitter, stops, stride, params, config, op, corr,
                 react_coef, table, seff, seff_mean):
        n = op.grid.n_nodes
        self.arrays = []

        def ptr(arr, shape=(n,), writable=False):
            return _native._ptr(self.arrays, arr, shape, writable)

        dcoeffs = np.ascontiguousarray(params.potential.dcoeffs, dtype=float)
        ctx = self.ctx = _native.Context(
            n=n, dx=op.grid.dx, kappa=params.kappa, c=params.c, nu=params.nu,
            alpha=op.alpha, beta=op.beta, inv_len=1.0 / op.length,
            ncoef=dcoeffs.size, react_coef=react_coef, safety=config.cfl_safety,
            dt_override=config.dt_override, seff_mean=seff_mean,
            n_stops=stops.size, stride=stride, t_end=params.t_end)
        ctx.S = ptr(S, writable=True)
        ctx.rhs_prev = ptr(np.zeros(n), writable=True)
        ctx.acc = ptr(emitter.acc.slots, (len(ACC_SLOTS),), True)
        ctx.sig_eps = ptr(np.ascontiguousarray(corr.sig_dot_eps))
        ctx.dcoeffs = ptr(dcoeffs, dcoeffs.shape)
        ctx.stops = ptr(stops, stops.shape)
        if seff is not None:
            ctx.seff = ptr(seff, writable=True)
        if table is not None:
            ctx.mode = 1
            ctx.tab_t0, ctx.tab_dt, vals, means = table
            ctx.n_tab = len(means)
            ctx.tab_vals = ptr(vals, (ctx.n_tab, n))
            ctx.tab_means = ptr(means, (ctx.n_tab,))
        elif seff is not None:
            # at most HISTORY_KEEP + 6 states are live (one before the
            # window, the rest a spacing apart within kappa + 4 spacings of
            # the newest), so twice that always has room after the live
            # block moves to the front
            cap, samples = 2 * (HISTORY_KEEP + 8), config.mollify_samples
            self.hist_times = np.zeros(cap)
            rows = np.empty((cap, n))
            rows[0] = S
            ctx.mode, ctx.hist_cap, ctx.hist_hi = 2, cap, 1  # S kept at t=0
            ctx.hist_times = ptr(self.hist_times, (cap,), True)
            ctx.hist_rows = ptr(rows, (cap, n), True)
            ctx.hist_spacing = params.kappa / HISTORY_KEEP
            ctx.bump_mass, ctx.samples = BUMP_MASS, samples
            ctx.mol_w = ptr(np.empty(samples), (samples,), True)
            ctx.mol_coef = ptr(np.empty(2 * cap), (2 * cap,), True)
        form = None if config.source is None else config.source.compiled_form
        if form is not None:
            ctx.src, ctx.src_k, ctx.src_mean = 1, form.k, form.sin_mean
            ctx.src_sin, ctx.src_cos = (ptr(np.ascontiguousarray(row, dtype=float))
                                        for row in form.rows(op.grid))
        self.emitter, self.loop, self.bound = emitter, _native.chunk_loop(), None

    def advance(self, t, budget):
        ctx, em = self.ctx, self.emitter
        if self.bound is not em.scalars:  # the first call, or the store grew
            rows, self.rows = len(em.scalars), []
            ctx.rec_scalars = _native._ptr(self.rows, em.scalars,
                                           (rows, 1 + len(ACC_SLOTS)), True)
            ctx.rec_S = _native._ptr(self.rows, em.states, (rows, ctx.n), True)
            if ctx.mode:  # a coupling field per row
                ctx.rec_seff = _native._ptr(self.rows, em.seffs, (rows, ctx.n), True)
            ctx.n_rows, ctx.row_cap, self.bound = em.count, rows, em.scalars
        done = self.loop(ctx, t, budget)
        em.count = ctx.n_rows
        return done, ctx.t, ctx.status

    def newest(self):
        """The time of the newest state the causal history keeps."""
        return float(self.hist_times[self.ctx.hist_hi - 1])
