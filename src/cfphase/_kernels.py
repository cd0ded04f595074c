"""The kernel behind the run driver ``solver._drive`` (whose docstring
gives its interface), and the numpy step formula.

The kernel is the fused chunk loop in C (``_chunk_loop.c``, compiled with
the system C compiler on first use and cached, see ``_native``).  It couples
directly, through a coupling table, or through the causal mollification of
the past states; each step reads the coupling field from one buffer (the
state itself, or the table row or causal average that the loop writes after
every step), and it evaluates the manufactured source of the sine mode
(``SineModeSource``) itself.

``_rhs_and_budget`` is the one numpy copy of the step formula, which
``discrete_rhs``, ``cfl_dt`` and ``step`` share.  The tests hold a numpy
kernel built on it as the reference for the C loop; the two agree up to
floating-point association, and mollified runs to rounding rather than bit
for bit, as C has libm ``exp`` and a blocked row sum where numpy has its
own ``exp`` and BLAS's ``coef @ values``.
"""

from __future__ import annotations

import numpy as np

from . import _native
from . import mollifier as _mollifier
from .model import ModelParams, ScalarField


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
