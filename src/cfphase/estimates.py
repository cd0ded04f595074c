"""Discrete analogues of the solver's a priori bounds, recorded as time
series while a run progresses.

Conventions (shared with the solver so difference quotients and right-hand
sides agree to machine precision):

* node gradients are central differences, cell gradients forward differences;
* second differences are the 3-point stencil, with the pinned boundary zeros
  as neighbor values next to the ends;
* the time derivative is the backward difference of consecutive states over
  the recorded step size;
* space integrals of node quantities are composite trapezoid sums, and the
  integrands built from second differences live on interior nodes;
* cumulative time integrals use the solver's own step sequence, left-endpoint
  in time; the reciprocal-weight integrand evaluates its gradient weight on
  the post-step field.  That weight is known only when the next step starts,
  so a recorded row's ``reciprocal_cum`` holds the terms of every step
  before the row's last step, and a run's final value leaves out its last
  step's term.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .model import ModelParams, block_rows, smoothed_abs, trapezoid_rows
from .tensors import Record


# ---------------------------------------------------------------------------
# the snapshot integrands, one row per state; each squared norm is a per-row
# dot product, so a row gives the same bits whether it is passed alone or
# stacked
# ---------------------------------------------------------------------------

def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot`` of each pair of rows in one call: vecdot takes each pair
    through np.dot's loop."""
    return np.vecdot(a, b)


def grad_sq_rows(v: np.ndarray, dx: float) -> np.ndarray:
    """||S_x||^2 of each row: dx times the sum of squared cell gradients."""
    g = (v[:, 1:] - v[:, :-1]) / dx
    return dx * _row_dots(g, g)


def weighted_sxx_rows(v: np.ndarray, dx: float, kappa: float) -> np.ndarray:
    """|| |S_x|_kappa S_xx || of each row, over interior nodes."""
    w0 = smoothed_abs((v[:, 2:] - v[:, :-2]) / (2.0 * dx), kappa)
    prod = w0 * ((v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / (dx * dx))
    return np.sqrt(dx * _row_dots(prod, prod))


def energy_rows(v: np.ndarray, dx: float, params: ModelParams,
                grad_sq: np.ndarray) -> np.ndarray:
    """Energy of each row, nu/2 ||S_x||^2 + integral of psi(S), given the
    rows' ``grad_sq_rows``."""
    return 0.5 * params.nu * grad_sq + trapezoid_rows(params.potential.psi(v), dx)


class MonitorSeries(Record):
    """Per-snapshot estimate functionals plus their running extremes.

    Instantaneous columns: sup |S|, ||S_x||^2, ||S_t||^2, energy,
    || |S_x|_k S_xx ||.  Cumulative columns (non-decreasing): the weighted
    dissipation, the reciprocal-weight dissipation, the 4/3-power
    dissipation, the running integral of ||S_x||_inf^(8/3), and the running
    integral of || |S_x|_k ||^2 used by the Hoelder cross-check.

    Sobolev/Poincare repackagings of the 4/3-power dissipation (mixed-norm
    bounds on the flux primitive and on |S_x| S_x) are covered by the
    tracked columns and intentionally not duplicated as separate series.
    """

    COLUMNS = ("t", "sup_abs", "grad_l2_sq", "st_l2_sq", "energy",
               "weighted_sxx_l2", "dissipation_cum", "reciprocal_cum",
               "p43_cum", "grad_linf83_cum", "grad_weight_sq_cum")

    __slots__ = COLUMNS + (
        "kappa", "n_steps", "sup_abs_run", "st_l2_sq_max", "max_abs_s0",
        "max_principle_ok", "elasticity_residual", "picard_distances",
        "mollifier_truncated")

    def __init__(self, t: np.ndarray, sup_abs: np.ndarray,
                 grad_l2_sq: np.ndarray, st_l2_sq: np.ndarray,
                 energy: np.ndarray, weighted_sxx_l2: np.ndarray,
                 dissipation_cum: np.ndarray, reciprocal_cum: np.ndarray,
                 p43_cum: np.ndarray, grad_linf83_cum: np.ndarray,
                 grad_weight_sq_cum: np.ndarray, kappa: float, n_steps: int,
                 sup_abs_run: float, st_l2_sq_max: float, max_abs_s0: float,
                 max_principle_ok: bool, elasticity_residual: float,
                 picard_distances: Optional[List[float]] = None,
                 mollifier_truncated: bool = False):
        self.t = t
        self.sup_abs = sup_abs
        self.grad_l2_sq = grad_l2_sq
        self.st_l2_sq = st_l2_sq
        self.energy = energy
        self.weighted_sxx_l2 = weighted_sxx_l2
        self.dissipation_cum = dissipation_cum
        self.reciprocal_cum = reciprocal_cum
        self.p43_cum = p43_cum
        self.grad_linf83_cum = grad_linf83_cum
        self.grad_weight_sq_cum = grad_weight_sq_cum
        self.kappa = kappa
        self.n_steps = n_steps
        self.sup_abs_run = sup_abs_run  # max |S| over every step, not just snapshots
        self.st_l2_sq_max = st_l2_sq_max  # max ||S_t||^2 over every step
        self.max_abs_s0 = max_abs_s0
        self.max_principle_ok = max_principle_ok
        self.elasticity_residual = elasticity_residual
        self.picard_distances = picard_distances
        self.mollifier_truncated = mollifier_truncated

    @property
    def max_principle_margin(self) -> float:
        return self.sup_abs_run - self.max_abs_s0

    def finals(self) -> dict:
        """Final/extreme values used for cross-kappa uniformity checks."""
        return {
            "sup_abs_run": self.sup_abs_run,
            "grad_l2_sq_final": float(self.grad_l2_sq[-1]),
            "st_l2_sq_max": self.st_l2_sq_max,
            "energy_final": float(self.energy[-1]),
            "dissipation_cum": float(self.dissipation_cum[-1]),
            "reciprocal_cum": float(self.reciprocal_cum[-1]),
            "p43_cum": float(self.p43_cum[-1]),
            "grad_linf83_cum": float(self.grad_linf83_cum[-1]),
        }

    UNIFORMITY_KEYS = ("dissipation_cum", "reciprocal_cum", "st_l2_sq_max",
                       "p43_cum", "grad_linf83_cum")


# The running integrals over time of the monitor integrands, which a run
# with a source leaves NaN (the chunk loop skips them).
RUNNING_INTEGRALS = ("dissipation_cum", "reciprocal_cum", "p43_cum",
                     "grad_weight_sq_cum", "grad_linf83_cum")

# The slots of the running monitors in the ``acc`` array that the chunk
# loop writes in place, in the layout of the header comment of
# ``_chunk_loop.c``: the five running integrals, the largest ||S_t||^2 and
# sup |S| so far, and the last step's dt (which the next step's reciprocal
# term reads) and ||S_t||^2.  A recorded row is t and these slots as they
# stand; each slot named like a MonitorSeries column becomes that column.
ACC_SLOTS = RUNNING_INTEGRALS + ("st_l2_sq_max", "sup_abs_run", "last_dt",
                                 "st_l2_sq")


def _slot(name):
    i = ACC_SLOTS.index(name)
    return property(lambda self: float(self.slots[i]),
                    doc=f"``slots[{i}]``, {name}")


class MonitorAccumulator:
    """Step-by-step builder for a MonitorSeries.

    Its running sums live in ``slots`` (laid out as ``ACC_SLOTS``), which
    the compiled chunk loop writes in place.  ``accumulate`` folds one step
    into them with the loop's arithmetic, for the tests' numpy reference
    kernel.  The instantaneous columns of the emitted states are computed
    in one pass when the run ends (``build``).
    """

    st_l2_sq_max = _slot("st_l2_sq_max")
    sup_abs_run = _slot("sup_abs_run")

    def __init__(self, grid, params: ModelParams, s0_values: np.ndarray):
        self.dx = grid.dx
        self.params = params
        self.kappa = params.kappa
        self.max_abs_s0 = float(np.max(np.abs(s0_values)))
        self.slots = np.zeros(len(ACC_SLOTS))
        self.slots[ACC_SLOTS.index("sup_abs_run")] = self.max_abs_s0
        self.n_steps = 0

    def accumulate(self, dt: float, sum_w_d2sq: float, sum_p43: float,
                   sum_wsq: float, grad_max: float, sum_recip: float,
                   st_l2: float, sup_abs_new: float):
        """Fold one step into the slots, with the compiled loop's arithmetic.

        ``sum_*`` are plain interior-node sums of the respective integrands
        on the pre-step state; ``sum_recip`` pairs the previous step's
        right-hand side with the current gradient weight and is therefore
        scaled by the previous step size.  ``st_l2`` is this step's
        ||S_t||^2 and ``sup_abs_new`` the post-step sup |S|.
        """
        a = self.slots
        dxw = self.dx
        a[0] += dt * dxw * sum_w_d2sq
        a[2] += dt * dxw * sum_p43
        a[3] += dt * dxw * sum_wsq
        a[4] += dt * grad_max ** (8.0 / 3.0)
        if a[7] > 0.0:
            a[1] += a[7] * dxw * sum_recip
        if st_l2 > a[5]:
            a[5] = st_l2
        if sup_abs_new > a[6]:
            a[6] = sup_abs_new
        a[7] = dt
        a[8] = st_l2

    def snapshot(self, states: np.ndarray) -> dict:
        """The instantaneous columns of every emitted state at once:
        sup |S|, ||S_x||^2, the energy and || |S_x|_k S_xx ||, one entry per
        row of the (snapshots x nodes) matrix, in blocks of ``block_rows``
        rows."""
        rows, step = len(states), block_rows(states.shape[1])
        cols = {name: np.empty(rows) for name in
                ("sup_abs", "grad_l2_sq", "energy", "weighted_sxx_l2")}
        dx, params = self.dx, self.params
        # a diverging state may overflow the squares and the quartic right
        # before the solver aborts; an inf diagnostic row is fine
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, rows, step):
                v = states[lo:lo + step]
                part = slice(lo, lo + len(v))
                gl2 = grad_sq_rows(v, dx)
                cols["sup_abs"][part] = np.max(np.abs(v), axis=1)
                cols["grad_l2_sq"][part] = gl2
                cols["energy"][part] = energy_rows(v, dx, params, gl2)
                cols["weighted_sxx_l2"][part] = weighted_sxx_rows(v, dx, self.kappa)
        return cols

    def build(self, recorded: np.ndarray, states: np.ndarray,
              elasticity_residual: float, tol: float = 1e-10) -> MonitorSeries:
        """The series of the emitted rows: their ``states``, and ``recorded``,
        one row per name of ("t",) + ``ACC_SLOTS`` holding that value as it
        stood at each emission; each one named like a column becomes it."""
        return MonitorSeries(
            kappa=self.kappa, n_steps=self.n_steps,
            sup_abs_run=self.sup_abs_run, st_l2_sq_max=self.st_l2_sq_max,
            max_abs_s0=self.max_abs_s0,
            max_principle_ok=self.sup_abs_run <= self.max_abs_s0 + tol,
            elasticity_residual=elasticity_residual, **self.snapshot(states),
            **{name: column for name, column in zip(("t",) + ACC_SLOTS, recorded)
               if name in MonitorSeries.COLUMNS})
