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
  the post-step field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .model import ModelParams, ScalarField, smoothed_abs, trapezoid


def _values(s) -> np.ndarray:
    return s.values if isinstance(s, ScalarField) else np.asarray(s, dtype=float)


def cell_gradients(values: np.ndarray, dx: float) -> np.ndarray:
    return np.diff(values) / dx


def node_gradients(values: np.ndarray, dx: float) -> np.ndarray:
    """Central differences on interior nodes, one-sided at the two ends."""
    g = np.empty_like(values)
    g[1:-1] = (values[2:] - values[:-2]) / (2.0 * dx)
    g[0] = (values[1] - values[0]) / dx
    g[-1] = (values[-1] - values[-2]) / dx
    return g


def second_differences(values: np.ndarray, dx: float) -> np.ndarray:
    """3-point second difference on interior nodes."""
    return (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (dx * dx)


def grad_l2_sq(s) -> float:
    """Squared L2 norm of the gradient: sum over cells of dx * (D+ S)^2."""
    v = _values(s)
    dx = s.grid.dx if isinstance(s, ScalarField) else None
    if dx is None:
        raise TypeError("grad_l2_sq expects a ScalarField")
    g = cell_gradients(v, dx)
    return float(dx * np.dot(g, g))


def weighted_dissipation_increment(s, params: ModelParams, dt: float = 1.0) -> float:
    """dt * integral of |S_x|_kappa * S_xx^2 over interior nodes."""
    v = _values(s)
    dx = s.grid.dx
    w0 = smoothed_abs((v[2:] - v[:-2]) / (2.0 * dx), params.kappa)
    d2 = second_differences(v, dx)
    return float(dt * dx * np.dot(w0, d2 * d2))


def reciprocal_dissipation_increment(s_new, s_old, dt: float,
                                     params: ModelParams) -> float:
    """dt * integral of ((S_new - S_old)/dt)^2 / |S_x|_kappa.

    The gradient weight is evaluated on the post-step field; the integral is
    a composite trapezoid over all nodes with one-sided gradients at the two
    ends, so a uniform change with zero gradient integrates exactly.
    """
    if not (dt > 0.0):
        raise ValueError("dt must be positive")
    vn, vo = _values(s_new), _values(s_old)
    dx = s_new.grid.dx
    st = (vn - vo) / dt
    w = smoothed_abs(node_gradients(vn, dx), params.kappa)
    return float(dt * trapezoid(st * st / w, dx))


def lyapunov(s, params: ModelParams) -> float:
    """Energy integral of nu/2 * S_x^2 + psi(S) (without the kinetic factor)."""
    v = _values(s)
    dx = s.grid.dx
    grad_part = 0.5 * params.nu * dx * float(np.dot(np.diff(v) / dx, np.diff(v) / dx))
    return grad_part + trapezoid(np.asarray(params.potential.psi(v), dtype=float), dx)


def st_l2_sq(s_new, s_old, dt: float) -> float:
    """Squared L2 norm of the backward difference quotient."""
    vn, vo = _values(s_new), _values(s_old)
    dx = s_new.grid.dx
    st = (vn - vo) / dt
    return float(trapezoid(st * st, dx))


def weighted_sxx_l2(s, params: ModelParams) -> float:
    """L2 norm of |S_x|_kappa * S_xx over interior nodes."""
    v = _values(s)
    dx = s.grid.dx
    w0 = smoothed_abs((v[2:] - v[:-2]) / (2.0 * dx), params.kappa)
    d2 = second_differences(v, dx)
    prod = w0 * d2
    return float(np.sqrt(dx * np.dot(prod, prod)))


def holder_product_bound(diss_cum: float, weight_sq_cum: float) -> float:
    """Upper bound for the 4/3-power dissipation via the discrete Hoelder
    inequality: (integral of w^2)^(1/3) * (integral of w*Sxx^2)^(2/3)."""
    return weight_sq_cum ** (1.0 / 3.0) * diss_cum ** (2.0 / 3.0)


@dataclass
class MonitorSeries:
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

    t: np.ndarray
    sup_abs: np.ndarray
    grad_l2_sq: np.ndarray
    st_l2_sq: np.ndarray
    energy: np.ndarray
    weighted_sxx_l2: np.ndarray
    dissipation_cum: np.ndarray
    reciprocal_cum: np.ndarray
    p43_cum: np.ndarray
    grad_linf83_cum: np.ndarray
    grad_weight_sq_cum: np.ndarray
    kappa: float
    n_steps: int
    sup_abs_run: float          # max |S| over every step, not just snapshots
    st_l2_sq_max: float         # max ||S_t||^2 over every step
    max_abs_s0: float
    max_principle_ok: bool
    elasticity_residual: float
    picard_distances: Optional[List[float]] = None
    mollifier_truncated: bool = False

    COLUMNS = ("t", "sup_abs", "grad_l2_sq", "st_l2_sq", "energy",
               "weighted_sxx_l2", "dissipation_cum", "reciprocal_cum",
               "p43_cum", "grad_linf83_cum", "grad_weight_sq_cum")

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


class MonitorAccumulator:
    """Step-by-step builder for a MonitorSeries.

    Fed once per solver step with the pre-step state's integrand sums and the
    step size actually taken, mirroring the solver's own arithmetic.
    """

    def __init__(self, grid, params: ModelParams, s0_values: np.ndarray):
        self.dx = grid.dx
        self.params = params
        self.kappa = params.kappa
        self.max_abs_s0 = float(np.max(np.abs(s0_values)))
        self.sup_abs_run = self.max_abs_s0
        self.st_l2_sq_max = 0.0
        self.diss_cum = 0.0
        self.recip_cum = 0.0
        self.p43_cum = 0.0
        self.linf83_cum = 0.0
        self.wsq_cum = 0.0
        self.n_steps = 0
        self._rows = {name: [] for name in MonitorSeries.COLUMNS}

    def accumulate(self, dt: float, sum_w_d2sq: float, sum_p43: float,
                   sum_wsq: float, grad_max: float, sum_recip_prev: float,
                   prev_dt: float, st_l2: float, sup_abs_new: float):
        """Advance cumulative integrals by one solver step.

        ``sum_*`` are plain interior-node sums of the respective integrands on
        the pre-step state; ``sum_recip_prev`` pairs the previous step's
        difference quotient with the current (post-step) gradient weight and
        is therefore scaled by the previous step size.
        """
        dxw = self.dx
        self.diss_cum += dt * dxw * sum_w_d2sq
        self.p43_cum += dt * dxw * sum_p43
        self.wsq_cum += dt * dxw * sum_wsq
        self.linf83_cum += dt * grad_max ** (8.0 / 3.0)
        if prev_dt > 0.0:
            self.recip_cum += prev_dt * dxw * sum_recip_prev
        if st_l2 > self.st_l2_sq_max:
            self.st_l2_sq_max = st_l2
        if sup_abs_new > self.sup_abs_run:
            self.sup_abs_run = sup_abs_new
        self.n_steps += 1

    def finish_reciprocal(self, dt: float, sum_recip: float):
        """Fold in the final step's reciprocal increment (its post-step
        gradient weight is only known after the loop ends)."""
        self.recip_cum += dt * self.dx * sum_recip

    def snapshot(self, t: float, s_values: np.ndarray, st_l2: float):
        v = np.asarray(s_values, dtype=float)
        dx = self.dx
        g = np.diff(v) / dx
        w0 = smoothed_abs((v[2:] - v[:-2]) / (2.0 * dx), self.kappa)
        d2 = second_differences(v, dx)
        prod = w0 * d2
        # a diverging state may overflow the squares and the quartic right
        # before the solver aborts; an inf diagnostic row is fine
        with np.errstate(over="ignore", invalid="ignore"):
            gl2 = float(dx * np.dot(g, g))
            sxx = float(np.sqrt(dx * np.dot(prod, prod)))
            psi_vals = np.asarray(self.params.potential.psi(v), dtype=float)
        rows = self._rows
        rows["t"].append(t)
        rows["sup_abs"].append(float(np.max(np.abs(v))))
        rows["grad_l2_sq"].append(gl2)
        rows["st_l2_sq"].append(st_l2)
        rows["energy"].append(0.5 * self.params.nu * gl2 + trapezoid(psi_vals, dx))
        rows["weighted_sxx_l2"].append(sxx)
        rows["dissipation_cum"].append(self.diss_cum)
        rows["reciprocal_cum"].append(self.recip_cum)
        rows["p43_cum"].append(self.p43_cum)
        rows["grad_linf83_cum"].append(self.linf83_cum)
        rows["grad_weight_sq_cum"].append(self.wsq_cum)

    def build(self, elasticity_residual: float, tol: float = 1e-10) -> MonitorSeries:
        arrays = {name: np.asarray(vals, dtype=float)
                  for name, vals in self._rows.items()}
        return MonitorSeries(
            kappa=self.kappa, n_steps=self.n_steps,
            sup_abs_run=self.sup_abs_run, st_l2_sq_max=self.st_l2_sq_max,
            max_abs_s0=self.max_abs_s0,
            max_principle_ok=self.sup_abs_run <= self.max_abs_s0 + tol,
            elasticity_residual=elasticity_residual, **arrays)
