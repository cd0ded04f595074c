"""Closed-form solution of the quasi-static elasticity subproblem.

Given the order-parameter field s on the interval, the stress and
displacement are assembled from a constant direction pair (u_star, eps_star)
determined by the stiffness map and the misfit strain, plus a correction pair
(w, sigma1) that balances the body force with zero boundary displacement.
The defining property of u_star is that the s-dependent part of the stress is
divergence-free in x: the first column of D(eps_star - epsbar) vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Grid, ModelParams, ScalarField, cumulative_trapezoid, trapezoid
from .tensors import ElasticTensor, SymMatrix3

_SQRT2 = float(np.sqrt(2.0))


def acoustic_matrix(elastic: ElasticTensor) -> np.ndarray:
    """3x3 SPD matrix whose column k is the first column of D sym(e_k x e1)."""
    cols = [elastic.apply(SymMatrix3.sym_grad_e1(e)).first_column()
            for e in np.eye(3)]
    return np.column_stack(cols)


def compute_ustar(elastic: ElasticTensor, epsbar: SymMatrix3):
    """Constants (u_star, eps_star) making the s-dependent stress x-divergence
    free: solve M u_star = first column of D epsbar, eps_star = sym(u_star x e1).

    Postcondition: the first column of D(eps_star - epsbar) vanishes.
    """
    m = acoustic_matrix(elastic)
    rhs = elastic.apply(epsbar).first_column()
    try:
        u_star = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:  # cannot happen for SPD input
        raise ValueError("acoustic matrix is singular; stiffness map invalid") from exc
    return u_star, SymMatrix3.sym_grad_e1(u_star)


@dataclass(frozen=True)
class ElasticityOperator:
    """Precomputed machinery for one (grid, stiffness, misfit) triple."""

    grid: Grid
    elastic: ElasticTensor
    epsbar: SymMatrix3
    u_star: np.ndarray
    eps_star: SymMatrix3
    acoustic: np.ndarray
    d_gap: SymMatrix3        # D(eps_star - epsbar); first column ~ 0
    d_eps_star: SymMatrix3   # D eps_star
    alpha: float             # D(eps_star - epsbar) : epsbar
    beta: float              # D eps_star : epsbar

    @classmethod
    def build(cls, grid: Grid, elastic: ElasticTensor,
              epsbar: SymMatrix3) -> "ElasticityOperator":
        u_star, eps_star = compute_ustar(elastic, epsbar)
        d_gap = elastic.apply(eps_star - epsbar)
        d_eps_star = elastic.apply(eps_star)
        return cls(grid=grid, elastic=elastic, epsbar=epsbar, u_star=u_star,
                   eps_star=eps_star, acoustic=acoustic_matrix(elastic),
                   d_gap=d_gap, d_eps_star=d_eps_star,
                   alpha=d_gap.dot(epsbar), beta=d_eps_star.dot(epsbar))

    @classmethod
    def from_params(cls, grid: Grid, params: ModelParams) -> "ElasticityOperator":
        return cls.build(grid, params.elastic, params.epsbar)

    @property
    def length(self) -> float:
        return self.grid.d - self.grid.a


@dataclass(frozen=True)
class CorrectionPair:
    """Displacement correction w and first stress column sigma1 balancing the
    body force with w = 0 at both endpoints."""

    w: np.ndarray            # (n+1, 3)
    sigma1: np.ndarray       # (n+1, 3)
    sigma_mandel: np.ndarray  # (n+1, 6), full correction stress
    sig_dot_eps: np.ndarray  # (n+1,), sigma : epsbar
    residual: float          # max interior |central-diff(sigma1) + b|


def solve_correction(b: np.ndarray, op: ElasticityOperator) -> CorrectionPair:
    """Solve -sigma1' = b, sigma = D sym(w' x e1), w = 0 on the boundary.

    sigma1(x) = C - int_a^x b, with C the mean of the running integral so the
    displacement returns to zero at x = d; w' = M^{-1} sigma1.
    """
    grid = op.grid
    b = np.asarray(b, dtype=float)
    if b.shape != (grid.n_nodes, 3):
        raise ValueError("body force must be sampled as (n_nodes, 3)")
    dx = grid.dx
    running = cumulative_trapezoid(b, dx)
    c_const = np.array([trapezoid(running[:, j], dx) for j in range(3)]) / op.length
    sigma1 = c_const[None, :] - running
    w_x = np.linalg.solve(op.acoustic, sigma1.T).T
    w = cumulative_trapezoid(w_x, dx)

    # full correction stress per node, in Mandel coordinates
    wx_mandel = np.zeros((grid.n_nodes, 6))
    wx_mandel[:, 0] = w_x[:, 0]
    wx_mandel[:, 3] = w_x[:, 1] / _SQRT2
    wx_mandel[:, 4] = w_x[:, 2] / _SQRT2
    sigma_mandel = wx_mandel @ op.elastic.matrix.T
    sig_dot_eps = sigma_mandel @ op.epsbar.mandel()

    interior = slice(1, -1)
    dsig = (sigma1[2:] - sigma1[:-2]) / (2.0 * dx)
    residual = float(np.max(np.abs(dsig + b[interior]))) if grid.n_nodes > 2 else 0.0
    return CorrectionPair(w=w, sigma1=sigma1, sigma_mandel=sigma_mandel,
                          sig_dot_eps=sig_dot_eps, residual=residual)


def zero_body_force(grid: Grid) -> np.ndarray:
    return np.zeros((grid.n_nodes, 3))


class StressAssembly(NamedTuple):
    t_mandel: np.ndarray     # (n+1, 6)
    tdot_eps: np.ndarray     # (n+1,)


def _field_values(s_eff) -> np.ndarray:
    return s_eff.values if isinstance(s_eff, ScalarField) else np.asarray(s_eff, dtype=float)


def mean_value(s_values: np.ndarray, op: ElasticityOperator) -> float:
    """Domain average of the coupling field by composite trapezoid."""
    return trapezoid(s_values, op.grid.dx) / op.length


def assemble_stress(s_eff, correction: CorrectionPair,
                    op: ElasticityOperator) -> StressAssembly:
    """Stress per node for one coupling slice:

    T(x) = D(eps_star - epsbar) s(x) - D eps_star * mean(s) + sigma(x),
    returned in Mandel coordinates together with the scalar field T : epsbar.
    """
    s = _field_values(s_eff)
    sbar = mean_value(s, op)
    t_mandel = (np.outer(s, op.d_gap.mandel())
                - sbar * op.d_eps_star.mandel()[None, :]
                + correction.sigma_mandel)
    tdot_eps = op.alpha * s - op.beta * sbar + correction.sig_dot_eps
    return StressAssembly(t_mandel=t_mandel, tdot_eps=tdot_eps)


def assemble_displacement(s_eff, correction: CorrectionPair,
                          op: ElasticityOperator) -> np.ndarray:
    """Displacement per node:

    u(x) = u_star * (int_a^x s - (x-a)/(d-a) * int_a^d s) + w(x),
    which vanishes at both endpoints by construction.
    """
    grid = op.grid
    s = _field_values(s_eff)
    running = cumulative_trapezoid(s, grid.dx)
    ramp = (grid.x - grid.a) / op.length
    profile = running - ramp * running[-1]
    return np.outer(profile, op.u_star) + correction.w


def equilibrium_residual(t_mandel: np.ndarray, b: np.ndarray, dx: float) -> float:
    """Max interior residual of -d/dx(first stress column) = b, by central
    differences; O(dx^2) for smooth data."""
    # first stress column (T11, T12, T13) per node from Mandel coordinates
    t1 = np.column_stack([t_mandel[:, 0], t_mandel[:, 3] / _SQRT2,
                          t_mandel[:, 4] / _SQRT2])
    dt1 = (t1[2:] - t1[:-2]) / (2.0 * dx)
    return float(np.max(np.abs(dt1 + np.asarray(b, dtype=float)[1:-1])))
