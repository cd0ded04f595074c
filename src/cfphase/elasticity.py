"""Closed-form solution of the quasi-static elasticity subproblem.

Given the order-parameter field s on the interval, the stress and
displacement are assembled from a constant direction pair (u_star, eps_star)
determined by the stiffness map and the misfit strain, plus a correction pair
(w, sigma1) that balances the body force with zero boundary displacement.
The defining property of u_star is that the s-dependent part of the stress is
divergence-free in x: the first column of D(eps_star - epsbar) vanishes.
"""

from __future__ import annotations

import numpy as np

from .model import (Grid, ModelParams, block_rows, cumulative_trapezoid,
                    trapezoid, trapezoid_rows)
from .tensors import (ElasticTensor, ReadOnlyRecord, SymMatrix3, mandel_coords,
                      sym_grad_e1_entries)

_SQRT2 = float(np.sqrt(2.0))


def _first_column(e) -> np.ndarray:
    """The first column (a11, a12, a13) of the six entries ``e``."""
    return np.array([e[0], e[3], e[4]])


def acoustic_matrix(elastic: ElasticTensor) -> np.ndarray:
    """3x3 SPD matrix whose column k is the first column of D sym(e_k x e1)."""
    cols = [_first_column(elastic.apply_entries(sym_grad_e1_entries(e)))
            for e in np.eye(3)]
    return np.column_stack(cols)


def _direction_pair(elastic: ElasticTensor, epsbar: SymMatrix3):
    """The acoustic matrix M, the constants (u_star, eps_star) making the
    s-dependent stress x-divergence free (M u_star = first column of
    D epsbar, eps_star = sym(u_star x e1)), d_gap = D(eps_star - epsbar),
    d_eps_star = D eps_star, and the coupling gains alpha = d_gap : epsbar
    and beta = d_eps_star : epsbar; the symmetric matrices as their six
    entries, so that the gains alone build no record.

    Postcondition: the first column of d_gap vanishes.
    """
    acoustic = acoustic_matrix(elastic)
    rhs = _first_column(elastic.apply_entries(epsbar.entries))
    try:
        u_star = np.linalg.solve(acoustic, rhs)
    except np.linalg.LinAlgError as exc:  # cannot happen for SPD input
        raise ValueError("acoustic matrix is singular; stiffness map invalid") from exc
    eps_star = sym_grad_e1_entries(u_star)
    d_gap = elastic.apply_entries(eps_star - epsbar.entries)
    d_eps_star = elastic.apply_entries(eps_star)
    eps_mandel = mandel_coords(epsbar.entries)
    return (acoustic, u_star, eps_star, d_gap, d_eps_star,
            float(mandel_coords(d_gap) @ eps_mandel),
            float(mandel_coords(d_eps_star) @ eps_mandel))


def coupling_gains(params: ModelParams):
    """(alpha, beta) of ``ElasticityOperator.from_params`` for any grid."""
    return _direction_pair(params.elastic, params.epsbar)[5:]


class ElasticityOperator(ReadOnlyRecord):
    """Precomputed machinery for one (grid, stiffness, misfit) triple."""

    # d_gap = D(eps_star - epsbar), whose first column is ~ 0;
    # d_eps_star = D eps_star; alpha = d_gap : epsbar; beta = d_eps_star : epsbar
    __slots__ = ("grid", "elastic", "epsbar", "u_star", "eps_star", "acoustic",
                 "d_gap", "d_eps_star", "alpha", "beta")

    def __init__(self, grid: Grid, elastic: ElasticTensor, epsbar: SymMatrix3,
                 u_star: np.ndarray, eps_star: SymMatrix3, acoustic: np.ndarray,
                 d_gap: SymMatrix3, d_eps_star: SymMatrix3, alpha: float,
                 beta: float):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "elastic", elastic)
        object.__setattr__(self, "epsbar", epsbar)
        object.__setattr__(self, "u_star", u_star)
        object.__setattr__(self, "eps_star", eps_star)
        object.__setattr__(self, "acoustic", acoustic)
        object.__setattr__(self, "d_gap", d_gap)
        object.__setattr__(self, "d_eps_star", d_eps_star)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def build(cls, grid: Grid, elastic: ElasticTensor,
              epsbar: SymMatrix3) -> "ElasticityOperator":
        acoustic, u_star, eps_star, d_gap, d_eps_star, alpha, beta = \
            _direction_pair(elastic, epsbar)
        return cls(grid=grid, elastic=elastic, epsbar=epsbar, u_star=u_star,
                   eps_star=SymMatrix3(eps_star), acoustic=acoustic,
                   d_gap=SymMatrix3(d_gap), d_eps_star=SymMatrix3(d_eps_star),
                   alpha=alpha, beta=beta)

    @classmethod
    def from_params(cls, grid: Grid, params: ModelParams) -> "ElasticityOperator":
        return cls.build(grid, params.elastic, params.epsbar)

    @property
    def length(self) -> float:
        return self.grid.d - self.grid.a


class CorrectionPair(ReadOnlyRecord):
    """Displacement correction w and first stress column sigma1 balancing the
    body force with w = 0 at both endpoints."""

    # w and sigma1 are (n+1, 3); sigma_mandel (n+1, 6) is the full correction
    # stress and sig_dot_eps (n+1,) its sigma : epsbar; residual is the
    # largest interior |central-diff(sigma1) + b|
    __slots__ = ("w", "sigma1", "sigma_mandel", "sig_dot_eps", "residual")

    def __init__(self, w: np.ndarray, sigma1: np.ndarray,
                 sigma_mandel: np.ndarray, sig_dot_eps: np.ndarray,
                 residual: float):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "sigma1", sigma1)
        object.__setattr__(self, "sigma_mandel", sigma_mandel)
        object.__setattr__(self, "sig_dot_eps", sig_dot_eps)
        object.__setattr__(self, "residual", residual)


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


def coupling_stress_rows(s_eff: np.ndarray, sig_dot_eps: np.ndarray,
                         op: ElasticityOperator) -> np.ndarray:
    """T : epsbar for the stress per node
    T(x) = D(eps_star - epsbar) s(x) - D eps_star * mean(s) + sigma(x),
    that is alpha s - beta mean(s) + sigma : epsbar, for each row of
    a (rows, nodes) matrix of coupling fields, in blocks of ``block_rows``
    rows; ``sig_dot_eps`` is one row for all, or one per row.  Each row is
    the same bits as the row alone."""
    out = np.empty_like(s_eff)
    step = block_rows(s_eff.shape[1])
    for lo in range(0, len(s_eff), step):
        block = slice(lo, lo + step)
        v = s_eff[block]
        sbar = trapezoid_rows(v, op.grid.dx) / op.length
        np.subtract(op.alpha * v, (op.beta * sbar)[:, None], out=out[block])
        out[block] += sig_dot_eps if sig_dot_eps.ndim == 1 else sig_dot_eps[block]
    return out


def assemble_displacement(s_eff, correction: CorrectionPair,
                          op: ElasticityOperator) -> np.ndarray:
    """Displacement per node:

    u(x) = u_star * (int_a^x s - (x-a)/(d-a) * int_a^d s) + w(x),
    which vanishes at both endpoints by construction.  ``s_eff`` is one
    field, giving (nodes, 3), or a (snapshots, nodes) matrix of them, giving
    (snapshots, nodes, 3) with each snapshot the same bits as alone.
    """
    grid = op.grid
    s = np.asarray(s_eff, dtype=float)
    running = cumulative_trapezoid(s, grid.dx, axis=-1)
    ramp = (grid.x - grid.a) / op.length
    profile = running - ramp * running[..., -1:]
    return profile[..., None] * op.u_star + correction.w
