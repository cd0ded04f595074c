"""Closed-form solution of the quasi-static elasticity subproblem.

Given the order-parameter field s on the interval, the stress and
displacement are assembled from a constant direction u_star, determined by
the stiffness map D and the misfit strain epsbar, plus a correction w that
balances the body force with zero boundary displacement.  The defining
property of u_star is that the s-dependent part of the stress is
divergence-free in x: with eps_star = sym(u_star x e1), the first column of
D(eps_star - epsbar) vanishes.  A run reads the stress only through
T : epsbar, so of the constant stresses it keeps just the two gains
alpha = D(eps_star - epsbar) : epsbar and beta = D eps_star : epsbar.
"""

from __future__ import annotations

import numpy as np

from .model import (Grid, ModelParams, block_rows, cumulative_trapezoid,
                    trapezoid, trapezoid_rows)
from .tensors import (_SQRT2, ElasticTensor, ReadOnlyRecord, SymMatrix3,
                      mandel_coords, sym_grad_e1_entries)


def _first_column(e) -> np.ndarray:
    """The first column (a11, a12, a13) of the six entries ``e``."""
    return np.array([e[0], e[3], e[4]])


def acoustic_matrix(elastic: ElasticTensor) -> np.ndarray:
    """3x3 SPD matrix whose column k is the first column of D sym(e_k x e1)."""
    cols = [_first_column(elastic.apply_entries(sym_grad_e1_entries(e)))
            for e in np.eye(3)]
    return np.column_stack(cols)


def _direction_pair(elastic: ElasticTensor, epsbar: np.ndarray):
    """The acoustic matrix M, the constant u_star solving M u_star = first
    column of D epsbar (``epsbar`` as its six entries), and the coupling
    gains alpha and beta (see the module docstring)."""
    acoustic = acoustic_matrix(elastic)
    rhs = _first_column(elastic.apply_entries(epsbar))
    try:
        u_star = np.linalg.solve(acoustic, rhs)
    except np.linalg.LinAlgError as exc:  # cannot happen for SPD input
        raise ValueError("acoustic matrix is singular; stiffness map invalid") from exc
    eps_star = sym_grad_e1_entries(u_star)
    eps_mandel = mandel_coords(epsbar)
    alpha = float(mandel_coords(elastic.apply_entries(eps_star - epsbar)) @ eps_mandel)
    beta = float(mandel_coords(elastic.apply_entries(eps_star)) @ eps_mandel)
    return acoustic, u_star, alpha, beta


class ElasticityOperator(ReadOnlyRecord):
    """Precomputed machinery for one grid, stiffness map and misfit strain."""

    __slots__ = ("grid", "elastic", "epsbar", "acoustic", "u_star", "alpha", "beta")

    def __init__(self, grid: Grid, elastic: ElasticTensor, epsbar: SymMatrix3,
                 acoustic: np.ndarray, u_star: np.ndarray, alpha: float,
                 beta: float):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "elastic", elastic)
        object.__setattr__(self, "epsbar", epsbar)
        object.__setattr__(self, "acoustic", acoustic)
        object.__setattr__(self, "u_star", u_star)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def from_params(cls, grid: Grid, params: ModelParams) -> "ElasticityOperator":
        return cls(grid, params.elastic, params.epsbar,
                   *_direction_pair(params.elastic, params.epsbar.entries))

    @property
    def length(self) -> float:
        return self.grid.d - self.grid.a


class CorrectionPair(ReadOnlyRecord):
    """The body-force correction as a run reads it: the displacement w
    (n+1, 3), zero at both endpoints, whose stress sigma = D sym(w' x e1)
    balances the body force; sigma : epsbar per node; and the residual, the
    largest interior |central-diff(sigma1) + b| of sigma's first column."""

    __slots__ = ("w", "sig_dot_eps", "residual")

    def __init__(self, w: np.ndarray, sig_dot_eps: np.ndarray, residual: float):
        object.__setattr__(self, "w", w)
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

    # sigma : epsbar per node, through sigma in Mandel coordinates
    wx_mandel = np.zeros((grid.n_nodes, 6))
    wx_mandel[:, 0] = w_x[:, 0]
    wx_mandel[:, 3] = w_x[:, 1] / _SQRT2
    wx_mandel[:, 4] = w_x[:, 2] / _SQRT2
    sig_dot_eps = (wx_mandel @ op.elastic.matrix.T) @ mandel_coords(op.epsbar.entries)

    interior = slice(1, -1)
    dsig = (sigma1[2:] - sigma1[:-2]) / (2.0 * dx)
    residual = float(np.max(np.abs(dsig + b[interior]))) if grid.n_nodes > 2 else 0.0
    return CorrectionPair(w=w, sig_dot_eps=sig_dot_eps, residual=residual)


def zero_body_force(grid: Grid) -> np.ndarray:
    return np.zeros((grid.n_nodes, 3))


def coupling_stress_rows(s_eff: np.ndarray, sig_dot_eps: np.ndarray,
                         op: ElasticityOperator) -> np.ndarray:
    """T : epsbar for the stress per node
    T(x) = D(eps_star - epsbar) s(x) - D eps_star * mean(s) + sigma(x),
    that is alpha s - beta mean(s) + sigma : epsbar, for each row of
    a (rows, nodes) matrix of coupling fields, in blocks of ``block_rows``
    rows, with the one row ``sig_dot_eps`` for all.  Each row is the same
    bits as the row alone."""
    out = np.empty_like(s_eff)
    step = block_rows(s_eff.shape[1])
    for lo in range(0, len(s_eff), step):
        block = slice(lo, lo + step)
        v = s_eff[block]
        sbar = trapezoid_rows(v, op.grid.dx) / op.length
        np.subtract(op.alpha * v, (op.beta * sbar)[:, None], out=out[block])
        out[block] += sig_dot_eps
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
