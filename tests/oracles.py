"""Reference implementations that the tests compare the program against.

None of these is on a path that ``sim`` runs: each is an independent
formula (a quadrature, a single-snapshot form, a hand-written tensor
identity) that a test pairs with the program's own form of the same
quantity.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from cfphase.convergence import ManufacturedSolution
from cfphase.elasticity import coupling_stress_rows, solve_correction
from cfphase.model import trapezoid
from cfphase.tensors import SymMatrix3

_SQRT2 = float(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature
# ---------------------------------------------------------------------------

class QuadratureError(RuntimeError):
    """Raised when the adaptive bisection fails to reach the tolerance."""


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12,
                     max_depth: int = 48) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Classic adaptive Simpson with Richardson extrapolation of the accepted
    panels.  Raises :class:`QuadratureError` if an interval still violates its
    error budget after ``max_depth`` bisections.
    """
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _adapt(f, a, fa, m, fm, b, fb, whole, tol, max_depth)


def _adapt(f, a, fa, m, fm, b, fb, whole, tol, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson did not converge on [{a!r}, {b!r}] "
            f"(residual error estimate {abs(err) / 15.0:.3e} > {tol:.3e})")
    half = 0.5 * tol
    return (_adapt(f, a, fa, lm, flm, m, fm, left, half, depth - 1)
            + _adapt(f, m, fm, rm, frm, b, fb, right, half, depth - 1))


def _quarter_power_integrand(kappa):
    kap2 = kappa * kappa
    return lambda y: (kap2 + y * y) ** 0.25


def sqrt_flux_primitive(p: float, kappa: float, tol: float = 1e-12) -> float:
    """Integral of (kappa^2 + y^2)^(1/4) from 0 to p.

    Odd and strictly increasing in p.  For kappa == 0 the closed form
    (2/3)*sign(p)*|p|^(3/2) is returned; otherwise adaptive Simpson quadrature
    is used (no closed form is attempted).
    """
    if kappa < 0.0:
        raise ValueError("kappa must be >= 0")
    p = float(p)
    if p == 0.0:
        return 0.0
    if kappa == 0.0:
        return (2.0 / 3.0) * np.sign(p) * np.abs(p) ** 1.5
    val = adaptive_simpson(_quarter_power_integrand(kappa), 0.0, abs(p), tol=tol)
    return float(np.sign(p) * val)


# ---------------------------------------------------------------------------
# symmetric matrices, free energy and driving force
# ---------------------------------------------------------------------------
# A symmetric matrix is a SymMatrix3 where the program takes one (the misfit
# strain of ModelParams), and otherwise its six entries
# (a11, a22, a33, a12, a13, a23) as an array, on which the helpers below act.

def sym_diag(d1: float, d2: float, d3: float) -> SymMatrix3:
    return SymMatrix3(np.array([d1, d2, d3, 0.0, 0.0, 0.0]))


def sym_from_matrix(m, tol: float = 1e-12) -> SymMatrix3:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > tol * scale:
        raise ValueError("matrix is not symmetric")
    return SymMatrix3(np.array([m[0, 0], m[1, 1], m[2, 2],
                                0.5 * (m[0, 1] + m[1, 0]),
                                0.5 * (m[0, 2] + m[2, 0]),
                                0.5 * (m[1, 2] + m[2, 1])]))


def sym_as_matrix(e) -> np.ndarray:
    a11, a22, a33, a12, a13, a23 = e
    return np.array([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]])


def mandel(e) -> np.ndarray:
    """Coordinates in the orthonormal basis: (a11, a22, a33, sqrt2*a12, ...)."""
    return np.array([e[0], e[1], e[2], _SQRT2 * e[3], _SQRT2 * e[4], _SQRT2 * e[5]])


def sym_dot(a, b) -> float:
    """Frobenius scalar product sum_ij a_ij b_ij."""
    return float(mandel(a) @ mandel(b))


def sym_grad_e1(u) -> np.ndarray:
    """sym(u x e1), the symmetric part of the rank-one gradient (u, 0, 0)."""
    grad = np.outer(u, [1.0, 0.0, 0.0])
    return sym_from_matrix(0.5 * (grad + grad.T)).entries


def first_column(e) -> np.ndarray:
    return sym_as_matrix(e)[:, 0]


def apply(elastic, e) -> np.ndarray:
    """The stiffness map ``elastic`` on ``e``."""
    return elastic.apply_entries(e)


def free_energy(eps, s: float, params) -> float:
    """Elastic plus chemical free energy density at strain eps and order
    parameter s; non-negative, equal to the potential when eps matches the
    misfit strain."""
    e = np.asarray(eps) - params.epsbar.entries * s
    return 0.5 * sym_dot(apply(params.elastic, e), e) + float(params.potential.psi(s))


def driving_force(t_stress, s: float, params) -> float:
    """Configurational driving force c*(T : epsbar - psi'(s))."""
    return params.c * (sym_dot(t_stress, params.epsbar.entries)
                       - float(params.potential.psi_prime(s)))


# ---------------------------------------------------------------------------
# one coupling slice at a time
# ---------------------------------------------------------------------------

class StressAssembly(NamedTuple):
    t_mandel: np.ndarray     # (n+1, 6)
    tdot_eps: np.ndarray     # (n+1,)


def assemble_stress(s_eff, b, op) -> StressAssembly:
    """Stress per node for one coupling slice under the body force ``b``:

    T(x) = D(eps_star - epsbar) s(x) - D eps_star * mean(s) + sigma(x),

    in Mandel coordinates, built here from the stiffness map, the misfit
    strain and u_star (eps_star = sym(u_star x e1)), with the correction
    stress sigma = D sym(w' x e1), w' = M^{-1} sigma1, sigma1 = C - int_a^x b
    and C the mean of that running integral.  Returned with the program's
    T : epsbar of the same slice (``coupling_stress_rows``)."""
    grid, elastic, epsbar = op.grid, op.elastic, op.epsbar.entries
    eps_star = sym_grad_e1(op.u_star)
    d_gap = mandel(apply(elastic, eps_star - epsbar))
    d_eps_star = mandel(apply(elastic, eps_star))
    b = np.asarray(b, dtype=float)
    running = np.zeros_like(b)
    for i in range(1, grid.n_nodes):
        running[i] = running[i - 1] + 0.5 * grid.dx * (b[i - 1] + b[i])
    mean = np.array([trapezoid(running[:, j], grid.dx) for j in range(3)]) / op.length
    w_x = np.linalg.solve(op.acoustic, (mean - running).T).T
    sigma = np.array([mandel(apply(elastic, sym_grad_e1(v))) for v in w_x])
    s = np.asarray(s_eff, dtype=float)
    sbar = trapezoid(s, grid.dx) / op.length
    t_mandel = np.outer(s, d_gap) - sbar * d_eps_star[None, :] + sigma
    tdot_eps = coupling_stress_rows(s[None, :], solve_correction(b, op).sig_dot_eps, op)[0]
    return StressAssembly(t_mandel=t_mandel, tdot_eps=tdot_eps)


def equilibrium_residual(t_mandel: np.ndarray, b: np.ndarray, dx: float) -> float:
    """Max interior residual of -d/dx(first stress column) = b, by central
    differences; O(dx^2) for smooth data."""
    # first stress column (T11, T12, T13) per node from Mandel coordinates
    t1 = np.column_stack([t_mandel[:, 0], t_mandel[:, 3] / _SQRT2,
                          t_mandel[:, 4] / _SQRT2])
    dt1 = (t1[2:] - t1[:-2]) / (2.0 * dx)
    return float(np.max(np.abs(dt1 + np.asarray(b, dtype=float)[1:-1])))


def second_differences(values: np.ndarray, dx: float) -> np.ndarray:
    """3-point second difference on interior nodes."""
    return (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (dx * dx)


def sample(traj, t: float) -> np.ndarray:
    """Values of a trajectory at time t by linear interpolation between
    snapshots."""
    times = traj.times
    if t <= times[0]:
        return traj.values[0].copy()
    if t >= times[-1]:
        return traj.values[-1].copy()
    j = int(np.searchsorted(times, t, side="right")) - 1
    theta = (t - times[j]) / (times[j + 1] - times[j])
    return (1.0 - theta) * traj.values[j] + theta * traj.values[j + 1]


class SineMode(ManufacturedSolution):
    """The manufactured sine mode with its derivatives and domain mean, from
    which its source is formed afresh."""

    def dt(self, t, x):
        return -self.value(t, x)

    def dx(self, t, x):
        k = np.pi / (self.d - self.a)
        return np.exp(-t) * k * np.cos(self._arg(x))

    def dxx(self, t, x):
        k = np.pi / (self.d - self.a)
        return -np.exp(-t) * k * k * np.sin(self._arg(x))

    def mean(self, t):
        """Domain average (1/(d-a)) * integral of the profile."""
        return np.exp(-t) * 2.0 / np.pi
