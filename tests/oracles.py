"""Reference implementations that the tests compare the program against.

None of these is on a path that ``sim`` runs: each is an independent
formula (a quadrature, a single-snapshot form, a hand-written tensor
identity, the run loop in numpy) that a test pairs with the program's own
form of the same quantity, or a helper that only the tests call (the
step-size budget ``cfl_dt`` on a given state, the zero field).
"""

from __future__ import annotations

import contextlib
from typing import NamedTuple
from unittest import mock

import numpy as np

from cfphase import mollifier as _mollifier
from cfphase import solver
from cfphase._native import BUMP_MASS, HISTORY_KEEP
from cfphase.convergence import ManufacturedSolution, _rows_distance
from cfphase.elasticity import (CorrectionPair, ElasticityOperator,
                                assemble_displacement, coupling_stress_rows,
                                solve_correction)
from cfphase.model import (ScalarField, _bracket, _resampled_pair, _sample_rows,
                           flux_primitive, trapezoid)
from cfphase.solver import _interior, _rhs_and_budget, _table_at, _update
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


def flux_distance(traj_a, traj_b) -> float:
    """The sweep's flux distance of two trajectories: the L2(Q) distance of
    the signed flux |p| p / 2 of their resampled cell gradients."""
    times, ra, rb = _resampled_pair(traj_a, traj_b)
    dx = traj_a.grid.dx
    return _rows_distance(times, dx,
                          flux_primitive(np.diff(ra, axis=1) / dx, 0.0),
                          flux_primitive(np.diff(rb, axis=1) / dx, 0.0))


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


def repr_rows(matrix) -> str:
    """The rows of a float matrix as CSV text, each value through repr: the
    layout that the compiled row formatter writes."""
    return "".join(",".join(map(repr, row)) + "\n" for row in matrix.tolist())


def displacement_parts(grid, u_star, w):
    """The operator and correction records that ``assemble_displacement``
    reads (the grid, u_star and w), for a displacement pair (u_star, w)."""
    return (CorrectionPair(w, None, None),
            ElasticityOperator(grid, None, None, None, u_star, None, None))


def snapshot_rows(traj, spans):
    """The Python stand-in of ``_native.snapshot_rows``: for each (lo, hi)
    of ``spans``, the snapshots.csv text of those snapshots, from a
    (snapshots, nodes, 7) table that numpy's ``assemble_displacement``
    fills for the whole span, through ``repr_rows``."""
    grid, n = traj.grid, traj.grid.n_nodes
    corr, op = displacement_parts(grid, *traj.displacement)
    s_eff = traj.values if traj.s_eff is None else traj.s_eff
    for lo, hi in spans:
        table = np.empty((hi - lo, n, 7))
        table[:, :, 0] = traj.times[lo:hi, None]
        table[:, :, 1] = grid.x
        table[:, :, 2] = traj.values[lo:hi]
        table[:, :, 3:6] = assemble_displacement(s_eff[lo:hi], corr, op)
        table[:, :, 6] = traj.tdot_eps[lo:hi]
        yield repr_rows(table.reshape(-1, 7)).encode()


# ---------------------------------------------------------------------------
# one test function at a time
# ---------------------------------------------------------------------------
# phi, phi_t and phi_x of a ``TestFunction`` at (t, x), from the factors the
# stacked ``convergence._TestPieces`` multiply, in the same order

def phi_value(phi, t, x):
    return phi._tau_pow(t, phi.m) * phi._mode(x)


def phi_dt(phi, t, x):
    return phi._coefs()[0] * phi._tau_pow(t, phi.m - 1) * phi._mode(x)


def phi_dx(phi, t, x):
    return phi._tau_pow(t, phi.m) * phi._coefs()[1] * phi._cos_mode(x)


# ---------------------------------------------------------------------------
# the kernel average in numpy
# ---------------------------------------------------------------------------

def bump_profile(tau):
    """Unnormalized C-infinity bump exp(-1/(1-tau^2)) on (-1, 1), 0 outside."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros_like(tau)
    inside = np.abs(tau) < 1.0
    t2 = tau[inside] ** 2
    out[inside] = np.exp(-1.0 / (1.0 - t2))
    return out if out.ndim else float(out)


def kernel_support(kernel):
    """Support of u -> kernel_weight(kernel, u) where u = t - s."""
    return (-kernel.kappa, kernel.kappa) if kernel.centered else (0.0, kernel.kappa)


def kernel_weight(kernel, u):
    """Kernel value at lag u = t - s; integrates to one over the support."""
    u = np.asarray(u, dtype=float)
    if kernel.centered:
        return bump_profile(u / kernel.kappa) / (BUMP_MASS * kernel.kappa)
    return 2.0 * bump_profile(2.0 * u / kernel.kappa - 1.0) / (BUMP_MASS * kernel.kappa)


def mollify_arrays(times, values, kernel, t, t_end, samples, cover_slack=0.0):
    """The kernel average at t of the rows ``values`` stored at ``times``,
    over the support clipped to [0, t_end], in numpy: the reference of the
    compiled average (``mollifier._mollify_arrays``).  Raises
    ``MollifierError`` when the rows end short of the window by more than
    ``cover_slack``, as the chunk loop's status 3 does."""
    lo, hi = kernel_support(kernel)
    s0, s1 = max(0.0, t - hi), min(t_end, t - lo)
    covered = float(times[-1]) + cover_slack + 1e-12 * max(1.0, t_end)
    if s1 > covered:
        raise _mollifier.uncovered(float(times[-1]), t, s0, s1)
    if s0 > s1 + 1e-15:
        raise _mollifier.MollifierError(f"empty kernel window at t={t!r}")
    if s1 - s0 <= 1e-15 * max(1.0, t_end):
        return _sample_rows(times, values, np.array([s0]))[0]

    s = np.linspace(s0, s1, samples)
    w = kernel_weight(kernel, t - s)
    w[0] *= 0.5
    w[-1] *= 0.5
    total = w.sum()
    if total <= 0.0 or not np.isfinite(total):
        # window clipped to a sliver where the bump underflows; the
        # renormalized limit is a point mass at the heaviest quadrature point
        return _sample_rows(times, values, s[np.argmax(w):np.argmax(w) + 1])[0]
    # The weighted sum of the interpolated samples, regrouped by stored row:
    # each sample hands w (1 - theta) to the row on its left and w theta to
    # the row on its right, so only the rows the window touches are read.
    a = w / total
    if times.size == 1:
        return a.sum() * values[0]
    idx, theta = _bracket(times, s)
    first = idx[0]
    n_rows = idx[-1] + 2 - first
    coef = (np.bincount(idx - first, a * (1.0 - theta), minlength=n_rows)
            + np.bincount(idx + 1 - first, a * theta, minlength=n_rows))
    return coef @ values[first:first + n_rows]


def mollify_time(traj, kernel, t, samples=2049, t_end=None):
    """Kernel average of the trajectory at time t, one value per grid node
    (``mollify_arrays`` over its snapshots; the horizon defaults to the
    trajectory's coverage)."""
    horizon = traj.t_end if t_end is None else float(t_end)
    return mollify_arrays(traj.times, traj.values, kernel, float(t), horizon,
                          samples)


def mollified_table(traj, kernel, n_times, samples):
    """``build_mollified_table`` one row at a time, in numpy."""
    ref_times = np.linspace(0.0, traj.t_end, n_times)
    return ref_times, np.array([mollify_time(traj, kernel, t, samples)
                                for t in ref_times])


# ---------------------------------------------------------------------------
# the step-size budget and the zero state
# ---------------------------------------------------------------------------

def cfl_dt(s: ScalarField, params, safety: float) -> float:
    """The step-size budget of ``_rhs_and_budget`` on the current range of
    S (the same budget the run kernels use for each step)."""
    op = ElasticityOperator.from_params(s.grid, params)
    react_coef = params.c * solver._reaction_prefactor(params, op, s.max_abs())
    return _rhs_and_budget(s.values, s.grid.dx, 0.0, None, params,
                           react_coef, safety)[2]


def zero_field(grid) -> ScalarField:
    return ScalarField(grid, np.zeros(grid.n_nodes))


# ---------------------------------------------------------------------------
# the run loop in numpy
# ---------------------------------------------------------------------------

_P43 = 4.0 / 3.0


class _CausalHistory:
    """Thinned record of past states for in-stepping causal mollification:
    the numpy copy of ``history_append`` in ``_chunk_loop.c``.

    Keeps samples spaced at least kappa/keep apart (the causal kernel
    vanishes at the leading edge, so the small uncovered sliver next to the
    current time carries negligible mass).  The samples live in preallocated
    arrays; the live ones are ``times[lo:hi]`` and ``rows[lo:hi]``.  Trimming
    the stale front only advances ``lo``, and the live block is moved back to
    the start when ``hi`` reaches the capacity, so no step copies the
    history.  At most keep + 6 samples are live (one before the window and
    the rest spaced kappa/keep apart within kappa + 4 spacings of the
    newest), so a capacity of twice that always has room after a move."""

    def __init__(self, kappa: float, width: int, keep: int = HISTORY_KEEP):
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
        return mollify_arrays(
            self.times[self.lo:self.hi], self.rows[self.lo:self.hi], kernel,
            t, t, samples, cover_slack=4.0 * self.spacing)


class NumpyKernel:
    """The reference kernel: the loop of ``_chunk_loop.c`` in numpy, with
    the step formula of ``_rhs_and_budget``, the monitor fold of
    ``MonitorAccumulator.accumulate``, the emitter's ``emit`` for each row,
    the causal history of ``_CausalHistory``, and the source hook called as
    a Python function.  It takes the arguments of
    ``_native._CompiledKernel`` and runs in its place under
    ``numpy_engine()``.  It folds every integrand: with a source, the run's
    running integrals start NaN and stay NaN, as the compiled loop leaves
    them."""

    def __init__(self, S, emitter, stops, stride, params, config, op, corr,
                 react_coef, table, seff, seff_mean):
        self.S, self.rhs_prev = S, np.zeros_like(S)
        self.emitter, self.acc = emitter, emitter.acc
        self.stops, self.stride, self.t_end = stops.tolist(), stride, params.t_end
        self.next_stop = self.steps = 0
        self.params, self.config, self.op = params, config, op
        self.inv_len = 1.0 / op.length
        self.sig_eps = corr.sig_dot_eps
        self.react_coef = react_coef
        self.table, self.seff, self.seff_mean = table, seff, seff_mean
        self.history = None
        if table is None and seff is not None:
            self.history = _CausalHistory(params.kappa, S.size)
            self.history.append(0.0, S)
            self.causal_kernel = _mollifier.MollifierKernel(params.kappa, centered=False)

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
            s_eff, ibar = self._field_at(t)
            tdot = op.alpha * s_eff[1:-1] - op.beta * ibar + self.sig_eps[1:-1]
            src = (None if config.source is None
                   else _interior(config.source(t, op.grid, params, op)))
            rhs, _, dt, dplus, w0 = _rhs_and_budget(
                S, dx, tdot, src, params, self.react_coef, config.cfl_safety)
            if config.dt_override > 0.0:
                dt = config.dt_override
            if t + dt >= t_stop - tiny:
                dt = t_stop - t

            d2 = (dplus[1:] - dplus[:-1]) / dx
            sum_recip = float(np.dot(rhs_prev / w0, rhs_prev))
            rhs_prev[:] = rhs
            S[1:-1] = _update(S, dt, rhs, src is None and not config.dt_override > 0.0)
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


@contextlib.contextmanager
def numpy_engine():
    """Runs inside the block take ``NumpyKernel`` in place of the compiled
    chunk loop, behind the same driver."""
    with mock.patch.object(solver, "_CompiledKernel", NumpyKernel):
        yield
