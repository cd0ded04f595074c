"""Regularization sweeps, weak-form residual diagnostics, compactness
distances, and manufactured-solution order verification."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from . import _native
from .estimates import MonitorSeries
from .model import (KAPPA_TOO_SMALL, Grid, ModelParams, ScalarField, Trajectory,
                    _common_times, _l2q_of_rows, flux_primitive,
                    kappa_square_is_normal, sqrt_gradient_transform,
                    time_integral_rows, trajectory_l2_distance, trapezoid_rows)
from .solver import SolverConfig, run
from .tensors import ReadOnlyRecord, Record


# ---------------------------------------------------------------------------
# test functions and the weak-form residual
# ---------------------------------------------------------------------------

class TestFunction(ReadOnlyRecord):
    """Separable smooth test function (1 - t/t_end)^m * sin(n pi (x-a)/(d-a)).

    Vanishes identically at t = t_end and on the spatial boundary, so it is
    admissible for the weak form; the value at t = 0 pairs with the initial
    data."""

    __slots__ = ("m", "n", "a", "d", "t_end")

    def __init__(self, m: int, n: int, a: float, d: float, t_end: float):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "t_end", t_end)

    def _tau_pow(self, t, p: int):
        """(1 - t/t_end)^p.  On an array of times each power is the scalar
        one: numpy's vectorized array power can round differently, and a
        value must not depend on how many times are evaluated at once."""
        tau = 1.0 - t / self.t_end
        if np.ndim(tau) == 0:
            return tau ** p
        return np.array([v ** p for v in tau.ravel()]).reshape(tau.shape)

    def _u(self, x):
        return (np.asarray(x, dtype=float) - self.a) / (self.d - self.a)

    def _mode(self, x):
        """sin(n pi u), forced to exactly zero on the spatial boundary."""
        u = self._u(x)
        return np.where((u <= 0.0) | (u >= 1.0), 0.0, np.sin(self.n * np.pi * u))

    def _cos_mode(self, x):
        return np.cos(self.n * np.pi * self._u(x))

    def _coefs(self):  # of phi_t and phi_x
        return -self.m / self.t_end, self.n * np.pi / (self.d - self.a)


def test_function_family(grid: Grid, t_end: float, m_max: int = 3,
                         n_max: int = 5) -> List[TestFunction]:
    """The m_max * n_max family used by the residual diagnostics."""
    return [TestFunction(m, n, grid.a, grid.d, t_end)
            for m in range(1, m_max + 1) for n in range(1, n_max + 1)]


# values per (functions x snapshots x nodes) array of a weak-form pass
_PASS_VALUES = 16384


class _TestPieces(Record):
    """A test family's factors on one grid, snapshot times and initial
    field, stacked along a leading function axis, with each function's
    pairing (S0, phi(0)) and L1(L2) norm.  ``passes`` slice the family."""

    __slots__ = ("x", "times", "s0", "passes", "tau_m", "tau_m1", "mode",
                 "cos_mode", "dt_coef", "dx_coef", "initial", "norm")

    def __init__(self, grid: Grid, times: np.ndarray, s0: ScalarField,
                 family: Sequence[TestFunction]):
        self.x, self.times, self.s0 = grid.x, times, s0.values
        step = max(1, _PASS_VALUES // (times.size * grid.n_nodes))
        self.passes = [slice(lo, lo + step) for lo in range(0, len(family), step)]
        # tau^p depends on (t_end, p) alone
        taus = {(phi.t_end, p): phi for phi in family for p in (phi.m, phi.m - 1)}
        taus = {key: phi._tau_pow(times[:, None], key[1]) for key, phi in taus.items()}
        self.tau_m = np.stack([taus[phi.t_end, phi.m] for phi in family])
        self.tau_m1 = np.stack([taus[phi.t_end, phi.m - 1] for phi in family])
        mode = np.stack([phi._mode(grid.x) for phi in family])
        xmid = 0.5 * (grid.x[1:] + grid.x[:-1])
        self.mode = mode[:, None]
        self.cos_mode = np.stack([phi._cos_mode(xmid) for phi in family])[:, None]
        coefs = np.array([phi._coefs() for phi in family])
        self.dt_coef, self.dx_coef = coefs.T[:, :, None, None]
        # phi(0) = 1.0 * mode, the same bits as mode
        self.initial = trapezoid_rows(s0.values * mode, grid.dx)
        self.norm = np.concatenate([time_integral_rows(np.sqrt(np.maximum(
            trapezoid_rows(self.phi(part) ** 2, grid.dx), 0.0)), times)
            for part in self.passes])

    # phi, phi_t and phi_x from their factors (``oracles.phi_value``,
    # ``phi_dt`` and ``phi_dx`` take one function at a time)
    def phi(self, part: slice):
        return self.tau_m[part] * self.mode[part]

    def phi_t(self, part: slice):
        return self.dt_coef[part] * self.tau_m1[part] * self.mode[part]

    def phi_x(self, part: slice):
        return self.tau_m[part] * self.dx_coef[part] * self.cos_mode[part]

    def fits(self, traj: Trajectory) -> bool:
        """Whether ``traj`` has this grid, these times and this initial field."""
        return (np.array_equal(self.x, traj.grid.x)
                and np.array_equal(self.times, traj.times)
                and np.array_equal(self.s0, traj.values[0]))


def weak_residual_family(traj: Trajectory, params: ModelParams,
                         family: Union[Sequence[TestFunction], _TestPieces, None] = None,
                         kappa_weighted: bool = False) -> np.ndarray:
    """Discrete weak-form residuals of a trajectory against each function of
    the test family (by default ``test_function_family``), with the stress
    series recorded on the trajectory:

    R(phi) = (S, phi_t)_Q - (c nu / 2) (|S_x| S_x, phi_x)_Q
             + c ((T:eps_bar - psi'(S)) |S_x|, phi)_Q + (S0, phi(0))_Omega,

    with trapezoid quadrature in time over the snapshot instants, trapezoid
    in space for node pairings, and cell-midpoint pairing for the gradient
    flux, normalized by the L1-in-time L2-in-space norm of phi.  Exactly
    zero for the zero trajectory.

    With ``kappa_weighted=True`` the flux |S_x| S_x / 2 and the weight |S_x|
    are replaced by their regularized counterparts (the flux primitive and
    |S_x|_kappa - kappa), i.e. the weak form of the equation actually being
    integrated.  That variant converges to zero under space-time refinement
    at fixed kappa, whereas the plain form saturates at the kappa bias.

    ``family`` may also be ``_TestPieces`` that fit the trajectory.  Each
    pass pairs its functions at once, each (function, snapshot) row with
    the operations of pairing it alone, so no result depends on batching.
    """
    if traj.tdot_eps is None:
        raise ValueError("trajectory carries no stress series")
    if family is None:
        family = test_function_family(traj.grid, traj.t_end)
    if not isinstance(family, _TestPieces):
        family = _TestPieces(traj.grid, traj.times, traj.initial, family)
    dx = traj.grid.dx
    values = traj.values
    c, nu = params.c, params.nu
    # the plain form is the regularized one at kappa = 0
    kap = params.kappa if kappa_weighted else 0.0
    flux = flux_primitive(np.diff(values, axis=1) / dx, kap)
    grad_node = np.zeros_like(values)
    grad_node[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * dx)
    psi_p = np.asarray(params.potential.psi_prime(values), dtype=float)
    reaction = (traj.tdot_eps - psi_p) * (np.hypot(grad_node, kap) - kap)
    spatial = np.concatenate([
        trapezoid_rows(values * family.phi_t(part), dx)
        - c * nu * dx * np.sum(flux * family.phi_x(part), axis=-1)
        + c * trapezoid_rows(reaction * family.phi(part), dx)
        for part in family.passes])
    r = time_integral_rows(spatial, traj.times) + family.initial
    return r / np.where(family.norm > 0.0, family.norm, 1.0)


# ---------------------------------------------------------------------------
# L2(Q) distances (``trajectory_l2_distance`` is ``model``'s, re-exported)
# ---------------------------------------------------------------------------

def compactness_distance(traj_a: Trajectory, traj_b: Trajectory) -> float:
    """L2(Q) distance of the degenerate-diffusion compactness quantity
    (2/3)|p|^(3/2) sign(p) of the gradients of two trajectories.

    Trajectories are resampled to common times by linear interpolation and
    gradients are taken per cell.  Symmetric, zero iff the gradients agree
    on the common grid, and satisfies the triangle inequality (it is a
    pseudometric induced by a norm)."""
    times = _common_times(traj_a, traj_b)
    return _rows_distance(times, traj_a.grid.dx, _sweep_transforms(traj_a, times)[0],
                          _sweep_transforms(traj_b, times)[0])


def _rows_distance(times: np.ndarray, dx: float, ga: np.ndarray,
                   gb: np.ndarray) -> float:
    """L2(Q) distance of two (times x cells) arrays of cell values."""
    diff = ga - gb
    per_t = dx * np.sum(diff * diff, axis=1)
    return _l2q_of_rows(times, per_t)


def _sweep_transforms(traj: Trajectory, times: np.ndarray):
    """The compactness transform and the signed flux |p| p / 2 (the flux
    whose pairing appears in the weak form) of one trajectory's gradients
    on ``times``, from one resample: the rows the sweep's distances pair."""
    g = np.diff(traj.resample(times), axis=1) / traj.grid.dx
    return sqrt_gradient_transform(g), flux_primitive(g, 0.0)


# ---------------------------------------------------------------------------
# manufactured-solution order verification
# ---------------------------------------------------------------------------

class ManufacturedSolution(ReadOnlyRecord):
    """Closed-form decaying sine mode exp(-t) * sin(arg(x)), arg(x) =
    k (x-a) with wave number k = pi/(d-a); ``rows`` gives sin(arg) and
    cos(arg) on a grid's nodes, and ``sin_mean`` is the domain mean of
    sin(arg), from which the compiled chunk loop forms the mode's source."""

    __slots__ = ("a", "d", "k")
    sin_mean = 2.0 / np.pi

    def __init__(self, a: float, d: float):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", np.pi / (d - a))

    def _arg(self, x):
        return np.pi * (x - self.a) / (self.d - self.a)

    def rows(self, grid: Grid):
        arg = self._arg(grid.x)
        return np.sin(arg), np.cos(arg)

    def value(self, t, x):
        return np.exp(-t) * np.sin(self._arg(x))


def manufactured_source(exact: ManufacturedSolution) -> Callable:
    """Analytic source g = S_t - c nu |S_x|_k S_xx - c (T:eps_bar - psi'(S))
    (|S_x|_k - kappa), with the stress assembled from the exact solution and
    zero body force, as ``source(t, grid, params, op)``: the constants and
    the elasticity operator are those of the run that calls it.

    The callable carries ``exact`` as its ``compiled_form``, from which the
    compiled chunk loop evaluates the same residual itself, with the
    constants of its run too."""
    k = exact.k

    # S = exp(-t) sin(arg), S_t = -S, S_x = exp(-t) k cos(arg),
    # S_xx = -exp(-t) k^2 sin(arg) and mean(S) = exp(-t) 2/pi, with exp(-t)
    # taken once per call; each product keeps the operand order of these
    # closed forms.
    def source(t, grid, params, op):
        kap, c, nu = params.kappa, params.c, params.nu
        sin_row, cos_row = exact.rows(grid)
        e = np.exp(-t)
        s = e * sin_row
        sx, sxx = e * k * cos_row, -e * k * k * sin_row
        w = np.hypot(sx, kap)
        tdot = op.alpha * s - op.beta * (e * 2.0 / np.pi)
        psi_p = np.asarray(params.potential.psi_prime(s), dtype=float)
        return -s - c * nu * w * sxx - c * (tdot - psi_p) * (w - kap)

    # An attribute rather than a type, so wrappers that copy __dict__
    # (functools.update_wrapper) keep it.
    source.compiled_form = exact
    return source


class MmsReport(Record):
    __slots__ = ("grid_sizes", "errors", "orders")

    def __init__(self, grid_sizes: List[int], errors: List[float],
                 orders: List[float]):
        self.grid_sizes = grid_sizes
        self.errors = errors
        self.orders = orders


def manufactured_run(params: ModelParams, grid_sizes: Sequence[int] = (100, 200, 400),
                     config: Optional[SolverConfig] = None) -> MmsReport:
    """Verify the discretization order against the closed-form sine mode
    (``ManufacturedSolution``).

    The residual of the exact solution is injected as an analytic source, the
    solver is run on each grid with its own adaptive steps (which skip the
    monitors' running integrals, as every run with a source does), and the
    L2(Q) error and the observed order of each refinement are reported.
    """
    exact = ManufacturedSolution(params.a, params.d)
    cfg = replace(config or SolverConfig(), source=manufactured_source(exact),
                  snapshot_interval=params.t_end / 256.0)
    errors = []
    for n in grid_sizes:
        grid = Grid(params.a, params.d, int(n))
        s0_values = np.asarray(exact.value(0.0, grid.x), dtype=float)
        s0_values[0] = 0.0
        s0_values[-1] = 0.0
        s0 = ScalarField(grid, s0_values)
        traj, _ = run(s0, params, cfg)
        err = traj.values - exact.value(traj.times[:, None], grid.x)
        errors.append(_l2q_of_rows(traj.times, trapezoid_rows(err ** 2, grid.dx)))
        del traj, err  # the next grid's run need not hold this one
    # p = ln(e_i / e_i+1) / ln(r) over the refinement ratio r = n_i+1 / n_i
    sizes = [int(n) for n in grid_sizes]
    orders = [math.log2(errors[i] / errors[i + 1]) / math.log2(sizes[i + 1] / sizes[i])
              for i in range(len(errors) - 1)]
    return MmsReport(grid_sizes=sizes, errors=errors, orders=orders)


# ---------------------------------------------------------------------------
# regularization sweeps
# ---------------------------------------------------------------------------

class SweepEntry(Record):
    __slots__ = ("kappa", "ok", "error", "weak_residuals",
                 "reaction_gap", "reaction_gap_bound", "monitors", "trajectory",
                 "compactness_dist_to_next", "flux_dist_to_next")

    def __init__(self, kappa: float, ok: bool, error: Optional[str] = None,
                 weak_residuals: Optional[np.ndarray] = None,
                 reaction_gap: Optional[float] = None,
                 reaction_gap_bound: Optional[float] = None,
                 monitors: Optional[MonitorSeries] = None,
                 trajectory: Optional[Trajectory] = None):
        self.kappa = kappa
        self.ok = ok
        self.error = error
        self.weak_residuals = weak_residuals
        self.reaction_gap = reaction_gap
        self.reaction_gap_bound = reaction_gap_bound
        self.monitors = monitors
        self.trajectory = trajectory
        # distances to the next kappa's run, which kappa_sweep fills; None
        # when either run failed or this is the last kappa
        self.compactness_dist_to_next = None
        self.flux_dist_to_next = None


class SweepReport(Record):
    """Per-kappa outcomes of a regularization sweep plus the cross-kappa
    diagnostics: Cauchy distances of the compactness transform, distances of
    the signed flux, and the uniformity ratios of the cumulative monitors."""

    __slots__ = ("kappas", "entries", "uniformity")

    def __init__(self, kappas: List[float], entries: List[SweepEntry]):
        self.kappas = kappas
        self.entries = entries
        self.uniformity = {}

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def compactness_distances(self) -> List[float]:
        """Distances between consecutive kappas whose runs both succeeded."""
        return [e.compactness_dist_to_next for e in self.entries
                if e.compactness_dist_to_next is not None]

    def distances_decreasing(self) -> bool:
        d = self.compactness_distances
        return all(d[i + 1] < d[i] for i in range(len(d) - 1))


def reaction_factor_gap(traj: Trajectory, kappa: float):
    """L2(Q) gap between the regularized reaction weight (|S_x|_k - kappa)
    and |S_x|, with its a priori bound 2 kappa sqrt(|Q|)."""
    dx = traj.grid.dx
    g = np.diff(traj.values, axis=1) / dx
    val = _rows_distance(traj.times, dx, np.hypot(g, kappa) - kappa, np.abs(g))
    area = (traj.grid.d - traj.grid.a) * traj.t_end
    return val, 2.0 * kappa * math.sqrt(area)


def kappa_sweep(s0: ScalarField, params_base: ModelParams,
                kappas: Sequence[float], config: SolverConfig,
                b=None) -> SweepReport:
    """Run the same problem for each regularization width, in kappa order.

    The kappa list must be non-empty and strictly decreasing within (0, 1],
    and the square of each kappa a normal double; one failed run marks its
    entry without aborting the sweep.  The same smooth initial field is
    reused for every kappa.  A ``BaseException`` that escapes a run's own
    error handling ends the sweep, and so does a missing compiled library
    (``_native.Unavailable``), which no kappa can run without.
    """
    kappas = [float(k) for k in kappas]
    if not kappas:
        raise ValueError("the kappa list is empty")
    if any(not (0.0 < k <= 1.0) for k in kappas):
        raise ValueError("every kappa must lie in (0, 1]")
    if not all(map(kappa_square_is_normal, kappas)):
        raise ValueError(KAPPA_TOO_SMALL)
    if any(kappas[i + 1] >= kappas[i] for i in range(len(kappas) - 1)):
        raise ValueError("kappa list must be strictly decreasing")

    entries = []
    pieces = None  # the test family's factors, while they fit the runs
    for kappa in kappas:
        try:
            params = replace(params_base, kappa=kappa)
            traj, monitors = run(s0, params, config, b=b)
            gap, bound = reaction_factor_gap(traj, kappa)
            if pieces is None or not pieces.fits(traj):
                pieces = _TestPieces(traj.grid, traj.times, traj.initial,
                                     test_function_family(traj.grid, traj.t_end))
            entries.append(SweepEntry(
                kappa=kappa, ok=True, weak_residuals=weak_residual_family(traj, params, pieces),
                reaction_gap=gap, reaction_gap_bound=bound, monitors=monitors,
                trajectory=traj))
        except _native.Unavailable:
            raise
        except Exception as exc:  # noqa: BLE001 - per-entry isolation
            entries.append(SweepEntry(kappa=kappa, ok=False, error=str(exc)))

    report = SweepReport(kappas=kappas, entries=entries)
    good = [e for e in entries if e.ok]
    # compactness_distance with both transforms; each trajectory's
    # transforms are computed once and carried to the next pair, which
    # shares them when its common end time is the same
    carried = None  # (end time, transforms of ea's trajectory)
    for ea, eb in zip(entries, entries[1:]):
        if not (ea.ok and eb.ok):
            carried = None
            continue
        times = _common_times(ea.trajectory, eb.trajectory)
        if carried is None or carried[0] != times[-1]:
            carried = times[-1], _sweep_transforms(ea.trajectory, times)
        rows_b = _sweep_transforms(eb.trajectory, times)
        dx = eb.trajectory.grid.dx
        ea.compactness_dist_to_next, ea.flux_dist_to_next = (
            _rows_distance(times, dx, ga, gb) for ga, gb in zip(carried[1], rows_b))
        carried = times[-1], rows_b
    if len(good) >= 2:
        finals = [e.monitors.finals() for e in good]
        for key in MonitorSeries.UNIFORMITY_KEYS:
            vals = np.array([fin[key] for fin in finals])
            lo = float(vals.min())
            hi = float(vals.max())
            ratio = hi / lo if lo > 0.0 else (1.0 if hi == 0.0 else math.inf)
            report.uniformity[key] = {"min": lo, "max": hi, "ratio": ratio,
                                      "within_factor_2": bool(ratio <= 2.0)}
    return report
