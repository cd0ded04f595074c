"""Core model quantities: the double-well potential, the smoothed absolute
value and its flux primitive, the grid / field / trajectory containers
shared by the solver and diagnostics, the generated initial profiles, the
linear interpolation of rows in time, quadratures and L2(Q) distances.

All types are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensors import ElasticTensor, ReadOnlyRecord, Record, SymMatrix3


# ---------------------------------------------------------------------------
# scalar operations
# ---------------------------------------------------------------------------

def smoothed_abs(p, kappa):
    """Smoothed absolute value sqrt(kappa^2 + p^2).

    Total function; satisfies max(|p|, kappa) <= smoothed_abs(p, kappa)
    <= |p| + kappa for kappa >= 0.
    """
    if np.any(np.asarray(kappa) < 0.0):
        raise ValueError("kappa must be >= 0")
    return np.hypot(p, kappa)


def flux_primitive(p, kappa):
    """Antiderivative of the smoothed absolute value, normalized to vanish at 0.

    F(p) = (p*sqrt(p^2+kappa^2) + kappa^2*asinh(p/kappa)) / 2, which is odd in
    p, has derivative smoothed_abs(p, kappa), and differs from |p|*p/2 by at
    most kappa*|p|.  kappa == 0 returns the limit |p|*p/2.
    """
    p = np.asarray(p, dtype=float)
    if kappa < 0.0:
        raise ValueError("kappa must be >= 0")
    if kappa == 0.0:
        out = 0.5 * np.abs(p) * p
    else:
        out = 0.5 * (p * np.hypot(p, kappa) + kappa * kappa * np.arcsinh(p / kappa))
    return float(out) if out.ndim == 0 else out


def sqrt_gradient_transform(p):
    """(2/3) sign(p) |p|^(3/2), the integral of |y|^(1/2) from 0 to p: the
    compactness quantity of the convergence diagnostics."""
    p = np.asarray(p, dtype=float)
    return (2.0 / 3.0) * np.sign(p) * np.abs(p) ** 1.5


# ---------------------------------------------------------------------------
# double-well potential
# ---------------------------------------------------------------------------

class DoubleWell(ReadOnlyRecord):
    """Polynomial double-well potential with wells at s_minus < s_plus and a
    barrier at s_star in between.

    ``coeffs`` are polynomial coefficients in descending powers, ``dcoeffs``
    those of the derivative.  The sign pattern of the derivative (positive
    between s_minus and s_star, negative between s_star and s_plus) and
    non-negativity near the wells are checked at construction, which keeps
    arbitrary user polynomials honest.
    """

    __slots__ = ("coeffs", "s_minus", "s_star", "s_plus", "dcoeffs")

    def __init__(self, coeffs: np.ndarray, s_minus: float, s_star: float,
                 s_plus: float):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1 or c.size < 3:
            raise ValueError("potential needs polynomial coefficients of degree >= 2")
        if not (s_minus < s_star < s_plus):
            raise ValueError("wells must satisfy s_minus < s_star < s_plus")
        c.setflags(write=False)
        d = np.polyder(c)
        d.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "s_minus", s_minus)
        object.__setattr__(self, "s_star", s_star)
        object.__setattr__(self, "s_plus", s_plus)
        object.__setattr__(self, "dcoeffs", d)
        self._validate_shape()

    def _validate_shape(self):
        pad = 0.5 * (self.s_plus - self.s_minus)
        window = np.linspace(self.s_minus - pad, self.s_plus + pad, 1001)
        if np.min(self.psi(window)) < -1e-12:
            raise ValueError("potential must be non-negative near the wells")
        left = np.linspace(self.s_minus, self.s_star, 502)[1:-1]
        right = np.linspace(self.s_star, self.s_plus, 502)[1:-1]
        if np.min(self.psi_prime(left)) <= 0.0:
            raise ValueError("potential derivative must be positive between s_minus and s_star")
        if np.max(self.psi_prime(right)) >= 0.0:
            raise ValueError("potential derivative must be negative between s_star and s_plus")

    @classmethod
    def quartic(cls) -> "DoubleWell":
        """Default potential (S*(1-S))^2 with wells at 0 and 1."""
        return cls(np.array([1.0, -2.0, 1.0, 0.0, 0.0]), 0.0, 0.5, 1.0)

    def psi(self, s):
        return np.polyval(self.coeffs, s)

    def psi_prime(self, s):
        return np.polyval(self.dcoeffs, s)

    def psi_prime_lipschitz(self, lo: float, hi: float) -> float:
        """Bound on |psi''| over [lo, hi], sampled; used by the step-size budget."""
        ddc = np.polyder(self.dcoeffs)
        sample = np.linspace(lo, hi, 2049)
        return float(np.max(np.abs(np.polyval(ddc, sample))))


# ---------------------------------------------------------------------------
# parameters and fields
# ---------------------------------------------------------------------------

# Below about 1.5e-154, kappa^2 is subnormal or 0: |p|_kappa then reads 0, or
# a few subnormal ulps, on flat stretches, and the reciprocal monitor divides
# by it.
KAPPA_TOO_SMALL = (f"kappa must be at least about {math.sqrt(sys.float_info.min):.2g}, "
                   "so that kappa^2 is a normal double")


def kappa_square_is_normal(kappa: float) -> bool:
    """Whether kappa * kappa is at least the smallest normal double."""
    return kappa * kappa >= sys.float_info.min


@dataclass(frozen=True)
class ModelParams:
    """Model constants: kinetic coefficient c, gradient-energy coefficient nu,
    regularization width kappa in (0, 1], misfit strain, stiffness map,
    domain (a, d), final time, and the double-well potential."""

    c: float
    nu: float
    kappa: float
    epsbar: SymMatrix3
    elastic: ElasticTensor
    a: float
    d: float
    t_end: float
    potential: DoubleWell

    def __post_init__(self):
        if not (self.c > 0.0):
            raise ValueError("c must be positive")
        if not (self.nu > 0.0):
            raise ValueError("nu must be positive")
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError("kappa must lie in (0, 1]")
        if not kappa_square_is_normal(self.kappa):
            raise ValueError(KAPPA_TOO_SMALL)
        if not (self.a < self.d):
            raise ValueError("domain endpoints must satisfy a < d")
        if not (self.t_end > 0.0):
            raise ValueError("t_end must be positive")


class Grid(ReadOnlyRecord):
    """Uniform node grid on [a, d] with n cells (n + 1 nodes) at ``x``."""

    __slots__ = ("a", "d", "n", "x")

    def __init__(self, a: float, d: float, n: int):
        if n < 4:
            raise ValueError("grid needs at least 4 cells")
        if not (np.isfinite(a) and np.isfinite(d) and a < d):
            raise ValueError("grid endpoints must be finite with a < d")
        x = np.linspace(a, d, n + 1)
        x.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", x)

    @property
    def dx(self) -> float:
        return (self.d - self.a) / self.n

    @property
    def n_nodes(self) -> int:
        return self.n + 1


class ScalarField(ReadOnlyRecord):
    """Nodal values of a scalar function on a grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        v = np.array(values, dtype=float)
        if v.shape != (grid.n_nodes,):
            raise ValueError("field length does not match the grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", v)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _smoothstep(u):
    """Quintic ramp with zero first and second derivatives at both ends."""
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))


def make_initial_profile(kind: str, amplitude: float, grid: Grid,
                         width: Optional[float] = None) -> ScalarField:
    """Generated initial data with zero boundary values.

    * ``sine``: amplitude * sin(pi * (x-a)/(d-a)).
    * ``smoothed-step``: rises from exactly 0 through a quintic transition of
      the given width to a plateau at ``amplitude`` and returns to exactly 0
      before the right endpoint, so value, slope and curvature all vanish on
      the boundary (monotone along each transition).
    * ``polynomial-bump``: 16 * amplitude * (u*(1-u))^2, zero value and slope
      at the endpoints.
    """
    if not np.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    length = grid.d - grid.a
    u = (grid.x - grid.a) / length
    if kind == "sine":
        values = amplitude * np.sin(np.pi * u)
    elif kind == "smoothed-step":
        w = 0.3 * length if width is None else float(width)
        margin = 0.05 * length
        w = min(max(w, 4.0 * grid.dx), 0.5 * (length - 2.0 * margin))
        rise = (grid.x - (grid.a + margin)) / w
        fall = (grid.x - (grid.d - margin - w)) / w
        values = amplitude * (_smoothstep(rise) - _smoothstep(fall))
    elif kind == "polynomial-bump":
        values = 16.0 * amplitude * (u * (1.0 - u)) ** 2
    else:
        raise ValueError(f"unknown profile kind {kind!r}; "
                         "use sine, smoothed-step or polynomial-bump")
    values[0] = 0.0
    values[-1] = 0.0
    return ScalarField(grid, values)


# ---------------------------------------------------------------------------
# linear interpolation in time
# ---------------------------------------------------------------------------

def _bracket(times: np.ndarray, s: np.ndarray):
    """For each point of s (clamped to the covered range): the index of the
    bracketing row on the left and the linear-interpolation weight of the
    row after it.  Needs at least two rows."""
    idx = np.clip(np.searchsorted(times, s, side="right") - 1, 0, times.size - 2)
    denom = times[idx + 1] - times[idx]
    theta = np.clip((s - times[idx]) / np.where(denom > 0.0, denom, 1.0), 0.0, 1.0)
    return idx, theta


def _sample_rows(times: np.ndarray, values: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows of ``values`` linearly interpolated in time at the points s,
    clamped to the covered range."""
    if times.size == 1:
        return np.repeat(values[:1], s.size, axis=0)
    idx, theta = _bracket(times, s)
    return (1.0 - theta)[:, None] * values[idx] + theta[:, None] * values[idx + 1]


def _series(series, name: str, shape: tuple):
    """A per-snapshot series of a trajectory as floats, None when not given."""
    if series is None:
        return None
    series = np.asarray(series, dtype=float)
    if series.shape != shape:
        raise ValueError(f"{name} has shape {series.shape}, but the snapshots' "
                         f"time stamps and nodes need {shape}")
    return series


class Trajectory(Record):
    """Time-stamped snapshots of the order parameter on one grid.

    ``times`` and ``values`` hold the stored snapshots (the first row is the
    initial field at t = 0); ``tdot_eps`` holds the stress coupling field at
    the same instants and ``s_eff`` the coupling field, each with the shape
    of ``values`` when given.  A run also sets ``displacement``, the pair
    (u_star, w) of its elasticity solve, from which the displacement of each
    snapshot is assembled (``elasticity.assemble_displacement``).
    """

    __slots__ = ("grid", "times", "values", "tdot_eps", "s_eff", "displacement")

    def __init__(self, grid: Grid, times, values, tdot_eps=None, s_eff=None,
                 displacement=None):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape != (times.size, grid.n_nodes):
            raise ValueError("trajectory snapshots do not match times/grid")
        if times.size < 1 or times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("trajectory contains non-finite values")
        self.grid = grid
        self.times = times
        self.values = values
        self.tdot_eps = _series(tdot_eps, "tdot_eps", values.shape)
        self.s_eff = _series(s_eff, "s_eff", values.shape)
        self.displacement = displacement

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def initial(self) -> ScalarField:
        return ScalarField(self.grid, self.values[0])

    def resample(self, times) -> np.ndarray:
        """The values at every t in ``times`` (``_sample_rows``); each row is
        the same bits as interpolating its t alone."""
        return _sample_rows(self.times, self.values,
                            np.asarray(times, dtype=float))


# ---------------------------------------------------------------------------
# quadrature helpers on the uniform grid
# ---------------------------------------------------------------------------

# values per pass of a computation over stacked snapshots, so that its
# temporaries stay cache-sized
BLOCK_VALUES = 8192


def block_rows(width: int) -> int:
    """Rows per pass over stacked rows of ``width`` values: about
    ``BLOCK_VALUES`` values, and at least one row."""
    return max(1, BLOCK_VALUES // width)


def trapezoid(values: np.ndarray, dx: float) -> float:
    """Composite trapezoid of one row of nodal values with uniform spacing."""
    return float(trapezoid_rows(values, dx))


def trapezoid_rows(values: np.ndarray, dx: float) -> np.ndarray:
    """Composite trapezoid with uniform spacing along the last axis of an
    array of rows; each entry is the same bits as the trapezoid of that row
    alone (numpy's per-row pairwise sum)."""
    v = np.asarray(values, dtype=float)
    return dx * (v.sum(axis=-1) - 0.5 * (v[..., 0] + v[..., -1]))


def cumulative_trapezoid(values: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    """Running composite trapezoid along ``axis``, starting at 0.  The sum
    runs in order along the axis, so each lane is the same bits as the
    running trapezoid of that lane alone."""
    v = np.asarray(values, dtype=float)
    lead = (slice(None),) * (axis % v.ndim)
    right, left = lead + (slice(1, None),), lead + (slice(None, -1),)
    out = np.zeros_like(v)
    out[right] = np.cumsum(0.5 * dx * (v[right] + v[left]), axis=axis)
    return out


def time_integral_rows(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Trapezoid integral over possibly non-uniform time stamps along the
    last axis of an array of rows; each entry is the same bits as the
    integral of that row alone."""
    v = np.asarray(values, dtype=float)
    t = np.asarray(times, dtype=float)
    if v.shape[-1] != t.size:
        raise ValueError("values and times must have equal length")
    if t.size < 2:
        return np.zeros(v.shape[:-1])
    return np.sum(0.5 * (v[..., 1:] + v[..., :-1]) * np.diff(t), axis=-1)


def time_integral(values: np.ndarray, times: np.ndarray) -> float:
    """Trapezoid integral of one row over possibly non-uniform time stamps."""
    return float(time_integral_rows(np.ravel(values), times))


# ---------------------------------------------------------------------------
# L2(Q) distances between trajectories
# ---------------------------------------------------------------------------

# the common time grid of the distances
_DISTANCE_TIMES = 513


def _common_times(traj_a: Trajectory, traj_b: Trajectory):
    if traj_a.grid.n != traj_b.grid.n or traj_a.grid.a != traj_b.grid.a \
            or traj_a.grid.d != traj_b.grid.d:
        raise ValueError("trajectories live on incompatible grids")
    return np.linspace(0.0, min(traj_a.t_end, traj_b.t_end), _DISTANCE_TIMES)


def _resampled_pair(traj_a: Trajectory, traj_b: Trajectory):
    times = _common_times(traj_a, traj_b)
    return times, traj_a.resample(times), traj_b.resample(times)


def _l2q_of_rows(times: np.ndarray, rows_sq_integrals: np.ndarray) -> float:
    return math.sqrt(max(time_integral(rows_sq_integrals, times), 0.0))


def trajectory_l2_distance(traj_a: Trajectory, traj_b: Trajectory) -> float:
    """L2(Q) distance of two trajectories, resampled onto a common uniform
    time grid by linear interpolation."""
    times, ra, rb = _resampled_pair(traj_a, traj_b)
    dx = traj_a.grid.dx
    diff = ra - rb
    return _l2q_of_rows(times, trapezoid_rows(diff * diff, dx))
