"""Core model quantities: the double-well potential, the smoothed absolute
value and its flux primitive, and the grid / field / trajectory containers
shared by the solver and diagnostics.

All types are immutable after construction; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

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

def _horner(coeffs: tuple, s):
    """Polynomial with descending Python-float coefficients at s: the same
    bits as np.polyval on finite input, without its per-call overhead."""
    s = np.asarray(s, dtype=float)
    lead, *rest = coeffs
    y = lead
    for coef in rest:
        y = y * s + coef
    return y


class DoubleWell(ReadOnlyRecord):
    """Polynomial double-well potential with wells at s_minus < s_plus and a
    barrier at s_star in between.

    ``coeffs`` are polynomial coefficients in descending powers, ``dcoeffs``
    those of the derivative.  The sign pattern of the derivative (positive
    between s_minus and s_star, negative between s_star and s_plus) and
    non-negativity near the wells are checked at construction, which keeps
    arbitrary user polynomials honest.
    """

    # ``_coeff_floats`` and ``_dcoeff_floats`` hold the coefficients as
    # Python floats, for Horner's rule in psi/psi_prime
    __slots__ = ("coeffs", "s_minus", "s_star", "s_plus", "dcoeffs",
                 "_coeff_floats", "_dcoeff_floats")

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
        object.__setattr__(self, "_coeff_floats", tuple(c.tolist()))
        object.__setattr__(self, "_dcoeff_floats", tuple(d.tolist()))
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

    @classmethod
    def from_coefficients(cls, coeffs, s_minus: float, s_star: float,
                          s_plus: float) -> "DoubleWell":
        return cls(np.asarray(coeffs, dtype=float), float(s_minus),
                   float(s_star), float(s_plus))

    def psi(self, s):
        return _horner(self._coeff_floats, s)

    def psi_prime(self, s):
        return _horner(self._dcoeff_floats, s)

    def psi_prime_lipschitz(self, lo: float, hi: float) -> float:
        """Bound on |psi''| over [lo, hi], sampled; used by the step-size budget."""
        ddc = np.polyder(self.dcoeffs)
        sample = np.linspace(lo, hi, 2049)
        return float(np.max(np.abs(np.polyval(ddc, sample))))


# ---------------------------------------------------------------------------
# parameters and fields
# ---------------------------------------------------------------------------

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
        if not (self.a < self.d):
            raise ValueError("domain endpoints must satisfy a < d")
        if not (self.t_end > 0.0):
            raise ValueError("t_end must be positive")

    def with_kappa(self, kappa: float) -> "ModelParams":
        return ModelParams(self.c, self.nu, kappa, self.epsbar, self.elastic,
                           self.a, self.d, self.t_end, self.potential)


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

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.n_nodes))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


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
        """The values at every t in ``times``: linear interpolation between
        the two snapshots around t (the first or last snapshot outside their
        span), with every t placed by one searchsorted; each row is the same
        bits as interpolating its t alone."""
        t = np.asarray(times, dtype=float)
        stamps, values = self.times, self.values
        out = np.empty((t.size, values.shape[1]))
        low = t <= stamps[0]
        high = ~low & (t >= stamps[-1])
        inner = ~(low | high)
        out[low] = values[0]
        out[high] = values[-1]
        ti = t[inner]
        j = np.searchsorted(stamps, ti, side="right") - 1
        theta = ((ti - stamps[j]) / (stamps[j + 1] - stamps[j]))[:, None]
        out[inner] = (1.0 - theta) * values[j] + theta * values[j + 1]
        return out


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
    """Composite trapezoid of nodal values with uniform spacing."""
    v = np.asarray(values, dtype=float)
    return float(dx * (v.sum() - 0.5 * (v[0] + v[-1])))


def trapezoid_rows(values: np.ndarray, dx: float) -> np.ndarray:
    """``trapezoid`` of each row of a 2-D array: the same per-row pairwise
    sum, so each entry is the same bits as ``trapezoid`` of that row."""
    v = np.asarray(values, dtype=float)
    return dx * (v.sum(axis=1) - 0.5 * (v[:, 0] + v[:, -1]))


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


def time_integral(values: np.ndarray, times: np.ndarray) -> float:
    """Trapezoid integral over possibly non-uniform time stamps."""
    v = np.asarray(values, dtype=float)
    t = np.asarray(times, dtype=float)
    if v.size != t.size:
        raise ValueError("values and times must have equal length")
    if v.size < 2:
        return 0.0
    return float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(t)))
