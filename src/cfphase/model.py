"""Core model quantities: the double-well potential, the smoothed absolute
value and its primitives, free energy and driving force, and the grid /
field / trajectory containers shared by the solver and diagnostics.

All types are immutable after construction; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import adaptive_simpson
from .tensors import ElasticTensor, SymMatrix3


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


def sqrt_gradient_transform(p):
    """Vectorized kappa == 0 sqrt_flux_primitive, (2/3) sign(p) |p|^(3/2):
    the compactness quantity of the convergence diagnostics."""
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


@dataclass(frozen=True)
class DoubleWell:
    """Polynomial double-well potential with wells at s_minus < s_plus and a
    barrier at s_star in between.

    ``coeffs`` are polynomial coefficients in descending powers.  The sign
    pattern of the derivative (positive between s_minus and s_star, negative
    between s_star and s_plus) and non-negativity near the wells are checked
    at construction, which keeps arbitrary user polynomials honest.
    """

    coeffs: np.ndarray
    s_minus: float
    s_star: float
    s_plus: float
    dcoeffs: np.ndarray = field(init=False, repr=False)
    # the coefficients as Python floats, for Horner's rule in psi/psi_prime
    _coeff_floats: tuple = field(init=False, repr=False, compare=False)
    _dcoeff_floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 3:
            raise ValueError("potential needs polynomial coefficients of degree >= 2")
        if not (self.s_minus < self.s_star < self.s_plus):
            raise ValueError("wells must satisfy s_minus < s_star < s_plus")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        d = np.polyder(c)
        d.setflags(write=False)
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

    @property
    def length(self) -> float:
        return self.d - self.a

    def with_kappa(self, kappa: float) -> "ModelParams":
        return ModelParams(self.c, self.nu, kappa, self.epsbar, self.elastic,
                           self.a, self.d, self.t_end, self.potential)


@dataclass(frozen=True)
class Grid:
    """Uniform node grid on [a, d] with n cells (n + 1 nodes)."""

    a: float
    d: float
    n: int
    x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("grid needs at least 4 cells")
        if not (np.isfinite(self.a) and np.isfinite(self.d) and self.a < self.d):
            raise ValueError("grid endpoints must be finite with a < d")
        x = np.linspace(self.a, self.d, self.n + 1)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    @property
    def dx(self) -> float:
        return (self.d - self.a) / self.n

    @property
    def n_nodes(self) -> int:
        return self.n + 1


@dataclass(frozen=True)
class ScalarField:
    """Nodal values of a scalar function on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError("field length does not match the grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.n_nodes))

    @classmethod
    def from_function(cls, grid: Grid, f) -> "ScalarField":
        return cls(grid, np.asarray(f(grid.x), dtype=float))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


class Trajectory:
    """Time-stamped snapshots of the order parameter on one grid.

    ``times`` and ``values`` hold the stored snapshots (the first row is the
    initial field at t = 0); ``tdot_eps`` holds the stress coupling field at
    the same instants; ``dts`` records every solver step size, which may be
    finer than the snapshot spacing.
    """

    def __init__(self, grid: Grid, times, values, tdot_eps=None, s_eff=None,
                 dts=None):
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
        self.tdot_eps = None if tdot_eps is None else np.asarray(tdot_eps, dtype=float)
        self.s_eff = None if s_eff is None else np.asarray(s_eff, dtype=float)
        self.dts = np.zeros(0) if dts is None else np.asarray(dts, dtype=float)

    @property
    def n_snapshots(self) -> int:
        return self.times.size

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def initial(self) -> ScalarField:
        return ScalarField(self.grid, self.values[0])

    def snapshot(self, i: int) -> ScalarField:
        return ScalarField(self.grid, self.values[i])

    def sample(self, t: float) -> np.ndarray:
        """Values at time t by linear interpolation between snapshots."""
        times = self.times
        if t <= times[0]:
            return self.values[0].copy()
        if t >= times[-1]:
            return self.values[-1].copy()
        j = int(np.searchsorted(times, t, side="right")) - 1
        theta = (t - times[j]) / (times[j + 1] - times[j])
        return (1.0 - theta) * self.values[j] + theta * self.values[j + 1]

    def resample(self, times) -> np.ndarray:
        """Rows ``sample(t)`` for every t in ``times``, bracketed by one
        searchsorted; each row is the same bits as ``sample`` gives."""
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
# energies and forces
# ---------------------------------------------------------------------------

def free_energy(eps: SymMatrix3, s: float, params: ModelParams) -> float:
    """Elastic plus chemical free energy density at strain eps and order
    parameter s; non-negative, equal to the potential when eps matches the
    misfit strain."""
    e = eps - params.epsbar * s
    return 0.5 * params.elastic.apply(e).dot(e) + float(params.potential.psi(s))


def driving_force(t_stress: SymMatrix3, s: float, params: ModelParams) -> float:
    """Configurational driving force c*(T : epsbar - psi'(s))."""
    return params.c * (t_stress.dot(params.epsbar)
                       - float(params.potential.psi_prime(s)))


# ---------------------------------------------------------------------------
# quadrature helpers on the uniform grid
# ---------------------------------------------------------------------------

def trapezoid(values: np.ndarray, dx: float) -> float:
    """Composite trapezoid of nodal values with uniform spacing."""
    v = np.asarray(values, dtype=float)
    return float(dx * (v.sum() - 0.5 * (v[0] + v[-1])))


def trapezoid_rows(values: np.ndarray, dx: float) -> np.ndarray:
    """``trapezoid`` of each row of a 2-D array: the same per-row pairwise
    sum, so each entry is the same bits as ``trapezoid`` of that row."""
    v = np.asarray(values, dtype=float)
    return dx * (v.sum(axis=1) - 0.5 * (v[:, 0] + v[:, -1]))


def cumulative_trapezoid(values: np.ndarray, dx: float) -> np.ndarray:
    """Running composite trapezoid along the first axis, starting at 0."""
    v = np.asarray(values, dtype=float)
    out = np.zeros_like(v)
    out[1:] = np.cumsum(0.5 * dx * (v[1:] + v[:-1]), axis=0)
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
