"""Temporal mollification of the order parameter for the stress coupling.

The kernel is the classic compactly supported bump exp(-1/(1-tau^2)) scaled
to unit mass and support width kappa.  Two variants exist: a centered kernel
averaging over (t-kappa, t+kappa), used by the global fixed-point sweeps, and
a causal kernel averaging over (t-kappa, t), usable inside time stepping.
Where the window is truncated by the ends of the time interval the discrete
weights are renormalized so constants are reproduced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Trajectory
from .quadrature import adaptive_simpson


class MollifierError(RuntimeError):
    """Raised when the available history does not cover the kernel support."""


def bump_profile(tau):
    """Unnormalized C-infinity bump exp(-1/(1-tau^2)) on (-1, 1), 0 outside."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros_like(tau)
    inside = np.abs(tau) < 1.0
    t2 = tau[inside] ** 2
    out[inside] = np.exp(-1.0 / (1.0 - t2))
    return out if out.ndim else float(out)


def _bump_scalar(tau: float) -> float:
    if abs(tau) >= 1.0:
        return 0.0
    return float(np.exp(-1.0 / (1.0 - tau * tau)))


# mass of the raw bump on (-1, 1); computed once, reused by every kernel
BUMP_MASS = adaptive_simpson(_bump_scalar, -1.0, 1.0, tol=1e-14)


@dataclass(frozen=True)
class MollifierKernel:
    """Unit-mass bump kernel of support width kappa.

    centered=True averages symmetrically over (t-kappa, t+kappa); otherwise
    the kernel is causal with support (t-kappa, t).
    """

    kappa: float
    centered: bool = True
    norm_const: float = field(init=False)

    def __post_init__(self):
        if not (self.kappa > 0.0):
            raise ValueError("kernel width kappa must be positive")
        object.__setattr__(self, "norm_const", BUMP_MASS)

    @property
    def support(self):
        """Support of u -> weight(u) where u = t - s."""
        return (-self.kappa, self.kappa) if self.centered else (0.0, self.kappa)

    def weight(self, u):
        """Kernel value at lag u = t - s; integrates to one over the support."""
        u = np.asarray(u, dtype=float)
        if self.centered:
            return bump_profile(u / self.kappa) / (self.norm_const * self.kappa)
        return 2.0 * bump_profile(2.0 * u / self.kappa - 1.0) / (self.norm_const * self.kappa)


def _window(kernel: MollifierKernel, t: float, t_end: float):
    lo, hi = kernel.support
    return max(0.0, t - hi), min(t_end, t - lo)


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


def uncovered(newest: float, t: float, s0: float, s1: float) -> MollifierError:
    """The error for a history that ends at ``newest``, short of the kernel
    window [s0, s1] at t."""
    return MollifierError(
        f"history covers [0, {newest!r}] but the kernel at t={t!r} needs "
        f"[{s0!r}, {s1!r}] (missing ({newest!r}, {s1!r}])")


def _mollify_arrays(times: np.ndarray, values: np.ndarray,
                    kernel: MollifierKernel, t: float, t_end: float,
                    samples: int, cover_slack: float = 0.0) -> np.ndarray:
    s0, s1 = _window(kernel, t, t_end)
    covered = float(times[-1]) + cover_slack + 1e-12 * max(1.0, t_end)
    if s1 > covered:
        raise uncovered(float(times[-1]), t, s0, s1)
    if s0 > s1 + 1e-15:
        raise MollifierError(f"empty kernel window at t={t!r}")
    if s1 - s0 <= 1e-15 * max(1.0, t_end):
        return _sample_rows(times, values, np.array([s0]))[0]

    s = np.linspace(s0, s1, samples)
    w = kernel.weight(t - s)
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


def mollify_time(traj: Trajectory, kernel: MollifierKernel, t: float,
                 samples: int = 2049, t_end: float = None) -> np.ndarray:
    """Kernel average of the trajectory at time t, one value per grid node.

    The integral runs over the kernel support clipped to [0, t_end] (the
    problem horizon; defaults to the trajectory's coverage); the trajectory
    is interpolated linearly in time at ``samples`` quadrature points and the
    trapezoid weights are renormalized to unit mass, so the result is a
    convex combination of snapshots (constants are reproduced, pointwise
    bounds are respected).  Raises :class:`MollifierError`, naming the
    missing interval, when the stored history does not reach the needed part
    of the support.
    """
    horizon = traj.t_end if t_end is None else float(t_end)
    return _mollify_arrays(traj.times, traj.values, kernel, float(t),
                           horizon, samples)


def was_truncated(kernel: MollifierKernel, t: float, t_end: float) -> bool:
    """Whether the kernel window at t is clipped by the ends of [0, t_end]."""
    lo, hi = kernel.support
    return (t - hi) < 0.0 or (t - lo) > t_end


def build_mollified_table(traj: Trajectory, kernel: MollifierKernel,
                          n_times: int = 513, samples: int = 1025):
    """Mollified coupling field tabulated on a uniform reference time grid.

    Returns (ref_times, table, truncated_any); the solver interpolates the
    table linearly in time, which is accurate because the mollified field is
    smooth in t.
    """
    ref_times = np.linspace(0.0, traj.t_end, n_times)
    table = np.empty((n_times, traj.grid.n_nodes))
    truncated = False
    for i, t in enumerate(ref_times):
        table[i] = mollify_time(traj, kernel, float(t), samples=samples)
        truncated = truncated or was_truncated(kernel, float(t), traj.t_end)
    return ref_times, table, truncated


def picard_sweep(traj_in: Trajectory, params, config, b=None):
    """One global fixed-point sweep for the nonlocal-in-time coupling.

    Re-solves the evolution over [0, t_end] with the stress assembled from
    the centered mollification of ``traj_in``; returns the new trajectory,
    its monitors and the L2(Q) distance to the input trajectory.
    """
    from .convergence import trajectory_l2_distance
    from .solver import run_with_coupling_table

    kernel = MollifierKernel(params.kappa, centered=True)
    ref_times, table, truncated = build_mollified_table(
        traj_in, kernel, n_times=config.mollify_table,
        samples=config.mollify_samples)
    traj_out, monitors = run_with_coupling_table(
        traj_in.initial, params, config, ref_times, table, b=b)
    monitors.mollifier_truncated = truncated
    distance = trajectory_l2_distance(traj_out, traj_in)
    return traj_out, monitors, distance
