"""Temporal mollification of the order parameter for the stress coupling:
the kernel record and the Python entry to the compiled kernel average.

The kernel is the classic compactly supported bump exp(-1/(1-tau^2)) scaled
to unit mass and support width kappa.  Two variants exist: a centered kernel
averaging over (t-kappa, t+kappa), whose tables (``build_mollified_table``)
couple the Picard sweeps of ``solver.run``, and a causal kernel averaging
over (t-kappa, t), which the chunk loop applies after every step of a
mollified run.  Where the window is truncated by the ends of the time
interval the discrete weights are renormalized so constants are reproduced
exactly.  Both averages are the compiled ``window_average``: the causal
one inside the chunk loop, the centered one through
``_native.kernel_average``.  Neither checks that its rows cover the window,
because both callers guarantee it: a run's causal history ends less than a
spacing before t (see the chunk loop's header), and a table averages a
trajectory over [0, t_end].  The tests' numpy reference,
``oracles.mollify_arrays``, checks coverage on every call.
"""

from __future__ import annotations

import numpy as np

from ._native import BUMP_MASS, kernel_average  # noqa: F401 (re-exported)
from .model import Trajectory
from .tensors import ReadOnlyRecord


class MollifierKernel(ReadOnlyRecord):
    """Unit-mass bump kernel of support width kappa.

    centered=True averages symmetrically over (t-kappa, t+kappa); otherwise
    the kernel is causal with support (t-kappa, t).
    """

    __slots__ = ("kappa", "centered")

    def __init__(self, kappa: float, centered: bool = True):
        if not (kappa > 0.0):
            raise ValueError("kernel width kappa must be positive")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "centered", centered)


def _mollify_arrays(times, values: np.ndarray, kernel: MollifierKernel, ts,
                    t_end: float, samples: int) -> np.ndarray:
    """The kernel average of the rows ``values`` stored at ``times`` at
    each time of ``ts``, one row per time, in one compiled call.

    Each window is the kernel support clipped to [0, t_end], which the rows
    must cover; the rows are interpolated linearly in time at ``samples``
    quadrature points and the trapezoid weights are renormalized to unit
    mass, so each result is a convex combination of rows (constants are
    reproduced, pointwise bounds are respected)."""
    if samples < 1:
        raise ValueError(f"a kernel average needs samples >= 1, not {samples}")
    return kernel_average(
        np.ascontiguousarray(times, dtype=float),
        np.ascontiguousarray(values, dtype=float), kernel.kappa, kernel.centered,
        np.ascontiguousarray(ts, dtype=float), float(t_end), samples)


def build_mollified_table(traj: Trajectory, kernel: MollifierKernel,
                          n_times: int, samples: int):
    """Mollified coupling field tabulated on a uniform reference time grid.

    Returns (ref_times, table); the solver interpolates the table linearly
    in time, which is accurate because the mollified field is smooth in t.
    """
    ref_times = np.linspace(0.0, traj.t_end, n_times)
    return ref_times, _mollify_arrays(traj.times, traj.values, kernel,
                                      ref_times, traj.t_end, samples)
