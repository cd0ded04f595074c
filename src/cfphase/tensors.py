"""Symmetric 3x3 matrices and SPD elastic stiffness maps acting on them.

Symmetric matrices are stored by their six independent entries, so symmetry
is structural.  The stiffness map is stored as a 6x6 matrix in the
orthonormal (Mandel) basis of the symmetric matrices, in which the Frobenius
scalar product of two matrices is the plain dot product of their coordinate
vectors.
"""

from __future__ import annotations

import numpy as np

_SQRT2 = float(np.sqrt(2.0))


def mandel_coords(e) -> np.ndarray:
    """The Mandel coordinates (a11, a22, a33, sqrt2*a12, ...) of the six
    entries (a11, a22, a33, a12, a13, a23)."""
    return np.array([e[0], e[1], e[2], _SQRT2 * e[3], _SQRT2 * e[4], _SQRT2 * e[5]])


def mandel_entries(v) -> np.ndarray:
    """The six entries of the Mandel coordinates ``v``."""
    return np.array([v[0], v[1], v[2], v[3] / _SQRT2, v[4] / _SQRT2, v[5] / _SQRT2])


def sym_grad_e1_entries(u) -> np.ndarray:
    """The six entries of sym(u x e1), the symmetric part of the rank-one
    gradient (u, 0, 0)."""
    return np.array([u[0], 0.0, 0.0, 0.5 * u[1], 0.5 * u[2], 0.0])


class Record:
    """Base of the package's plain record types: slotted, unhashable, and
    without ``==``.  Many records hold arrays, whose ``==`` is elementwise,
    so a record refuses the comparison rather than answer it by identity.
    Only the configs whose callers use the dataclass protocol are
    dataclasses."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        raise TypeError(f"{type(self).__name__} does not support ==")


class ReadOnlyRecord(Record):
    """A ``Record`` whose ``__init__`` sets every field through
    ``object.__setattr__``; assigning or deleting one afterwards raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")


class SymMatrix3(ReadOnlyRecord):
    """Symmetric 3x3 real matrix, stored as (a11, a22, a33, a12, a13, a23)."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        e = np.array(entries, dtype=float)
        if e.shape != (6,):
            raise ValueError("SymMatrix3 needs 6 entries (a11, a22, a33, a12, a13, a23)")
        if not np.all(np.isfinite(e)):
            raise ValueError("SymMatrix3 entries must be finite")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


class ElasticTensor(ReadOnlyRecord):
    """Symmetric positive definite linear map on SymMatrix3.

    ``matrix`` is the 6x6 representation in the Mandel basis.  Symmetry of the
    entries is required exactly; positive definiteness is checked at
    construction with a Cholesky factorization, so invalid stiffness input is
    rejected early.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=float)
        if m.shape != (6, 6):
            raise ValueError("ElasticTensor needs a 6x6 matrix in the Mandel basis")
        if not np.all(np.isfinite(m)):
            raise ValueError("ElasticTensor entries must be finite")
        if not np.array_equal(m, m.T):
            raise ValueError("ElasticTensor matrix must be exactly symmetric")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise ValueError("ElasticTensor must be positive definite") from exc
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "ElasticTensor":
        return cls(np.eye(6))

    @classmethod
    def isotropic(cls, lam: float, mu: float) -> "ElasticTensor":
        """Isotropic map eps -> lam*tr(eps)*I + 2*mu*eps."""
        m = np.zeros((6, 6))
        m[:3, :3] = lam
        m[np.diag_indices(3)] += 2.0 * mu
        m[3:, 3:] = 2.0 * mu * np.eye(3)
        return cls(m)

    def apply_entries(self, e) -> np.ndarray:
        """The map on the six entries of a symmetric matrix, giving the six
        entries of the image."""
        return mandel_entries(self.matrix @ mandel_coords(e))
