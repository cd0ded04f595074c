"""Adaptive Simpson quadrature for the fractional-power flux primitive
(``model.sqrt_flux_primitive``), which has no closed form at kappa > 0."""

from __future__ import annotations


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
