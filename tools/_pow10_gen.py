"""Generate ``_pow10.h``, the power-of-ten table of the compiled formatter.

``_format.c`` renders doubles with the Schubfach algorithm (R. Giulietti,
"The Schubfach way to render doubles", 2020), which multiplies by a 126-bit
over-approximation of 10^-k.  For every k the formatter can ask for, the
table holds

    g = floor(10^-k * 2^(125 - r)) + 1,    r = floor(log2(10^-k)),

so that 2^125 <= g < 2^126, split as g = g1 * 2^63 + g0 with g1, g0 < 2^63.
Everything is exact Python integer arithmetic.  The generator also checks,
over the whole range, the fixed-point logarithm formulas that ``_format.c``
uses to find k and r.

Regenerate with ``python tools/_pow10_gen.py``, which rewrites
``src/cfphase/_pow10.h``; ``tests/test_format.py`` checks that the
committed header equals ``render()``.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

HEADER = Path(__file__).resolve().parents[1] / "src" / "cfphase" / "_pow10.h"

# binary64: value = c 2^q with c < 2^53 and Q_MIN <= q <= Q_MAX
Q_MIN, Q_MAX = -1074, 971


def floor_log10(x: Fraction) -> int:
    """floor(log10(x)) for x > 0, exactly."""
    k = len(str(x.numerator)) - len(str(x.denominator))
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


def floor_log2(x: Fraction) -> int:
    """floor(log2(x)) for x > 0, exactly."""
    r = x.numerator.bit_length() - x.denominator.bit_length()
    while Fraction(2) ** r > x:
        r -= 1
    while Fraction(2) ** (r + 1) <= x:
        r += 1
    return r


# The fixed-point forms of _format.c (arithmetic shifts round to -inf).
def flog10pow2(q: int) -> int:
    return q * 661_971_961_083 >> 41


def flog10_three_quarters_pow2(q: int) -> int:
    return q * 661_971_961_083 - 274_743_187_321 >> 41


def flog2pow10(e: int) -> int:
    return e * 913_124_641_741 >> 38


def k_range() -> tuple:
    """The k of every double, after checking the formulas that compute it."""
    ks = set()
    for q in range(Q_MIN, Q_MAX + 1):
        k = floor_log10(Fraction(2) ** q)
        assert flog10pow2(q) == k, q
        ks.add(k)
        if q > Q_MIN:  # the smallest normal binade has a narrower lower gap
            k = floor_log10(Fraction(3, 4) * Fraction(2) ** q)
            assert flog10_three_quarters_pow2(q) == k, q
            ks.add(k)
    return min(ks), max(ks)


def table(k_min: int, k_max: int) -> list:
    rows = []
    for k in range(k_min, k_max + 1):
        p = Fraction(10) ** -k
        r = floor_log2(p)
        assert flog2pow10(-k) == r, k
        g = int(p * Fraction(2) ** (125 - r)) + 1
        assert 2 ** 125 <= g < 2 ** 126, k
        rows.append((k, g >> 63, g & (2 ** 63 - 1)))
    return rows


def render() -> str:
    k_min, k_max = k_range()
    lines = [
        "/* Generated by _pow10_gen.py; do not edit.",
        " *",
        " * cf_pow10_g[k - CF_POW10_KMIN] = {g1, g0} with",
        " * g1 2^63 + g0 = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1.",
        " */",
        "",
        f"#define CF_POW10_KMIN ({k_min})",
        f"#define CF_POW10_KMAX {k_max}",
        "",
        "static const uint64_t cf_pow10_g[][2] = {",
    ]
    lines += [f"    {{0x{g1:016x}, 0x{g0:016x}}}, /* {k} */"
              for k, g1, g0 in table(k_min, k_max)]
    lines += ["};", ""]
    return "\n".join(lines)


if __name__ == "__main__":
    HEADER.write_text(render(), encoding="utf-8")
    print(f"wrote {HEADER}")
