"""The chunk loop's passes against libm.

The 4/3-power pass computes x * cbrt(x) two values at a time with a port of
glibc's cbrt in each lane, so every product must match x * libm cbrt(x) bit
for bit, NaN payloads included, and the pass's total must match those
products summed in order.

The step's asinh takes libm's log of glibc asinh's own argument on that
function's log branch and libm's asinh on the others, so it must match libm
asinh bit for bit, above all next to the branch bounds."""

import ctypes
import ctypes.util
import math
import platform

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cfphase import _native

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the passes reproduce glibc's cbrt and asinh, "
                                       "not this libc's")

# values per call of the pass in the chunk loop (P43_BLOCK in _chunk_loop.c)
BLOCK = 64


def _libm_cbrt():
    """libm's cbrt as a Python callable.  Not np.cbrt: numpy's SIMD loops
    need not call libm."""
    if hasattr(math, "cbrt"):  # Python 3.11+
        return math.cbrt
    fn = ctypes.CDLL(ctypes.util.find_library("m")).cbrt
    fn.restype = ctypes.c_double
    fn.argtypes = [ctypes.c_double]
    return fn


def _export(name, restype):
    """The export ``name`` of the compiled library, taking (values, n, out)."""
    _native.chunk_loop()
    # the library chunk_loop() just built or loaded
    fn = getattr(ctypes.CDLL(str(_native._library_path(_native.find_compiler()))), name)
    fn.restype = restype
    fn.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p]
    return fn


@pytest.fixture(scope="module")
def p43():
    """``cf_p43_rows`` of the compiled library: the products and their sum
    of a float64 array."""
    fn = _export("cf_p43_rows", ctypes.c_double)

    def p43_rows(values):
        x = np.ascontiguousarray(values, dtype=np.float64)
        prod = np.empty_like(x)
        return prod, fn(x.ctypes.data, x.size, prod.ctypes.data)

    return p43_rows


def _from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _check(p43, values):
    x = np.asarray(values, dtype=np.float64)
    prod, total = p43(x)
    libm = _libm_cbrt()
    want = [v * libm(v) for v in x.tolist()]
    got_bits = prod.view(np.uint64)
    want_bits = np.array(want, dtype=np.float64).view(np.uint64)
    bad = np.flatnonzero(got_bits != want_bits)
    if bad.size:
        pytest.fail(f"{bad.size} of {x.size} products differ from x * libm cbrt(x), "
                    "e.g. " + ", ".join(f"{x[i]!r}: {got_bits[i]:#018x} != "
                                        f"{want_bits[i]:#018x}" for i in bad[:5]))
    acc = 0.0  # not sum(): Python 3.12's sum of floats is compensated
    for v in want:
        acc += v
    if math.isnan(acc):
        # which of two NaN operands a sum returns is not fixed by IEEE 754
        # or C: x86 returns the first, and a compiler may swap the operands
        # of an addition, in the pass and in this loop alike
        assert math.isnan(total), (total, acc)
    else:
        assert np.float64(total).view(np.uint64) == np.float64(acc).view(np.uint64), (total, acc)


# ---------------------------------------------------------------------------
# the port's cbrt, through the products: the pass exports no root of its own
# ---------------------------------------------------------------------------

@settings(max_examples=300)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=24))
def test_cbrt_matches_libm_on_raw_bit_patterns(p43, bits):
    _check(p43, _from_bits(bits))


def test_cbrt_matches_libm_in_bulk(p43):
    rng = np.random.default_rng(11)
    _check(p43, _from_bits(rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64)))
    # the range of the 4/3-power integrand in the solver's runs
    _check(p43, rng.uniform(0.0, 1e4, size=200_000))


POWERS = np.ldexp(1.0, np.arange(-1074, 1024))
FIXED = {
    "zeros-infinities": [0.0, -0.0, np.inf, -np.inf],
    # quiet and signalling NaNs of both signs: the product is x quieted,
    # as x * libm cbrt(x), whose root x + x quiets a signalling one, is
    "nans": _from_bits([0x7ff8000000000000, 0xfff8000000000000,
                        0x7ff0000000000001, 0xfff0000000000001,
                        0x7ff4000000000123, 0xfffc00000000abcd]),
    "extremes": [5e-324, -5e-324, 2.2250738585072014e-308,
                 np.nextafter(2.2250738585072014e-308, 0.0),
                 1.7976931348623157e308, -1.7976931348623157e308],
    "subnormal-powers-of-two": np.ldexp(1.0, np.arange(-1074, -1022)),
    "powers-of-two": POWERS,
    "below-powers-of-two": np.nextafter(POWERS, 0.0),
    "above-powers-of-two": np.nextafter(POWERS, np.inf),
    "negative-powers-of-two": -POWERS,
}


@pytest.mark.parametrize("values", FIXED.values(), ids=FIXED.keys())
def test_cbrt_matches_libm_on_fixed_cases(p43, values):
    _check(p43, values)


def test_fixed_cases_cover_every_exponent_residue():
    # glibc scales by factor[2 + xe % 3] with C's truncating %, so
    # negative exponents take the residues -2 and -1
    exponents = [math.frexp(v)[1] for v in POWERS.tolist()]
    assert {int(math.fmod(e, 3)) for e in exponents} == {-2, -1, 0, 1, 2}


# ---------------------------------------------------------------------------
# the pass: every lane kind, lone last values and short blocks, in order
# ---------------------------------------------------------------------------

def _lanes(exponents, mantissas):
    return st.builds(lambda sign, e, m: sign << 63 | e << 52 | m,
                     st.integers(0, 1), exponents, mantissas)


# a lane of each kind, of either sign
_LANE_BITS = st.one_of(
    _lanes(st.integers(1, 0x7fe), st.integers(0, 2 ** 52 - 1)),  # normal
    _lanes(st.just(0), st.just(0)),  # zero
    _lanes(st.just(0), st.integers(1, 2 ** 52 - 1)),  # subnormal
    _lanes(st.just(0x7ff), st.just(0)),  # infinity
    _lanes(st.just(0x7ff), st.integers(1, 2 ** 52 - 1)),  # NaN, any payload
)


@settings(max_examples=300)
@given(bits=st.lists(_LANE_BITS, min_size=1, max_size=3 * BLOCK))
# two quiet NaNs that differ in payload: their sum may return either
@example(bits=[0x7ff8000000000005, 0x7ff8000000000009])
def test_p43_pass_matches_libm_on_mixed_lanes(p43, bits):
    _check(p43, _from_bits(bits))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, BLOCK - 1, BLOCK, BLOCK + 1,
                               2 * BLOCK + 3, 198, 199])
def test_p43_pass_matches_libm_at_lengths_off_the_block(p43, n):
    # odd lengths end on a lone value, and lengths off the block leave a
    # short last block; the range is that of the solver's integrand
    rng = np.random.default_rng(n)
    values = rng.uniform(0.0, 1e4, size=n)
    values[::5] = 0.0  # flat stretches of a profile give zero lanes
    _check(p43, values)


def test_p43_pass_matches_libm_over_every_exponent_residue(p43):
    rng = np.random.default_rng(13)
    exponents = rng.integers(1, 0x7ff, size=100_000, dtype=np.uint64)
    signs = rng.integers(0, 2, size=exponents.size, dtype=np.uint64)
    mantissas = rng.integers(0, 2 ** 52, size=exponents.size, dtype=np.uint64)
    values = _from_bits(signs << np.uint64(63) | exponents << np.uint64(52) | mantissas)
    # xe = biased exponent - 1022 takes every residue of C's truncating %
    residues = {int(math.fmod(int(e) - 1022, 3)) for e in exponents}
    assert residues == {-2, -1, 0, 1, 2}
    _check(p43, values)
    _check(p43, rng.uniform(0.0, 1e4, size=100_000))


# ---------------------------------------------------------------------------
# the step's asinh: libm's log on glibc asinh's log branch, libm's asinh off it
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def asinh_rows():
    """``cf_asinh_rows`` of the compiled library: the step's asinh of each
    value of a float64 array."""
    fn = _export("cf_asinh_rows", None)

    def rows(values):
        x = np.ascontiguousarray(values, dtype=np.float64)
        out = np.empty_like(x)
        fn(x.ctypes.data, x.size, out.ctypes.data)
        return out

    return rows


def _check_asinh(asinh_rows, values):
    # math.asinh calls libm's asinh; np.arcsinh's SIMD loops need not
    x = np.asarray(values, dtype=np.float64)
    got_bits = asinh_rows(x).view(np.uint64)
    want_bits = np.array([math.asinh(v) for v in x.tolist()], dtype=np.float64).view(np.uint64)
    bad = np.flatnonzero(got_bits != want_bits)
    if bad.size:
        pytest.fail(f"{bad.size} of {x.size} values differ from libm asinh, "
                    "e.g. " + ", ".join(f"{x[i]!r}: {got_bits[i]:#018x} != "
                                        f"{want_bits[i]:#018x}" for i in bad[:5]))


def _neighbours(centre, count):
    """The ``count`` doubles on each side of ``centre``, centre included,
    and their negatives."""
    bits = np.float64(centre).view(np.int64) + np.arange(-count, count + 1)
    values = bits.view(np.float64)
    return np.concatenate([values, -values])


@settings(max_examples=300)
@given(values=st.lists(st.floats(), min_size=1, max_size=24))
def test_asinh_matches_libm_on_any_floats(asinh_rows, values):
    _check_asinh(asinh_rows, values)


# glibc tests the high word ix = |x|'s upper 32 bits: x itself below 2^-28,
# log1p of its own argument up to ix = 0x40000000 (|x| < 2 + 2^-19), log of
# 2|x| + 1 / (sqrt(x^2 + 1) + |x|) up to ix = 0x41b00000 (|x| < 2^28 + 2^8),
# and log(|x|) + ln 2 above; comparing |x| with 2 and 2^28 misplaces the
# values between each bound and the next high word
BRANCH_EDGES = {
    "zeros": [0.0, -0.0],
    "subnormals": [5e-324, -5e-324, np.nextafter(2.2250738585072014e-308, 0.0),
                   -np.nextafter(2.2250738585072014e-308, 0.0)],
    "infinities-nans": [np.inf, -np.inf, np.nan, -np.nan],
    "near-2^-28": _neighbours(2.0 ** -28, 300),
    "near-2": _neighbours(2.0, 300),
    "near-2+2^-19": _neighbours(2.0 + 2.0 ** -19, 300),
    "near-2^28": _neighbours(2.0 ** 28, 300),
    "near-2^28+2^8": _neighbours(2.0 ** 28 + 2.0 ** 8, 300),
}


@pytest.mark.parametrize("values", BRANCH_EDGES.values(), ids=BRANCH_EDGES.keys())
def test_asinh_matches_libm_at_the_branch_edges(asinh_rows, values):
    _check_asinh(asinh_rows, values)


def test_asinh_matches_libm_on_raw_bit_patterns_and_the_log_branch(asinh_rows):
    rng = np.random.default_rng(17)
    _check_asinh(asinh_rows, _from_bits(rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)))
    # |x| from 2^-30 to 2^30: all three finite branches, most on the log one
    magnitudes = np.exp2(rng.uniform(-30.0, 30.0, size=100_000))
    _check_asinh(asinh_rows, magnitudes * rng.choice([-1.0, 1.0], size=magnitudes.size))
