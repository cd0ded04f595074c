"""The compiled CSV row formatter against Python's repr, the input checks
of the compiled snapshots.csv pass, and the build of the library that holds
them: packaged sources, the cache key and the generated power-of-ten
table."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cfphase as cf
from cfphase import _native

from oracles import repr_rows, snapshot_rows

ROOT = Path(__file__).resolve().parents[1]


def _format(*matrices):
    """The compiled formatter's text of ``matrices``, one call each."""
    return b"".join(bytes(_native.format_rows(matrix)) for matrix in matrices)


def _check(values, cols=1):
    matrix = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    got = _format(matrix).decode("ascii")
    want = repr_rows(matrix)
    if got != want:
        pairs = zip(want.replace("\n", ",").split(","),
                    got.replace("\n", ",").split(","))
        bad = [(w, g) for w, g in pairs if w != g]
        pytest.fail(f"{len(bad)} values differ from repr, e.g. (repr, C) {bad[:5]}")


def _from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=300)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=24))
def test_formatter_matches_repr_on_raw_bit_patterns(bits):
    _check(_from_bits(bits))


def test_formatter_matches_repr_in_bulk():
    rng = np.random.default_rng(7)
    _check(_from_bits(rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64)), cols=8)
    _check(rng.standard_normal(200_000), cols=5)


SMALLEST_NORMAL = 2.2250738585072014e-308
LARGEST = 1.7976931348623157e308


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 5e-324, -5e-324, 1.5e-323, SMALLEST_NORMAL, LARGEST, -LARGEST],
    # repr writes every NaN as nan, without its sign
    [np.inf, -np.inf, np.nan, -np.nan, _from_bits([0x7ff0000000000001])[0],
     _from_bits([0xfff8000000000123])[0]],
    [1e-5, 1e-4, 1e15, 1e16, 1e22, 1e23, 0.1, 0.3, 2 / 3],
    [float(f"1e{e}") for e in range(-320, 309)],
    # repr switches to scientific form outside decimal exponents -4..15
    [0.00012345, 0.000012345, 123456789012345.6, 1234567890123456.8,
     12345678901234568.0, -9.999999999999999e-05, 9999999999999998.0],
    # the smallest subnormals, and both neighbours of every power of two
    [5e-324 * t for t in range(1, 40)],
    list(np.ldexp(1.0, np.arange(-1074, 1024))),
    list(np.nextafter(np.ldexp(1.0, np.arange(-1074, 1024)), 0.0)),
    list(np.nextafter(np.ldexp(1.0, np.arange(-1074, 1023)), np.inf)),
    # a quarter ulp: two shortest candidates at the same distance, and
    # repr takes the even one (....2 and ....8)
    [2.0 ** 50 + 0.25 * i for i in range(1, 4000, 2)],
], ids=["zeros-extremes", "inf-nan", "decades", "powers-of-ten",
        "layout-switch", "subnormals", "powers-of-two", "below-powers-of-two",
        "above-powers-of-two", "ties"])
def test_formatter_matches_repr_on_fixed_cases(values):
    _check(values)


def test_formatter_buffer_fits_the_longest_values():
    # every value of this matrix has the longest repr, 24 characters
    longest = -1.2345678901234567e-300
    assert len(repr(longest)) == 24
    matrix = np.full((50, 3), longest)
    out = _format(matrix)
    assert len(out) == 50 * 3 * 25
    assert out == repr_rows(matrix).encode()


# A value with the bits of the value above it takes a copy of its text;
# these cases check that only equal bits do, and only from the right text.
REPEATS = {
    # t, x, S, u1, u2, u3, T:epsbar as in snapshots.csv: t, u2, u3 and the
    # stress repeat down the column, x and S do not
    "snapshot-columns": np.column_stack([
        np.full(9, 0.0009765625), np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 1.0, 9) ** 3,
        np.sin(np.arange(9.0)), np.zeros(9), np.zeros(9), np.full(9, -1.8)]),
    # equal under ==, but -0.0 and 0.0 have their own text
    "signed-zeros": np.array([[-0.0, 0.0], [0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]]),
    # two NaN payloads, each repr'd as nan, then values after them
    "nan-payloads": _from_bits([[0x7ff8000000000000, 0x7ff8000000000000],
                                [0xfff8000000000123, 0x7ff8000000000000],
                                [0x7ff0000000000001, 0x3ff0000000000000],
                                [0x3ff0000000000000, 0x3ff0000000000000]]),
    # texts of many lengths side by side, each row twice, then reordered
    "lengths": np.array([[1.0, -1.2345678901234567e-300, 0.1, 1e22, 5e-324]] * 2
                        + [[0.1, 1.0, 5e-324, -1.2345678901234567e-300, 1e22]] * 2),
    # more columns than the formatter keeps texts for
    "wide": np.tile(np.arange(1.0, 41.0) / 7.0, (4, 1)),
}


@pytest.mark.parametrize("matrix", REPEATS.values(), ids=REPEATS.keys())
def test_formatter_matches_repr_on_repeated_values(matrix):
    _check(matrix.ravel(), cols=matrix.shape[1])


def test_formatter_matches_repr_on_a_repeat_across_blocks():
    # the first row of a call repeats the last row of the call before,
    # whose text the new call's buffer does not hold
    rows = np.array([[0.25, 1.0 / 3.0, -2.5e-7], [0.25, 2.0 / 3.0, -2.5e-7],
                     [0.25, 2.0 / 3.0, 7.0]])
    blocks = [rows[:2], rows[1:2], rows[1:], rows[2:]]
    assert _format(*blocks) == repr_rows(np.vstack(blocks)).encode()


def test_formatter_rejects_a_matrix_without_columns():
    with pytest.raises(ValueError):
        _format(np.empty((3, 0)))
    assert _format(np.empty((0, 4))) == b""


# ---------------------------------------------------------------------------
# the snapshots.csv pass
# ---------------------------------------------------------------------------

def _trajectory(snaps=5, n=6, seed=11):
    rng = np.random.default_rng(seed)
    grid = cf.Grid(-0.5, 2.0, n)
    values = rng.standard_normal((snaps, grid.n_nodes))
    return cf.Trajectory(grid, np.arange(snaps) / 8.0, values,
                         tdot_eps=rng.standard_normal(values.shape),
                         s_eff=rng.standard_normal(values.shape),
                         displacement=(rng.standard_normal(3),
                                       rng.standard_normal((grid.n_nodes, 3))))


def _rows(traj, spans):
    return [bytes(text) for text in _native.snapshot_rows(traj, spans)]


def test_snapshot_pass_matches_numpy_on_any_spans():
    # spans of one, two and all remaining snapshots, so the text of x is
    # written by the first call and copied by the others
    traj = _trajectory()
    spans = [(0, 1), (1, 3), (3, 5)]
    assert _rows(traj, spans) == list(snapshot_rows(traj, spans))
    assert _rows(traj, [(2, 3), (0, 5)]) == list(snapshot_rows(traj, [(2, 3), (0, 5)]))


def test_snapshot_pass_reuses_one_buffer_across_spans():
    traj = _trajectory(snaps=6)
    spans = [(0, 2), (2, 4), (4, 5), (5, 6)]
    buffers = [text.obj for text in _native.snapshot_rows(traj, spans)]
    assert [a is b for a, b in zip(buffers, buffers[1:])] == [True, True, True]


def test_snapshot_pass_takes_any_layout_and_float_dtype():
    # as the row formatter does, the pass takes each array as a C-contiguous
    # float64 copy when it is not one
    traj = _trajectory()
    want = _rows(traj, [(0, 5)])
    u_star, w = traj.displacement
    traj.values = np.asfortranarray(traj.values)
    traj.s_eff = traj.s_eff.tolist()
    traj.tdot_eps = np.repeat(traj.tdot_eps, 2, axis=1)[:, ::2]
    traj.displacement = (u_star.tolist(), np.asfortranarray(w))
    assert not traj.tdot_eps.flags.c_contiguous
    assert _rows(traj, [(0, 5)]) == want
    narrow = _trajectory()
    narrow.values = narrow.values.astype(np.float32)
    assert _rows(narrow, [(0, 5)]) == list(snapshot_rows(narrow, [(0, 5)]))


@pytest.mark.parametrize("field, value", [
    ("displacement", None),
    ("displacement", (np.ones(2), np.ones((7, 3)))),
    ("displacement", (np.ones(3), np.ones((7, 2)))),
    ("displacement", (np.ones(3), np.ones((6, 3)))),
    ("tdot_eps", None),
    ("tdot_eps", np.ones((5, 6))),
    ("s_eff", np.ones((4, 7))),
    ("times", np.arange(4.0)),
])
def test_snapshot_pass_rejects_arrays_of_other_shapes(field, value):
    traj = _trajectory()
    setattr(traj, field, value)
    with pytest.raises(ValueError):
        _rows(traj, [(0, 5)])


@pytest.mark.parametrize("span", [(0, 0), (3, 2), (-1, 2), (4, 6)])
def test_snapshot_pass_rejects_spans_outside_the_snapshots(span):
    with pytest.raises(ValueError, match="span"):
        _rows(_trajectory(), [(0, 1), span])


# ---------------------------------------------------------------------------
# build tooling
# ---------------------------------------------------------------------------

def _compiled_files():
    return [*_native.SOURCES, *_native.HEADERS]


def test_package_data_lists_every_compiled_or_hashed_file():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    packaged = set(pyproject["tool"]["setuptools"]["package-data"]["cfphase"])
    names = {path.name for path in _compiled_files()}
    assert names <= packaged, names - packaged
    # every header a source includes is hashed, and so packaged
    for source in _native.SOURCES:
        included = re.findall(r'#include "([^"]+)"', source.read_text(encoding="utf-8"))
        assert set(included) <= {h.name for h in _native.HEADERS}, source.name


def test_editing_any_compiled_file_changes_the_library_path(monkeypatch, tmp_path):
    copies = []
    for path in _compiled_files():
        copies.append(tmp_path / path.name)
        shutil.copyfile(path, copies[-1])
    n_sources = len(_native.SOURCES)
    monkeypatch.setattr(_native, "SOURCES", tuple(copies[:n_sources]))
    monkeypatch.setattr(_native, "HEADERS", tuple(copies[n_sources:]))
    compiler = sys.executable  # the path only stats the compiler's file
    base = _native._library_path(compiler)
    for copy in copies:
        text = copy.read_bytes()
        copy.write_bytes(text + b"\n")
        assert _native._library_path(compiler) != base, copy.name
        copy.write_bytes(text)
    assert _native._library_path(compiler) == base


def test_c_sources_compile_without_warnings(tmp_path):
    # the bit manipulation in the sources (the 4/3-power pass, whose two
    # SSE2 lanes are the one cbrt port, and the formatter's digit
    # arithmetic and text reuse) stays clear of aliasing and sign-compare
    # slips; built as the library is, so the optimizer's checks
    # (uninitialized reads, array bounds) run too
    proc = subprocess.run([_native.find_compiler(), *_native.FLAGS, "-Wall",
                           "-Wextra", "-Werror", "-o", str(tmp_path / "lib.so"),
                           *map(str, _native.SOURCES), "-lm"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_power_of_ten_table_regenerates_byte_for_byte():
    # the generator lives in tools/ and writes the header the package ships
    spec = importlib.util.spec_from_file_location("_pow10_gen",
                                                  ROOT / "tools" / "_pow10_gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.HEADER == _native.HEADERS[0].resolve()
    assert gen.render().encode() == gen.HEADER.read_bytes()
