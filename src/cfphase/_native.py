"""Build, cache and load the compiled chunk loop and CSV formatters.

The C sources ship inside the package: ``_chunk_loop.c`` (the solver's
chunk loop), ``_format.c`` (the CSV formatters) and ``_pow10.h`` (the
formatters' power-of-ten table, written by ``tools/_pow10_gen.py``, which
does not ship).  The first run that can use them compiles both sources with
the system C compiler (``$CC``, else ``cc``), in one call, into one library
in the user cache directory (``$XDG_CACHE_HOME/cfphase``, else
``~/.cache/cfphase``), under a name keyed by a hash of every source and
header, the flags and the compiler, and loads it with ctypes; a build keeps
the ``KEEP`` newest libraries there, itself included, and removes the older
ones.  Later processes load the cached library without compiling, and so do
checkouts of other sources that share the cache while their library is
among the kept.
When there is no compiler, compilation fails, or the cache cannot be
written, ``chunk_loop()``, ``row_formatter()`` and ``snapshot_rows()``
raise ``Unavailable``,
whose message says why: every run needs the library, and nothing falls back
to another engine.  ``sim`` loads it before it dispatches a command, and
exits with code 6 when it cannot.

``_kernels._CompiledKernel`` fills one ``Context`` per run from the run's
own objects (the arrays it writes, its constants, the data of its coupling
mode, its emission plan and its row store), handing each array to C through
``_ptr``, which checks it.  Each chunk is then one call
of ``chunk_loop()``, ``loop(ctx, t, budget) -> steps``, which leaves the
new time and the status in ``ctx.t`` and ``ctx.status`` and records the
planned rows itself.  Contexts are per run, so concurrent runs on several
threads share only the loaded library.

``row_formatter()`` returns ``fmt(matrix)``, which turns a float64 matrix
into CSV rows in one C call, each value byte for byte as ``repr`` writes it
(the shortest string that reads back as the same double), into an output
buffer of its own; the CLI writes ``monitors.csv`` through it.
``snapshot_rows()`` returns ``rows(traj, spans)``, which writes the
``snapshots.csv`` rows of each span of whole snapshots of a run's trajectory
in one C call, reading the run's arrays and assembling the displacement as
``elasticity.assemble_displacement`` does, into one reused buffer; the text
of x is formatted once per file.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import threading
from pathlib import Path
from typing import Callable, Optional

import numpy as np

_HERE = Path(__file__).parent
# compiled together into one library, in this order
SOURCES = (_HERE / "_chunk_loop.c", _HERE / "_format.c")
# included by the sources; hashed with them
HEADERS = (_HERE / "_pow10.h",)
# IEEE semantics are part of the contract: the loop's NaN checks compare a
# value with itself, and results must match the tests' numpy reference, so
# no -ffast-math and no contraction into fused multiply-adds.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_lock = threading.Lock()


class _Record:
    """Outcome of the one build-or-load attempt made per process."""

    def __init__(self):
        self.tried = False
        self.loop: Optional[Callable] = None
        self.formatter: Optional[Callable] = None
        self.snapshots: Optional[Callable] = None
        self.reason: Optional[str] = None


_record = _Record()


def find_compiler() -> Optional[str]:
    """Absolute path of the C compiler (``$CC``, else ``cc``), or None."""
    return shutil.which(os.environ.get("CC") or "cc")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    return root / "cfphase"


class Unavailable(RuntimeError):
    """The compiled library cannot be built or loaded; the message says
    why."""


def _loaded() -> _Record:
    record = _record
    if not record.tried:
        with _lock:
            if not record.tried:
                try:
                    lib = _load_library()
                    size = lib.cf_context_size
                    size.restype = _L
                    if size() != ctypes.sizeof(Context):
                        raise Unavailable(f"the compiled context has {size()} bytes, "
                                          f"Context {ctypes.sizeof(Context)}")
                    record.loop = lib.cf_chunk_loop
                    record.loop.restype = _L
                    record.loop.argtypes = [ctypes.POINTER(Context), _D, _L]
                    record.formatter = _RowFormatter(lib)
                    record.snapshots = _SnapshotRows(lib)
                except Unavailable as exc:
                    record.reason = str(exc)
                record.tried = True
    if record.reason is not None:
        raise Unavailable(record.reason)
    return record


def chunk_loop() -> Callable:
    """The compiled chunk loop, ``loop(ctx, t, budget) -> steps``: at most
    ``budget`` steps of the run that the ``Context`` ``ctx`` describes,
    from t along its emission plan, recording its rows while the store has
    room.  Built or loaded on first use; raises ``Unavailable`` when the
    library cannot be had; the one attempt per process is remembered, so
    every later call raises the same."""
    return _loaded().loop


def row_formatter() -> Callable:
    """The compiled CSV row formatter, from the same library as the chunk
    loop; raises ``Unavailable`` as ``chunk_loop()`` does."""
    return _loaded().formatter


def snapshot_rows() -> Callable:
    """The compiled snapshots.csv pass, from the same library as the chunk
    loop; raises ``Unavailable`` as ``chunk_loop()`` does."""
    return _loaded().snapshots


def _library_path(compiler: str) -> Path:
    try:
        # hashlib's built-in BLAKE2, imported directly: importing hashlib
        # itself loads OpenSSL, which adds about 3.5 MiB to every process
        from _blake2 import blake2b
    except ImportError:  # pragma: no cover - interpreters without _blake2
        from hashlib import blake2b

    real = os.path.realpath(compiler)
    st = os.stat(real)
    h = blake2b(digest_size=16)
    for path in (*SOURCES, *HEADERS):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    for part in (*FLAGS, real, str(st.st_size), str(st.st_mtime_ns),
                 platform.machine()):
        h.update(b"\0" + part.encode())
    return _cache_dir() / f"chunk_loop-{h.hexdigest()}.so"


def _load_library() -> ctypes.CDLL:
    compiler = find_compiler()
    if compiler is None:
        raise Unavailable(f"no C compiler found ({os.environ.get('CC') or 'cc'} "
                          "is not on PATH)")
    try:
        lib_path = _library_path(compiler)
    except (OSError, RuntimeError) as exc:  # RuntimeError: no home directory
        raise Unavailable(f"cannot locate the C sources, the compiler or the "
                          f"cache: {exc}") from None
    if not lib_path.exists():
        _compile(compiler, lib_path)
    try:
        return ctypes.CDLL(str(lib_path))
    except OSError as exc:
        raise Unavailable(f"cannot load {lib_path}: {exc}") from None


def _compile(compiler: str, lib_path: Path):
    """Compile to a temporary name in the cache and move it into place, so
    no process ever loads a half-written library."""
    import subprocess
    import tempfile

    try:
        lib_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=lib_path.stem + ".", suffix=".tmp",
                                   dir=lib_path.parent)
        os.close(fd)
    except OSError as exc:
        raise Unavailable(f"cannot write the cache directory {lib_path.parent}: "
                          f"{exc}") from None
    try:
        try:
            proc = subprocess.run([compiler, *FLAGS, "-o", tmp,
                                   *map(str, SOURCES), "-lm"],
                                  capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.SubprocessError) as exc:
            raise Unavailable(f"compiling with {compiler} failed: {exc}") from None
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout).strip().splitlines()
            raise Unavailable(f"compiling with {compiler} failed (exit "
                              f"{proc.returncode}): {detail[-1] if detail else ''}")
        try:
            os.replace(tmp, lib_path)
        except OSError as exc:
            raise Unavailable(f"cannot write {lib_path}: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _prune(lib_path)


# cached libraries a build leaves in place, itself included: checkouts of
# other sources that share the cache keep theirs, and switching between them
# loads instead of compiling
KEEP = 4


def _prune(lib_path: Path):
    """Remove all but the ``KEEP`` newest libraries (by modification time)
    that earlier sources or compilers left in the cache; the one just built
    always stays.  Temporary files of builds in flight are left alone, and a
    library another process has loaded stays mapped."""
    others = [p for p in lib_path.parent.glob("chunk_loop-*.so")
              if p.name != lib_path.name]
    try:
        others.sort(key=lambda p: p.stat().st_mtime, reverse=True)
    except OSError:  # another build is pruning the cache right now
        return
    for old in others[KEEP - 1:]:
        try:
            old.unlink()
        except OSError:  # already gone, or not ours to remove
            pass


_D = ctypes.c_double
_L = ctypes.c_long
_P = ctypes.POINTER(_D)


class Context(ctypes.Structure):
    """The per-run inputs of the chunk loop (``struct cf_ctx`` in
    ``_chunk_loop.c``, field for field).  ``_kernels._CompiledKernel``
    fills it and holds the arrays it points to."""

    _fields_ = [
        ("S", _P), ("rhs_prev", _P), ("acc", _P), ("n", _L), ("dx", _D),
        ("kappa", _D), ("c", _D),
        ("nu", _D), ("alpha", _D), ("beta", _D), ("inv_len", _D),
        ("sig_eps", _P), ("dcoeffs", _P), ("ncoef", _L), ("react_coef", _D),
        ("safety", _D), ("dt_override", _D), ("mode", _L), ("seff", _P),
        ("seff_mean", _D), ("tab_t0", _D), ("tab_dt", _D), ("tab_vals", _P),
        ("n_tab", _L), ("tab_means", _P),
        ("src", _L), ("src_sin", _P), ("src_cos", _P), ("src_k", _D),
        ("src_mean", _D),
        ("hist_times", _P), ("hist_rows", _P), ("hist_cap", _L),
        ("hist_lo", _L), ("hist_hi", _L), ("hist_last", _D),
        ("hist_spacing", _D), ("bump_mass", _D), ("samples", _L),
        ("mol_w", _P), ("mol_coef", _P),
        ("stops", _P), ("n_stops", _L), ("next_stop", _L), ("stride", _L),
        ("steps", _L), ("t_end", _D), ("rec_scalars", _P), ("rec_S", _P),
        ("rec_seff", _P), ("n_rows", _L), ("row_cap", _L),
        ("t", _D), ("status", _L),
    ]


def _ptr(keep, arr, shape, writable=False):
    """A pointer to the data of ``arr``, which must be a C-contiguous
    float64 ndarray of ``shape`` (and writable if asked); ``arr`` is added
    to the list ``keep``, which holds it alive."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
            and arr.flags.c_contiguous and arr.shape == shape
            and (arr.flags.writeable or not writable)):
        raise ValueError(f"chunk loop arrays must be C-contiguous float64 "
                         f"ndarrays of the run's shapes, writable where the "
                         f"loop writes; expected shape {shape}")
    keep.append(arr)
    return arr.ctypes.data_as(_P)


class _RowFormatter:
    """``fmt(matrix)``: a memoryview of the rows of the float64 ``matrix``
    as CSV text (``,`` between values, a newline after each row, every value
    as ``repr`` writes it), formatted by one C call into a buffer of
    ``WIDTH`` bytes per value (the longest ``repr`` of a double has 24
    characters).  The buffer belongs to that call: concurrent writers share
    nothing."""

    WIDTH = 25

    def __init__(self, lib: ctypes.CDLL):
        fn = lib.cf_format_rows
        fn.restype = _L
        fn.argtypes = [ctypes.c_void_p, _L, _L, ctypes.c_void_p]
        self._fn = fn

    def __call__(self, matrix):
        values = np.ascontiguousarray(matrix, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError("the row formatter takes a matrix of at least one column")
        rows, cols = values.shape
        out = np.empty(values.size * self.WIDTH, np.uint8)
        n = self._fn(values.ctypes.data, rows, cols, out.ctypes.data)
        return memoryview(out)[:n]


class _SnapshotRows:
    """``rows(traj, spans)``: for each ``(lo, hi)`` of ``spans``, a
    memoryview of the snapshots.csv rows of snapshots lo to hi - 1 of the
    run's trajectory ``traj``, which carries its ``displacement`` (u_star,
    w).  Each array is taken as a C-contiguous float64 array, as
    ``_RowFormatter`` takes its matrices, and must have the trajectory's
    shape.  Each span is one C call into one buffer that the next span
    reuses, replaced only when a span needs more room."""

    def __init__(self, lib: ctypes.CDLL):
        fn = lib.cf_snapshot_rows
        fn.restype = _L
        fn.argtypes = [ctypes.c_void_p] * 8 + [_D, _L, _L] + [ctypes.c_void_p] * 3
        self._fn = fn

    def __call__(self, traj, spans):
        if traj.displacement is None:
            raise ValueError("the trajectory carries no displacement (u_star, w)")
        grid, (u_star, w) = traj.grid, traj.displacement
        snaps, nodes = traj.values.shape
        seff = traj.values if traj.s_eff is None else traj.s_eff
        ramp = (grid.x - grid.a) / (grid.d - grid.a)
        arrays = [np.ascontiguousarray(a, dtype=np.float64) for a in (
            traj.times, grid.x, ramp, traj.values, seff, traj.tdot_eps, u_star, w)]
        if [a.shape for a in arrays] != [(snaps,), (nodes,), (nodes,)] + [
                (snaps, nodes)] * 3 + [(3,), (nodes, 3)]:
            raise ValueError("the snapshot rows need the trajectory's shapes")
        t, x, ramp, s, f, tdot, direction, corr = (a.ctypes.data for a in arrays)
        x_text = np.empty(nodes * _RowFormatter.WIDTH, np.uint8)
        x_len = np.zeros(nodes, ctypes.c_long)  # zeros: the first call writes x's text
        out = np.empty(0, np.uint8)
        for lo, hi in spans:
            if not 0 <= lo < hi <= snaps:
                raise ValueError(f"snapshot span ({lo}, {hi}) is empty or "
                                 f"outside the {snaps} snapshots")
            size = (hi - lo) * 7 * nodes * _RowFormatter.WIDTH
            if size > out.size:
                out = np.empty(size, np.uint8)
            row = 8 * lo * nodes  # byte offset of snapshot lo
            n = self._fn(t + 8 * lo, x, ramp, s + row, f + row, tdot + row, direction,
                         corr, grid.dx, hi - lo, nodes, x_text.ctypes.data,
                         x_len.ctypes.data, out.ctypes.data)
            yield memoryview(out)[:n]
