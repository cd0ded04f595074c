"""The compiled side of the solver: build, cache and load the C library,
and bind its chunk loop, kernel average and CSV formatters.

The C sources ship inside the package: ``_chunk_loop.c`` (the solver's
chunk loop and kernel average), ``_format.c`` (the CSV formatters) and
``_pow10.h`` (the formatters' power-of-ten table, written by
``tools/_pow10_gen.py``, which does not ship).  The first run that can use
them compiles both sources with the system C compiler (``$CC``, else
``cc``), in one call, into one library in the user cache directory
(``$XDG_CACHE_HOME/cfphase``, else ``~/.cache/cfphase``), under a name
keyed by a hash of every source and header, the flags and the compiler,
and loads it with ctypes; a build keeps the ``KEEP`` latest libraries
there, itself included, and removes the older ones.  Later processes load
the cached library without compiling, and so do checkouts of other sources
that share the cache while their library is among the kept.
When there is no compiler, compilation fails, or the cache cannot be
written, ``chunk_loop()``, ``kernel_average``, ``format_rows`` and
``snapshot_rows`` raise ``Unavailable``, whose message says why: every run
needs the library, and nothing falls back to another engine.  ``sim`` loads
it before it dispatches a command, and exits with code 6 when it cannot.

This module holds the whole C ABI: ``Context`` mirrors the loop's
``struct cf_ctx``, ``_CompiledKernel`` fills one per run and calls the loop
(its docstring gives the kernel's interface), ``kernel_average`` calls
the loop's kernel average on its own, and ``format_rows`` and
``snapshot_rows`` call the formatters.  Contexts are per run, so concurrent
runs on several threads share only the loaded library.
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

from .estimates import ACC_SLOTS

_HERE = Path(__file__).parent
# compiled together into one library, in this order
SOURCES = (_HERE / "_chunk_loop.c", _HERE / "_format.c")
# included by the sources; hashed with them
HEADERS = (_HERE / "_pow10.h",)
# IEEE semantics are part of the contract: the loop's NaN checks compare a
# value with itself, and results must match the tests' numpy reference, so
# no -ffast-math and no contraction into fused multiply-adds.  Math
# functions need not set errno: no caller reads it, and no value changes,
# but without the flag gcc keeps every sqrt scalar behind an errno branch
# and cannot vectorize the step's square roots.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")

_lock = threading.Lock()

# mass of the raw bump exp(-1/(1-tau^2)) on (-1, 1), which scales every
# kernel average: a constant checked against the quadrature by the tests
# (the adaptive Simpson rule of ``tests/oracles.py`` at tol=1e-14 returns
# exactly this double)
BUMP_MASS = 0.4439938161680794


class _Record:
    """Outcome of the one build-or-load attempt made per process: the
    loaded library, or why there is none."""

    def __init__(self):
        self.tried = False
        self.lib: Optional[ctypes.CDLL] = None
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


def _loaded() -> ctypes.CDLL:
    """The library, with the types of its four exports set; built or
    loaded on first use.  Raises ``Unavailable`` when it cannot be had; the
    one attempt per process is remembered, so every later call raises the
    same."""
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
                    for fn, argtypes in (
                            (lib.cf_chunk_loop, [ctypes.POINTER(Context), _D, _L]),
                            (lib.cf_kernel_average, [_P, _P, _L, _L, _P, _L] + [_D] * 3
                             + [_L, _L] + [_P] * 3),
                            (lib.cf_format_rows, [_V, _L, _L, _V]),
                            (lib.cf_snapshot_rows, [_V] * 8 + [_D, _L, _L] + [_V] * 3)):
                        fn.restype, fn.argtypes = _L, argtypes
                    record.lib = lib
                except Unavailable as exc:
                    record.reason = str(exc)
                record.tried = True
    if record.reason is not None:
        raise Unavailable(record.reason)
    return record.lib


def chunk_loop() -> Callable:
    """The compiled chunk loop, ``loop(ctx, t, budget) -> steps``: at most
    ``budget`` steps of the run that the ``Context`` ``ctx`` describes,
    from t along its emission plan, recording its rows while the store has
    room.  Raises ``Unavailable`` as ``_loaded`` does."""
    return _loaded().cf_chunk_loop


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
    """Remove all but the ``KEEP`` latest libraries (by modification time)
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
_V = ctypes.c_void_p


class Context(ctypes.Structure):
    """The per-run inputs of the chunk loop (``struct cf_ctx`` in
    ``_chunk_loop.c``, field for field).  ``_CompiledKernel`` fills it and
    holds the arrays it points to."""

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
        raise ValueError(f"the compiled loops take C-contiguous float64 "
                         f"ndarrays of the shapes they read, writable where "
                         f"they write; expected shape {shape}")
    keep.append(arr)
    return arr.ctypes.data_as(_P)


def kernel_average(times, rows, kappa, centered, ts, t_end, samples):
    """``cf_kernel_average`` of the ``rows`` stored at ``times`` at each
    time of ``ts``, one row per time, for the centered or causal kernel of
    width ``kappa``; its caller checks the windows' coverage and
    ``samples``.  Raises ``Unavailable`` as ``_loaded`` does."""
    lib, keep = _loaded(), []
    (m, n), nt = rows.shape, ts.size
    out = np.empty((nt, n))
    lib.cf_kernel_average(
        _ptr(keep, times, (m,)), _ptr(keep, rows, (m, n)), m, n,
        _ptr(keep, ts, (nt,)), nt, t_end, kappa, BUMP_MASS, int(centered),
        samples, _ptr(keep, np.empty(samples), (samples,), True),
        _ptr(keep, np.empty(2 * m), (2 * m,), True), _ptr(keep, out, (nt, n), True))
    return out


# the causal history keeps states at least kappa / HISTORY_KEEP apart; the
# tests' numpy copy of the history takes it too
HISTORY_KEEP = 512


class _CompiledKernel:
    """The kernel behind ``solver._drive``: the fused chunk loop in C, with
    the run's ``Context`` filled once from the run's own objects (each
    array through ``_ptr``).

    ``advance(t, budget) -> (done, t, status)`` is one call of the loop.
    It takes at most ``budget`` forward-Euler steps from t along the run's
    emission plan, clamping a step to each stop, and returns the steps
    taken, the new time and the status: 0 t_end reached, 1 a non-finite
    state, 2 the budget or the store's room used up.  No other status
    exists: the causal history always covers the kernel window (see the
    loop's header).  At each planned emission the loop records a row into
    the emitter's store itself: t, the running monitor slots of
    ``estimates.ACC_SLOTS`` as they stand, the state and, in a run with a
    coupling field, that field.

    ``table`` is the coupling table ``(t0, dt, vals, means)`` of a table
    run, and ``seff`` the coupling field at t=0 with its mean ``seff_mean``,
    which the loop rewrites after every step.  A run with ``seff`` and no
    table couples through the causal average over a history that starts
    with the state at t=0; direct coupling has neither.  A source hook's
    ``compiled_form`` (the ``convergence.ManufacturedSolution`` whose
    source it is) gives the loop the sine mode, which it evaluates itself.
    The tests hold a numpy kernel with the same constructor and ``advance``
    as the reference for this one."""

    def __init__(self, S, emitter, stops, stride, params, config, op, corr,
                 react_coef, table, seff, seff_mean):
        n = op.grid.n_nodes
        self.arrays = []

        def ptr(arr, shape=(n,), writable=False):
            return _ptr(self.arrays, arr, shape, writable)

        dcoeffs = np.ascontiguousarray(params.potential.dcoeffs, dtype=float)
        ctx = self.ctx = Context(
            n=n, dx=op.grid.dx, kappa=params.kappa, c=params.c, nu=params.nu,
            alpha=op.alpha, beta=op.beta, inv_len=1.0 / op.length,
            ncoef=dcoeffs.size, react_coef=react_coef, safety=config.cfl_safety,
            dt_override=config.dt_override, seff_mean=seff_mean,
            n_stops=stops.size, stride=stride, t_end=params.t_end)
        ctx.S = ptr(S, writable=True)
        ctx.rhs_prev = ptr(np.zeros(n), writable=True)
        ctx.acc = ptr(emitter.acc.slots, (len(ACC_SLOTS),), True)
        ctx.sig_eps = ptr(np.ascontiguousarray(corr.sig_dot_eps))
        ctx.dcoeffs = ptr(dcoeffs, dcoeffs.shape)
        ctx.stops = ptr(stops, stops.shape)
        if seff is not None:
            ctx.seff = ptr(seff, writable=True)
        if table is not None:
            ctx.mode = 1
            ctx.tab_t0, ctx.tab_dt, vals, means = table
            ctx.n_tab = len(means)
            ctx.tab_vals = ptr(vals, (ctx.n_tab, n))
            ctx.tab_means = ptr(means, (ctx.n_tab,))
        elif seff is not None:
            # at most HISTORY_KEEP + 6 states are live (one before the
            # window, the rest a spacing apart within kappa + 4 spacings of
            # the last kept), so twice that always has room after the live
            # block moves to the front
            cap, samples = 2 * (HISTORY_KEEP + 8), config.mollify_samples
            self.hist_times = np.zeros(cap)
            rows = np.empty((cap, n))
            rows[0] = S
            ctx.mode, ctx.hist_cap, ctx.hist_hi = 2, cap, 1  # S kept at t=0
            ctx.hist_times = ptr(self.hist_times, (cap,), True)
            ctx.hist_rows = ptr(rows, (cap, n), True)
            ctx.hist_spacing = params.kappa / HISTORY_KEEP
            ctx.bump_mass, ctx.samples = BUMP_MASS, samples
            ctx.mol_w = ptr(np.empty(samples), (samples,), True)
            ctx.mol_coef = ptr(np.empty(2 * cap), (2 * cap,), True)
        form = None if config.source is None else config.source.compiled_form
        if form is not None:
            ctx.src, ctx.src_k, ctx.src_mean = 1, form.k, form.sin_mean
            ctx.src_sin, ctx.src_cos = (ptr(np.ascontiguousarray(row, dtype=float))
                                        for row in form.rows(op.grid))
        self.emitter, self.loop, self.bound = emitter, chunk_loop(), None

    def advance(self, t, budget):
        ctx, em = self.ctx, self.emitter
        if self.bound is not em.scalars:  # the first call, or the store grew
            rows, self.rows = len(em.scalars), []
            ctx.rec_scalars = _ptr(self.rows, em.scalars,
                                   (rows, 1 + len(ACC_SLOTS)), True)
            ctx.rec_S = _ptr(self.rows, em.states, (rows, ctx.n), True)
            if ctx.mode:  # a coupling field per row
                ctx.rec_seff = _ptr(self.rows, em.seffs, (rows, ctx.n), True)
            ctx.n_rows, ctx.row_cap, self.bound = em.count, rows, em.scalars
        done = self.loop(ctx, t, budget)
        em.count = ctx.n_rows
        return done, ctx.t, ctx.status


# output bytes per value: the longest ``repr`` of a double has 24
# characters, and a separator follows each
WIDTH = 25


def format_rows(matrix):
    """A memoryview of the rows of the float64 ``matrix`` as CSV text
    (``,`` between values, a newline after each row, every value byte for
    byte as ``repr`` writes it: the shortest string that reads back as the
    same double), formatted by one C call into a buffer of ``WIDTH`` bytes
    per value.  The buffer belongs to that call: concurrent writers share
    nothing.  Raises ``Unavailable`` as ``_loaded`` does."""
    lib = _loaded()
    values = np.ascontiguousarray(matrix, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] < 1:
        raise ValueError("the row formatter takes a matrix of at least one column")
    rows, cols = values.shape
    out = np.empty(values.size * WIDTH, np.uint8)
    n = lib.cf_format_rows(values.ctypes.data, rows, cols, out.ctypes.data)
    return memoryview(out)[:n]


def snapshot_rows(traj, spans):
    """For each ``(lo, hi)`` of ``spans``, a memoryview of the
    snapshots.csv rows of snapshots lo to hi - 1 of the run's trajectory
    ``traj``, which carries its ``displacement`` (u_star, w), assembled as
    ``elasticity.assemble_displacement`` does.  Each array is taken as a
    C-contiguous float64 array, as ``format_rows`` takes its matrices, and
    must have the trajectory's shape.  Each span is one C call into one
    buffer that the next span reuses, replaced only when a span needs more
    room; the text of x is formatted once.  Raises ``Unavailable`` as
    ``_loaded`` does."""
    lib = _loaded()
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
    x_text = np.empty(nodes * WIDTH, np.uint8)
    x_len = np.zeros(nodes, ctypes.c_long)  # zeros: the first call writes x's text
    out = np.empty(0, np.uint8)
    for lo, hi in spans:
        if not 0 <= lo < hi <= snaps:
            raise ValueError(f"snapshot span ({lo}, {hi}) is empty or "
                             f"outside the {snaps} snapshots")
        size = (hi - lo) * 7 * nodes * WIDTH
        if size > out.size:
            out = np.empty(size, np.uint8)
        row = 8 * lo * nodes  # byte offset of snapshot lo
        n = lib.cf_snapshot_rows(t + 8 * lo, x, ramp, s + row, f + row, tdot + row,
                                 direction, corr, grid.dx, hi - lo, nodes,
                                 x_text.ctypes.data, x_len.ctypes.data, out.ctypes.data)
        yield memoryview(out)[:n]
