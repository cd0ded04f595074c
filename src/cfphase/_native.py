"""Build, cache and load the compiled chunk loop (``_chunk_loop.c``).

The C source ships inside the package.  The first run that can use it
compiles it with the system C compiler (``$CC``, else ``cc``) into the user
cache directory (``$XDG_CACHE_HOME/cfphase``, else ``~/.cache/cfphase``),
under a name keyed by a hash of the source, the flags and the compiler, and
loads it with ctypes; a build removes the libraries earlier sources or
compilers left there.  Later processes load the cached library without
compiling.  When there is no compiler, compilation fails, or the cache
cannot be written, ``chunk_loop()`` returns None and ``reason()`` says why;
the solver then runs its numpy engine.

A run fills one ``Context`` with ``context()`` (the arrays it writes, its
constants, and the data of its coupling mode: direct, a coupling table, or
causal mollification over a history buffer), which checks every array once;
each chunk is then ``loop(ctx, t, t_stop, budget)``.  Contexts are per run,
so concurrent runs on several threads share only the loaded library.
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

SOURCE = Path(__file__).with_name("_chunk_loop.c")
# IEEE semantics are part of the contract: the loop's NaN checks compare a
# value with itself, and results must match the numpy engine, so no
# -ffast-math and no contraction into fused multiply-adds.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_lock = threading.Lock()


class _Record:
    """Outcome of the one build-or-load attempt made per process."""

    def __init__(self):
        self.tried = False
        self.loop: Optional[Callable] = None
        self.reason: Optional[str] = None


_record = _Record()


def find_compiler() -> Optional[str]:
    """Absolute path of the C compiler (``$CC``, else ``cc``), or None."""
    return shutil.which(os.environ.get("CC") or "cc")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    return root / "cfphase"


def chunk_loop() -> Optional[Callable]:
    """The compiled chunk loop, built or loaded on first use; None when it
    is unavailable (see ``reason()``)."""
    record = _record
    if not record.tried:
        with _lock:
            if not record.tried:
                try:
                    record.loop = _ChunkLoop(_load_library())
                except _Unavailable as exc:
                    record.reason = str(exc)
                record.tried = True
    return record.loop


def reason() -> Optional[str]:
    """Why the compiled loop is unavailable, or None if it loaded (or has
    not been asked for yet)."""
    return _record.reason


class _Unavailable(Exception):
    pass


def _library_path(compiler: str) -> Path:
    try:
        # hashlib's built-in BLAKE2, imported directly: importing hashlib
        # itself loads OpenSSL, which adds about 3.5 MiB to every process
        from _blake2 import blake2b
    except ImportError:  # pragma: no cover - interpreters without _blake2
        from hashlib import blake2b

    real = os.path.realpath(compiler)
    st = os.stat(real)
    h = blake2b(SOURCE.read_bytes(), digest_size=16)
    for part in (*FLAGS, real, str(st.st_size), str(st.st_mtime_ns),
                 platform.machine()):
        h.update(b"\0" + part.encode())
    return _cache_dir() / f"chunk_loop-{h.hexdigest()}.so"


def _load_library() -> ctypes.CDLL:
    compiler = find_compiler()
    if compiler is None:
        raise _Unavailable(f"no C compiler found ({os.environ.get('CC') or 'cc'} "
                           "is not on PATH)")
    try:
        lib_path = _library_path(compiler)
    except (OSError, RuntimeError) as exc:  # RuntimeError: no home directory
        raise _Unavailable(f"cannot locate the C source, the compiler or the "
                           f"cache: {exc}") from None
    if not lib_path.exists():
        _compile(compiler, lib_path)
    try:
        return ctypes.CDLL(str(lib_path))
    except OSError as exc:
        raise _Unavailable(f"cannot load {lib_path}: {exc}") from None


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
        raise _Unavailable(f"cannot write the cache directory {lib_path.parent}: "
                           f"{exc}") from None
    try:
        try:
            proc = subprocess.run([compiler, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                                  capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.SubprocessError) as exc:
            raise _Unavailable(f"compiling with {compiler} failed: {exc}") from None
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout).strip().splitlines()
            raise _Unavailable(f"compiling with {compiler} failed (exit "
                               f"{proc.returncode}): {detail[-1] if detail else ''}")
        try:
            os.replace(tmp, lib_path)
        except OSError as exc:
            raise _Unavailable(f"cannot write {lib_path}: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _prune(lib_path)


def _prune(lib_path: Path):
    """Remove the libraries built from other sources or compilers; a new
    build supersedes them.  Temporary files of builds in flight are left
    alone, and a library another process has loaded stays mapped."""
    for old in lib_path.parent.glob("chunk_loop-*.so"):
        if old.name != lib_path.name:
            try:
                old.unlink()
            except OSError:  # already gone, or not ours to remove
                pass


_D = ctypes.c_double
_L = ctypes.c_long
_P = ctypes.POINTER(_D)


class Context(ctypes.Structure):
    """The per-run inputs of the chunk loop (``struct cf_ctx`` in
    ``_chunk_loop.c``, field for field).  Build it with ``context()``, which
    keeps the arrays it points to alive in ``arrays``."""

    _fields_ = [
        ("S", _P), ("rhs_prev", _P), ("dts_buf", _P), ("dts_cap", _L),
        ("acc", _P), ("n", _L), ("dx", _D), ("kappa", _D), ("c", _D),
        ("nu", _D), ("alpha", _D), ("beta", _D), ("inv_len", _D),
        ("sig_eps", _P), ("dcoeffs", _P), ("ncoef", _L), ("react_coef", _D),
        ("safety", _D), ("dt_override", _D), ("mode", _L),
        ("tab_t0", _D), ("tab_dt", _D), ("tab_vals", _P), ("n_tab", _L),
        ("tab_means", _P),
        ("src", _L), ("src_sin", _P), ("src_cos", _P), ("src_k", _D),
        ("src_mean", _D),
        ("hist_times", _P), ("hist_rows", _P), ("hist_cap", _L),
        ("hist_lo", _L), ("hist_hi", _L), ("hist_last", _D),
        ("hist_spacing", _D), ("bump_mass", _D), ("samples", _L),
        ("mol_w", _P), ("mol_coef", _P), ("seff", _P), ("seff_mean", _D),
        ("t", _D), ("status", _L),
    ]


def context(S, rhs_prev, dts_buf, acc, sig_eps, dcoeffs, *, dx, kappa, c, nu,
            alpha, beta, inv_len, react_coef, safety, dt_override,
            table=None, source=None, causal=None) -> Context:
    """Fill the chunk loop's context for one run, checking every array once.

    ``S``, ``rhs_prev``, ``dts_buf`` (one entry per step of a chunk) and
    ``acc`` (10 entries) are written by the loop.  The coupling is direct
    unless one of these is given:

    * ``table = (t0, dt, vals, means)``: mode 1, the tabulated field;
    * ``causal = (history, samples, bump_mass, seff, seff_mean)``: mode 2,
      causal mollification over a ``solver._CausalHistory`` whose arrays
      the loop then owns (it keeps ``lo``, ``hi`` and the last kept time in
      the context), with ``seff``/``seff_mean`` the average at the start.

    ``source = (sin_row, cos_row, k, mean)`` adds the sine-mode source.
    """
    if table is not None and causal is not None:
        raise ValueError("a run couples through a table or a causal average, not both")
    n, dts_cap, ncoef = np.size(S), np.size(dts_buf), np.size(dcoeffs)
    if np.ndim(S) != 1 or n < 2 or ncoef < 1:
        raise ValueError("the chunk loop needs a state of at least two nodes "
                         "and at least one potential coefficient")
    arrays = []

    def ptr(arr, shape, writable=False):
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
                and arr.flags.c_contiguous and arr.shape == shape
                and (arr.flags.writeable or not writable)):
            raise ValueError(f"chunk loop arrays must be C-contiguous float64 "
                             f"ndarrays of the run's shapes, writable where the "
                             f"loop writes; expected shape {shape}")
        arrays.append(arr)
        return arr.ctypes.data_as(_P)

    ctx = Context(n=n, dts_cap=dts_cap, ncoef=ncoef, dx=dx, kappa=kappa, c=c,
                  nu=nu, alpha=alpha, beta=beta, inv_len=inv_len,
                  react_coef=react_coef, safety=safety, dt_override=dt_override)
    ctx.S = ptr(S, (n,), True)
    ctx.rhs_prev = ptr(rhs_prev, (n,), True)
    ctx.dts_buf = ptr(dts_buf, (dts_cap,), True)
    ctx.acc = ptr(acc, (10,), True)
    ctx.sig_eps = ptr(sig_eps, (n,))
    ctx.dcoeffs = ptr(dcoeffs, (ncoef,))
    if table is not None:
        t0, dt, vals, means = table
        n_tab = np.shape(vals)[0]
        if n_tab < 2:
            raise ValueError("a coupling table needs at least two rows")
        ctx.mode = 1
        ctx.tab_t0, ctx.tab_dt = t0, dt
        ctx.tab_vals = ptr(vals, (n_tab, n))
        ctx.n_tab = n_tab
        ctx.tab_means = ptr(means, (n_tab,))
    if source is not None:
        sin_row, cos_row, ctx.src_k, ctx.src_mean = source
        ctx.src = 1
        ctx.src_sin = ptr(sin_row, (n,))
        ctx.src_cos = ptr(cos_row, (n,))
    if causal is not None:
        history, samples, bump_mass, seff, seff_mean = causal
        cap = history.capacity
        if samples < 1 or not 0 <= history.lo < history.hi <= cap:
            raise ValueError("the causal history needs a stored state and a sample")
        ctx.mode = 2
        ctx.hist_times = ptr(history.times, (cap,), True)
        ctx.hist_rows = ptr(history.rows, (cap, n), True)
        ctx.hist_cap, ctx.hist_lo, ctx.hist_hi = cap, history.lo, history.hi
        ctx.hist_last, ctx.hist_spacing = history.last_kept, history.spacing
        ctx.bump_mass, ctx.samples = bump_mass, samples
        ctx.mol_w = ptr(np.empty(samples), (samples,), True)
        ctx.mol_coef = ptr(np.empty(2 * cap), (2 * cap,), True)
        ctx.seff = ptr(seff, (n,), True)
        ctx.seff_mean = seff_mean
    ctx.arrays = arrays
    return ctx


class _ChunkLoop:
    """``loop(ctx, t, t_stop, budget) -> (done, t, status)``: at most
    ``budget`` steps of the run that ``ctx`` (see ``context()``) describes,
    from t towards t_stop."""

    def __init__(self, lib: ctypes.CDLL):
        size = lib.cf_context_size
        size.restype = _L
        if size() != ctypes.sizeof(Context):
            raise _Unavailable(f"the compiled context has {size()} bytes, "
                               f"Context {ctypes.sizeof(Context)}")
        fn = lib.cf_chunk_loop
        fn.restype = _L
        fn.argtypes = [ctypes.POINTER(Context), _D, _D, _L]
        self._fn = fn

    def __call__(self, ctx, t, t_stop, budget):
        done = self._fn(ctx, t, t_stop, budget)
        return done, ctx.t, ctx.status
