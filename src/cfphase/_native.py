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


_F64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_F64_OUT = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
_D = ctypes.c_double
_L = ctypes.c_long


class _ChunkLoop:
    """Callable with the argument list of the solver's chunk loop; checks
    array shapes before handing them to C and returns (done, t, status)."""

    def __init__(self, lib: ctypes.CDLL):
        fn = lib.cf_chunk_loop
        fn.restype = _L
        fn.argtypes = [_F64_OUT, _F64_OUT, _L, _D, _D, _D, _D, _D, _D, _D,
                       _F64, _F64, _L, _D, _D, _D, _D, _D, _L, _L, _D, _D,
                       _F64, _L, _F64, _L, _F64, _F64, _D, _D, _F64_OUT,
                       _F64_OUT, ctypes.POINTER(_D), ctypes.POINTER(_L)]
        self._fn = fn

    def __call__(self, S, rhs_prev, dx, kappa, c, nu, alpha, beta, inv_len,
                 sig_eps, dcoeffs, react_coef, safety, t, t_stop, dt_override,
                 max_chunk, mode, tab_t0, tab_dt, tab_vals, tab_means, src,
                 src_sin, src_cos, src_k, src_mean, dts_buf, acc):
        n = S.shape[0]
        n_tab = tab_vals.shape[0]
        if (S.ndim != 1 or n < 2 or rhs_prev.shape != (n,)
                or sig_eps.shape != (n,) or dcoeffs.ndim != 1 or dcoeffs.size < 1
                or tab_vals.shape != (n_tab, n) or n_tab < 2
                or tab_means.shape != (n_tab,) or src_sin.shape != (n,)
                or src_cos.shape != (n,) or dts_buf.size < max_chunk
                or acc.size < 10):
            raise ValueError("chunk loop arrays have inconsistent shapes")
        t_out = _D()
        status = _L()
        done = self._fn(S, rhs_prev, n, dx, kappa, c, nu, alpha, beta, inv_len,
                        sig_eps, dcoeffs, dcoeffs.size, react_coef, safety, t,
                        t_stop, dt_override, max_chunk, mode, tab_t0, tab_dt,
                        tab_vals, n_tab, tab_means, src, src_sin, src_cos,
                        src_k, src_mean, dts_buf, acc, ctypes.byref(t_out),
                        ctypes.byref(status))
        return done, t_out.value, status.value
