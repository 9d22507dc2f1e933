"""A scope that runs the process's OpenBLAS libraries on one thread.

The libraries are the ``*openblas*.so*`` files mapped in ``/proc/self/maps``,
each driven through the thread-count pair it exports:
``openblas_{get,set}_num_threads`` (a system OpenBLAS),
``scipy_openblas_{get,set}_num_threads`` (scipy's copy) or
``scipy_openblas_{get,set}_num_threads64_`` (numpy's copy).  They are looked
up once.  Where none is found or the file cannot be read (MKL, Accelerate,
non-Linux), the scope is a no-op; it never raises.

The count is process-wide: while a scope is open, the BLAS calls of every
other Python thread run on one thread too, which changes their speed and at
most the last bits of their results.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from fnmatch import fnmatch

_SYMBOLS = (("openblas_get_num_threads", "openblas_set_num_threads"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"))

_lock = threading.Lock()
_libraries: list | None = None   # [(get, set)] once looked up
_depth = 0                       # open scopes, across threads
_saved: list[int] = []           # the counts the first open scope found


def _find_libraries() -> list:
    """(get, set) ctypes functions of every OpenBLAS library loaded in the process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({field for field in (line.split()[-1] for line in fh)
                            if fnmatch(os.path.basename(field), "*openblas*.so*")})
        found = []
        for path in paths:
            lib = ctypes.CDLL(path)
            for get_name, set_name in _SYMBOLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    get, put = getattr(lib, get_name), getattr(lib, set_name)
                    get.restype, get.argtypes = ctypes.c_int, []
                    put.restype, put.argtypes = None, [ctypes.c_int]
                    found.append((get, put))
        return found
    except Exception:   # no /proc, an unloadable file: leave the counts alone
        return []


@contextmanager
def serial_blas():
    """Run the body with every loaded OpenBLAS library on one thread; usable
    as a decorator.  Scopes nest and overlap across threads: the first to open
    saves every count and sets 1, the last to close restores the saved counts,
    also when a body raises."""
    global _libraries, _depth, _saved
    with _lock:
        if _libraries is None:
            _libraries = _find_libraries()
        if _depth == 0:
            _saved = [get() for get, _ in _libraries]
            for _, put in _libraries:
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, put), count in zip(_libraries, _saved):
                    put(count)
