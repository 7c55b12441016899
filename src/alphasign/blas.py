"""One BLAS thread for the battery's dense algebra.

A battery's matrix products are small: a T x K spline basis against the
T x N panel, and one T x T or N x N sign gram. A multi-threaded OpenBLAS
splits each product across the cores and keeps its helper threads
spinning between calls, so on a small machine every product waits for
the slowest core and the spinning competes with the single-threaded
NumPy work around it. `one_blas_thread` runs a block with OpenBLAS at one
thread and restores the previous count when the block exits.

NumPy has no call that sets its BLAS thread count, so the OpenBLAS it
loaded is found among the shared objects this process has mapped and
driven through ctypes, as threadpoolctl does. Where that library cannot
be found (another BLAS, or no /proc), nothing changes. The count is
process-wide: batteries run from several threads at once share it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np  # noqa: F401  (loads the BLAS the controls below look for)

# (get, set) thread-count entry points, under the names that OpenBLAS
# builds export: the scipy-openblas wheels NumPy ships with, then plain
# builds, each with and without the ILP64 suffix.
_ENTRY_POINTS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_controls():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _ENTRY_POINTS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS at one thread, then restore the count.

    Also usable as a decorator. A no-op where the library is not found.
    """
    controls = _openblas_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
