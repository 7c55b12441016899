"""Process-wide settings for the battery's dense algebra: one BLAS thread,
and a heap that keeps its pages between batteries.

A battery's matrix products are small: a T x K spline basis against the
T x N panel, and one T x T or N x N sign gram. A multi-threaded OpenBLAS
splits each product across the cores and keeps its helper threads
spinning between calls, so on a small machine every product waits for
the slowest core and the spinning competes with the single-threaded
NumPy work around it. `one_blas_thread` runs a block with OpenBLAS at one
thread and restores the previous count when the block exits.

A battery uses a second core in whole pieces of work instead. The
replications, windows and file blocks of `pool._map_in_order` run on
several processes. A battery outside those jobs, on a panel of at least
`pool._MIN_HELPER_CELLS` cells, hands half of its knot candidates and its
T x T residual gram to one kept helper thread (`pool._both`), whose BLAS
calls run at the one thread the battery set, so every product gets the
code and the inputs it gets in one thread, bit for bit. The battery
waits for the helper before its block exits. At N = 1000, T = 600 the
battery takes about 29 ms instead of 41 (2-vCPU VM), and the helper's
malloc arena adds about 1.8 MB to the peak resident set.

NumPy has no call that sets its BLAS thread count, so the OpenBLAS it
loaded is found among the shared objects this process has mapped and
driven through ctypes, as threadpoolctl does. Where that library cannot
be found (another BLAS, or no /proc), nothing changes. The count is
process-wide: batteries run from several threads at once share it.

A battery allocates and frees arrays of 0.5-5 MB (T x N and T x T), and
a rolling run or a Monte Carlo cell runs thousands of batteries. glibc's
malloc raises its mmap threshold to fit such arrays, but keeps its trim
threshold at twice that, so after each battery it returns the freed top
of the heap to the kernel and the next battery faults every page back
in: about 600 minor faults per battery at N = 200, T = 350. At import
this module sets glibc's thresholds once, through `mallopt`: arrays up
to 32 MiB (glibc's own 64-bit ceiling for its dynamic threshold) come
from the heap, and the heap is trimmed only when 64 MiB (twice that)
lie free at its top. A process then keeps up to its peak heap between
batteries, and a forked worker inherits the setting. Where `mallopt`
cannot be found or refuses a value (another C library, or a preloaded
allocator), nothing changes. No arithmetic depends on it.

Threads keep glibc's arenas of their own. With one shared arena
(M_ARENA_MAX = 1) the pool's result and queue threads allocate in the
main heap at moments that differ from run to run; as that heap is no
longer trimmed, where their chunks land fixes where a battery's arrays
lie for the rest of the process, and each process ran at a speed of its
own.
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


# mallopt parameters (glibc's malloc.h) and the values set at import.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_POLICY = (
    (_M_MMAP_THRESHOLD, 32 * 2**20),
    (_M_TRIM_THRESHOLD, 64 * 2**20),
)


def _mallopt():
    """The C library's mallopt(param, value), or None where it has none."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return fn


def _set_heap_policy() -> bool:
    """Apply _HEAP_POLICY through mallopt, trying every value; whether
    every value was taken."""
    mallopt = _mallopt()
    if mallopt is None:
        return False
    return all([mallopt(param, value) == 1 for param, value in _HEAP_POLICY])


_heap_policy_set = _set_heap_policy()


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
