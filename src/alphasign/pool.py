"""The worker pool that replications, rolling windows and panel reads share.

Work runs on this process and on one pool of worker processes that the
module keeps between calls (see _map_in_order): the pool is forked on the
first call that needs one, reused by every later call of the same size,
and replaced when a call needs another size or the pool broke. A forked
child starts without it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .basis import _is_count
from .errors import ContractError


def _worker_count(workers: int | None) -> int:
    """The requested process count, defaulting to the core count; anything
    but an integer >= 1 raises ContractError."""
    if workers is None:
        workers = os.cpu_count() or 1
    if not _is_count(workers):
        raise ContractError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ContractError(f"workers must be >= 1, got {workers}")
    return workers


# The pool _map_in_order keeps between calls, as (size, executor), or None.
# _pool_lock guards it, since batteries may run from several threads.
_pool = None
_pool_lock = threading.Lock()
# Pools a forked child inherited from its parent. Their executors share
# pipes, locks and threads with the parent, so the child never uses them;
# it keeps them referenced so that not even their collection runs here.
_inherited_pools = []


def _forget_pool() -> None:
    """In a forked child: set the parent's pool aside unused and take a
    fresh lock, since the parent may have held its own across the fork."""
    global _pool, _pool_lock
    if _pool is not None:
        _inherited_pools.append(_pool)
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _kept_pool(size: int) -> ProcessPoolExecutor:
    """The kept pool of `size` workers, started on first use; a pool of
    another size is shut down first. Call with _pool_lock held."""
    global _pool
    if _pool is not None:
        kept_size, pool = _pool
        if kept_size == size:
            return pool
        _pool = None
        pool.shutdown()
    pool = ProcessPoolExecutor(max_workers=size)
    _pool = (size, pool)
    return pool


def _close_pool() -> None:
    """Shut down and forget the kept pool, if there is one."""
    global _pool
    with _pool_lock:
        kept, _pool = _pool, None
    if kept is not None:
        kept[1].shutdown()


def _map_in_order(fn, jobs: list, workers: int) -> list:
    """fn over jobs, results in job order, on n = min(workers, len(jobs))
    processes: this one alone when n is 1; else this process runs the
    first len(jobs) // n jobs itself while the kept pool of n - 1 processes
    runs the rest. An error a job raises reaches the caller either way, the
    first failing job's in job order.

    The pool outlives the call, so its workers are forked once and see
    module state as it was at the first pooled call of their size: fn must
    depend on its job alone, not on state set after that call. A pool that
    broke (a worker died) raises BrokenProcessPool for this call and is
    dropped, so the next call starts a fresh one."""
    n_workers = min(workers, len(jobs))
    if n_workers == 1:
        return list(map(fn, jobs))
    own = len(jobs) // n_workers
    chunk = max(1, (len(jobs) - own) // ((n_workers - 1) * 8))
    try:
        # Submitting under the lock keeps another thread from replacing the
        # pool between taking it and submitting to it.
        with _pool_lock:
            rest = _kept_pool(n_workers - 1).map(fn, jobs[own:], chunksize=chunk)
        return [fn(job) for job in jobs[:own]] + list(rest)
    except BrokenProcessPool:
        _close_pool()
        raise
