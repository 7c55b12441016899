"""The worker pool that replications, rolling windows and panel reads share,
and the helper thread a large battery shares its work with.

Work runs on this process and on one pool of worker processes that the
module keeps between calls (see _map_in_order): the pool is forked on the
first call that needs one, reused by every later call of the same size,
and replaced when a call needs another size or the pool broke. A forked
child starts without it.

A battery outside those jobs runs in one process, whose second core
would sit idle. On a large panel it hands work, twice, to a helper thread
that the module keeps as well (see _both): half of the knot search's
candidates, and the T x T residual gram while this thread runs the
spatial median. Both threads call BLAS at the one thread the battery set
(`alphasign.blas`), so each product gets the inputs and the code it gets
in one thread, and every bit is the same. A forked child starts without
the helper too.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import ContractError, _is_count


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
# The helper thread _both hands work to, as an executor of one thread, or
# None until first used; _helper_lock guards it. A battery has two pieces
# to hand over, one at a time, so one thread serves; each thread keeps a
# malloc arena of its own, which holds about 2 MB at N = 1000, T = 600.
_helper = None
_helper_lock = threading.Lock()
# Executors a forked child inherited from its parent: the pool, whose
# executor shares pipes, locks and threads with the parent, and the helper,
# whose thread does not exist in the child (work submitted to it would
# never run). The child never uses them; it keeps them referenced so that
# not even their collection runs here.
_inherited_pools = []

# Panel cells (T x N) from which a battery shares its work with the helper
# thread, at the measured crossover. One BLAS thread, 2-vCPU VM, median ms
# of 101 batteries at knots "auto", five alternating process pairs, alone
# -> with the helper: N = 200, T = 350 (70,000 cells) 5.47 -> 5.30, no
# clear gain, as handing work over costs about what it saves there;
# N = 300, T = 350 (105,000) 7.67 -> 6.33; N = 1000, T = 600 about 41 -> 29.
_MIN_HELPER_CELLS = 100_000

# Whether this thread is running a job of _map_in_order (`active`): such a
# job leaves the helper alone, whichever process runs it.
_jobs = threading.local()


def _forget_pool() -> None:
    """In a forked child: set the parent's pool and helper aside unused and
    take fresh locks, since the parent may have held its own across the
    fork."""
    global _pool, _pool_lock, _helper, _helper_lock
    _inherited_pools.extend(kept for kept in (_helper, _pool) if kept is not None)
    _pool, _pool_lock = None, threading.Lock()
    _helper, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _helper_for(cells: int) -> ThreadPoolExecutor | None:
    """The kept helper thread, started on first use, for work on a panel of
    `cells` cells; None, so that the work stays on this thread, below
    _MIN_HELPER_CELLS and in a job of _map_in_order. Such jobs already keep
    every core busy, or run in one process on request (workers=1)."""
    global _helper
    if cells < _MIN_HELPER_CELLS or getattr(_jobs, "active", False):
        return None
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="alphasign-helper")
        return _helper


def _both(first, second, cells: int):
    """(first(), second()) for two independent calls on a panel of `cells`
    cells: first on the kept helper thread while this thread runs second
    (`_helper_for`), else one after the other. Either way an error is the
    one that serial order raises first, first's when both fail, and the
    call returns only once first has finished, so both run inside any
    block the caller holds (such as `blas.one_blas_thread`). first must
    not call _both itself: it would wait for the thread it runs on."""
    helper = _helper_for(cells)
    if helper is None:
        return first(), second()
    pending = helper.submit(first)
    try:
        b = second()
    finally:
        a = pending.result()
    return a, b


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


def _run_job(fn, job):
    """fn(job) as a job of _map_in_order, which leaves the helper alone."""
    outer = getattr(_jobs, "active", False)
    _jobs.active = True
    try:
        return fn(job)
    finally:
        _jobs.active = outer


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
    dropped, so the next call starts a fresh one.

    No job gives work to the helper thread (`_both`), in this process or in
    a worker, at any worker count."""
    fn = functools.partial(_run_job, fn)
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
