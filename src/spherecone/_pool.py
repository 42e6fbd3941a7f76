"""The one worker pool of the library's large passes.

A pass that splits into independent tasks (pricing replicates, the
strata formulas and draw batches) maps them over worker processes
started by fork, one per CPU the process may use; the pool ends with the
call.  Each task is a pure function of its index and results are
returned in task order, so they do not depend on the worker count.
Processes pay where threads did not: a pricing task makes some 200 short
numpy calls, which serialize on the interpreter lock across threads.

The task function reaches the workers through the pool's initializer,
which fork inherits rather than pickles, so closures over the caller's
state (and test monkeypatches) reach the workers as they are; only task
indices and results are pickled, so results should be small (lists of
floats).  A task's BLAS calls must stay below OpenBLAS's own threading
size (see wce._GEMM_SIZE), or its threads compete with the workers.

Pools do not nest: a pool call made inside a task (where the worker's
task function is set) runs its tasks serially in that task's process.
Where fork is unavailable, every pool call runs serially.
"""

from __future__ import annotations

import os

# the task function of a pool worker, set by its initializer; else None
_task_fn = None


def _worker_count():
    """Workers of a pool: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _init_worker(fn):
    """Make fn this worker's task function."""
    global _task_fn
    _task_fn = fn


def _run_task(i):
    return _task_fn(i)


def _pool_map(fn, n):
    """[fn(0), ..., fn(n - 1)], on forked worker processes that end with
    the call; serially in the calling process for one worker or task,
    inside a pool task, or where fork is unavailable.  The first
    exception raised by fn propagates, and the tasks not yet started are
    cancelled."""
    workers = min(_worker_count(), n)
    if workers <= 1 or _task_fn is not None:
        return [fn(i) for i in range(n)]
    # imported here, not with the package: they add 5-8 ms to every
    # start of the command
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(i) for i in range(n)]
    from concurrent.futures import ProcessPoolExecutor
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=fork,
                             initializer=_init_worker,
                             initargs=(fn,)) as ex:
        return list(ex.map(_run_task, range(n)))
