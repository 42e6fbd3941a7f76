"""The one worker pool of the library's large passes.

A pass that splits into independent tasks (pricing replicates, the
strata draw batches) maps them over a thread pool with one thread per
CPU the process may use; the pool ends with the call.  Each task is a
pure function of its index and results are returned in task order, so
they do not depend on the thread count.  The threads pay where a task's
work is numpy, scipy and BLAS calls large enough to release the
interpreter lock for most of their time; a task's BLAS calls must stay
below OpenBLAS's own threading size (see wce._GEMM_SIZE), or its
threads compete with the pool's.

Pools do not nest: each task runs in a copy of the caller's context
with a flag set, and a pool call made inside a task runs its tasks
serially on that task's thread.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor

# set inside the pool's tasks, each in its own copy of the caller's context
_IN_TASK = contextvars.ContextVar("spherecone_in_pool_task", default=False)


def _worker_count():
    """Threads of a pool: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_task(ctx, fn, i):
    """fn(i) in ctx, a copy of the pool caller's context, flagged."""
    ctx.run(_IN_TASK.set, True)
    return ctx.run(fn, i)


def _pool_map(fn, n):
    """[fn(0), ..., fn(n - 1)], on a thread pool that ends with the call;
    serially on the calling thread for one worker or task, or inside a
    pool task.  The first exception raised by fn propagates, and the
    tasks not yet started are cancelled."""
    workers = min(_worker_count(), n)
    if workers <= 1 or _IN_TASK.get():
        return [fn(i) for i in range(n)]
    contexts = [contextvars.copy_context() for _ in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(_run_task, contexts, [fn] * n, range(n)))
