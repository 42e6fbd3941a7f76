"""The one worker pool of the library's large passes.

A pass that splits into independent tasks (pricing replicates, the
strata formulas and draw batches) maps them over worker processes
started by `os.fork`, one per CPU the process may use; the pool ends
with the call.  Each task is a pure function of its index and results
are returned in task order, so they do not depend on the worker count.
Processes pay where threads did not: a pricing task makes some 200 short
numpy calls, which serialize on the interpreter lock across threads.

The workers are bare forks of the caller, so the task function reaches
them as it is, closures over the caller's state (and test monkeypatches)
included; nothing of it is pickled.  The caller writes the task indices
to one pipe that all workers read, each taking the next free index, so
an idle worker keeps picking up work.  A worker pickles all of its
(index, result) pairs in one message on a pipe of its own and leaves
with `os._exit`, so tasks should return small results (floats, lists
or arrays).  A task's BLAS calls must stay below OpenBLAS's own
threading size, or its threads compete with the workers: wce._GEMM_SIZE
bounds each gemm of the kernel sums, one set of a stacked matmul.

A task that raises stops every task above its index from starting: the
workers share, in an anonymous shared map, the lowest failed index of
each.  So every task below the first failure runs, and the exception the
call raises is the one a serial run raises first.  A worker that ends
without sending its results raises WorkerError.  No worker outlives the
call: the caller reaps each one, and kills them first if it is
interrupted.

Pools do not nest: a pool call made inside a task runs its tasks
serially in that task's process.  Where os.fork is unavailable, every
pool call runs serially.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import sys
from array import array
from select import PIPE_BUF

from .errors import WorkerError

# True in a pool worker, where a pool call runs serially
_in_task = False


def _worker_count():
    """Workers of a pool: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_map(fn, n):
    """[fn(0), ..., fn(n - 1)], on forked worker processes that end with
    the call; serially in the calling process for one worker or task,
    inside a pool task, or where os.fork is unavailable.  The first
    exception raised by fn, in task order, propagates, and the tasks
    above it that have not started do not start."""
    workers = min(_worker_count(), n)
    if workers <= 1 or _in_task or not hasattr(os, "fork"):
        return [fn(i) for i in range(n)]
    # failed[w]: the lowest index of a task that raised in worker w, or n
    failed = memoryview(mmap.mmap(-1, 8 * workers)).cast("q")
    for slot in range(workers):
        failed[slot] = n
    tasks_r, tasks_w = os.pipe()
    out_w = None
    parent, pids, outs = os.getpid(), [], []
    # a worker inherits the caller's buffered output; flushed, so that
    # no worker holds a copy
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    try:
        for slot in range(workers):
            out_r, out_w = os.pipe()
            outs.append(out_r)
            pid = os.fork()
            if pid == 0:
                os.close(tasks_w)
                _work(fn, n, tasks_r, out_w, failed, slot)
            pids.append(pid)
            os.close(out_w)
            out_w = None
        os.close(tasks_r)
        tasks_r = None
        _send_indices(tasks_w, n)
        os.close(tasks_w)
        tasks_w = None
        messages = [_read_all(fd) for fd in outs]
        statuses = []
        while pids:  # each pid leaves the list as it is reaped
            statuses.append(os.waitstatus_to_exitcode(
                os.waitpid(pids[0], 0)[1]))
            pids.pop(0)
    finally:
        if os.getpid() != parent:  # a worker that got here by an error
            os._exit(1)
        for fd in [tasks_r, tasks_w, out_w, *outs]:
            if fd is not None:
                os.close(fd)
        for pid in pids:  # interrupted: end the workers left
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped already
    return _collect(messages, statuses, n)


def _work(fn, n, tasks_r, out_w, failed, slot):
    """A worker's life: run the tasks it takes from tasks_r, send its
    results to out_w and exit; it never returns."""
    global _in_task
    _in_task = True
    code = 1
    try:
        done, failure = [], None
        while data := os.read(tasks_r, 4):
            i = int.from_bytes(data, sys.byteorder)
            if i > min(failed):
                continue  # a task below it failed
            try:
                done.append((i, fn(i)))
            except Exception as exc:  # the caller raises it, in task order
                failure = (i, exc)
                failed[slot] = i
        try:
            message = pickle.dumps((done, failure), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # a result or exception that cannot be
            # pickled: a failure at this worker's lowest task
            first = done[0][0] if done else failure[0]
            message = pickle.dumps(([], (first, WorkerError(
                f"a pool task's outcome could not be pickled: {exc!r}"))))
        with open(out_w, "wb") as out:
            out.write(message)
        code = 0
    finally:
        os._exit(code)


def _send_indices(fd, n):
    """Write the task indices 0..n-1 to the workers' pipe, as 4-byte
    integers in writes of at most PIPE_BUF bytes, which the pipe keeps
    whole, so every read of 4 bytes takes one index."""
    data = memoryview(array("i", range(n))).cast("B")
    try:
        for a in range(0, len(data), PIPE_BUF):
            os.write(fd, data[a:a + PIPE_BUF])
    except BrokenPipeError:  # every worker has died; _collect says so
        pass


def _read_all(fd):
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def _collect(messages, statuses, n):
    """The results in task order from the workers' messages, or the
    exception of the lowest failed task."""
    for status in statuses:
        if status != 0:
            how = (f"signal {-status}" if status < 0
                   else f"exit code {status}")
            raise WorkerError(
                f"a pool worker ended ({how}) without returning its results")
    results = [None] * n
    failures = []
    for message in messages:
        try:
            done, failure = pickle.loads(message)
        except Exception as exc:  # e.g. an exception class that pickles
            # but cannot be rebuilt from its arguments
            raise WorkerError(
                f"a pool worker's results could not be unpickled: {exc!r}"
            ) from exc
        for i, result in done:
            results[i] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results
