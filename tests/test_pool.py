"""The worker pool: results must not depend on the CPU count the process
may use or on whether it can fork, no process or thread may outlive a
call, errors propagate in task order, and pools do not nest."""

import contextvars
import os
import signal
import threading
import time

import pytest

from spherecone import finance, wce
from spherecone._pool import _pool_map
from spherecone.errors import NumericError, WorkerError
from spherecone.finance import OptionSpec, experiment_table
from spherecone.spheremap import equal_area_partition_s2, radial_shells
from spherecone.wce import KernelParams

P232 = KernelParams(mu=1.5, A=1.5, B=3.0, d=2)
SPEC = OptionSpec(S0=100.0, K_strike=100.0, T=1.0, sigma=0.2, r=0.05,
                  d_steps=30)
BARRIER = OptionSpec(S0=100.0, K_strike=100.0, T=1.0, sigma=0.2, r=0.05,
                     d_steps=30, kind="barrier", barrier_b=130.0)


class TwoArgError(Exception):
    """Pickles, but unpickling calls it with one argument and fails."""

    def __init__(self, first, second):
        super().__init__(first)


def assert_no_child_left():
    # every child process the call started has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs this process may run on, as the pool sees them."""
    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)))
    return set_cpus


def test_strata_rows_independent_of_cpus(cpus):
    # 37 draws: several batches at M = 64, one each at M = 9 and 16
    rows = []
    for count in (1, 4):
        cpus(count)
        rows.append(wce.strata_scaling(P232, [9, 16, 64], seed=5, draws=37))
    assert rows[0] == rows[1]
    assert all("empirical_se" in row for row in rows[0][0])


def test_table_independent_of_cpus(cpus):
    tables = []
    for count in (1, 4):
        cpus(count)
        tables.append(experiment_table(SPEC, [256, 512], seed=1,
                                       n_replicates=8))
    assert tables[0] == tables[1]


def test_no_thread_outlives_strata(cpus):
    cpus(4)
    before = threading.active_count()
    wce.strata_scaling(P232, [16, 64], seed=0, draws=40)
    assert threading.active_count() == before
    assert_no_child_left()


def test_batch_error_propagates(cpus, monkeypatch):
    # one batch of M = 64's draws (16 per batch) raises
    cpus(4)
    draws = wce._stratified_draws

    def failing(partition, shells, seeds):
        if 1000 + 20 in seeds:
            raise NumericError("batch failed")
        return draws(partition, shells, seeds)

    monkeypatch.setattr(wce, "_stratified_draws", failing)
    before = threading.active_count()
    with pytest.raises(NumericError, match="batch failed"):
        wce.strata_scaling(P232, [16, 64], seed=0, draws=40)
    assert threading.active_count() == before
    assert_no_child_left()


def test_nested_call_runs_in_task_process(cpus):
    cpus(4)
    var = contextvars.ContextVar("caller_value")
    var.set("caller")

    def task(i):
        inner = _pool_map(lambda j: (os.getpid(), var.get()), 3)
        return os.getpid(), inner

    results = _pool_map(task, 4)
    assert [len(inner) for _, inner in results] == [3] * 4
    for pid, inner in results:
        assert inner == [(pid, "caller")] * 3
    assert os.getpid() not in {pid for pid, _ in results}


def test_serial_where_fork_is_unavailable(cpus, monkeypatch):
    def run():
        return (experiment_table(SPEC, [256, 512], seed=1, n_replicates=8),
                wce.strata_scaling(P232, [9, 16, 64], seed=5, draws=37))

    cpus(1)
    serial = run()
    cpus(4)
    # a call of os.fork would now raise AttributeError
    monkeypatch.delattr(os, "fork")
    assert run() == serial
    assert_no_child_left()


def test_pricing_independent_of_cpus_and_fork(cpus, monkeypatch):
    def run():
        return (experiment_table(SPEC, [256, 512], seed=1, n_replicates=8),
                finance._price_columns([SPEC, BARRIER],
                                       finance.TABLE_COLUMNS, 32, 8, seed=3))

    runs = []
    for count in (1, 4):
        cpus(count)
        runs.append(run())
    monkeypatch.delattr(os, "fork")
    runs.append(run())
    assert runs[0] == runs[1] == runs[2]


def test_more_indices_than_a_pipe_holds(cpus):
    # 20000 4-byte indices overfill the 64 KiB pipe buffer
    cpus(4)
    assert _pool_map(lambda i: 3 * i, 20000) == [3 * i for i in
                                                 range(20000)]
    assert_no_child_left()


def test_runs_without_standard_streams(cpus, monkeypatch):
    # hosts such as pythonw have no sys.stdout or sys.stderr
    cpus(2)
    monkeypatch.setattr("sys.stdout", None)
    monkeypatch.setattr("sys.stderr", None)
    assert _pool_map(lambda i: i, 4) == [0, 1, 2, 3]
    assert_no_child_left()


def test_first_failure_in_task_order(cpus):
    # task 9 fails first in time, task 7 first in task order, as serially
    cpus(4)

    def task(i):
        if i == 7:
            time.sleep(0.2)
            raise NumericError("task 7")
        if i == 9:
            raise KeyError("task 9")
        return i

    with pytest.raises(NumericError, match="task 7"):
        _pool_map(task, 40)
    assert_no_child_left()


def test_failure_stops_later_tasks(cpus, tmp_path):
    cpus(4)
    log = tmp_path / "started"

    def task(i):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, b"%d\n" % i)
        os.close(fd)
        if i == 20:
            raise NumericError("task 20")
        time.sleep(0.01)
        return i

    with pytest.raises(NumericError, match="task 20"):
        _pool_map(task, 1000)
    started = set(map(int, log.read_text().split()))
    # every task below the failure ran; of those above it, only the few
    # the other workers had taken before it failed
    assert set(range(21)) <= started
    assert len(started) < 200
    assert_no_child_left()


def test_worker_death_is_typed_error(cpus):
    cpus(4)

    def task(i):
        if i == 5:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(WorkerError, match="signal 9"):
        _pool_map(task, 40)
    assert_no_child_left()


def test_unpicklable_result_is_typed_error(cpus):
    cpus(2)
    with pytest.raises(WorkerError, match="could not be pickled"):
        _pool_map(lambda i: (lambda: i), 4)
    assert_no_child_left()


def test_exception_that_cannot_be_rebuilt_is_typed_error(cpus):
    cpus(2)

    def task(i):
        raise TwoArgError("task", i)

    with pytest.raises(WorkerError, match="could not be unpickled"):
        _pool_map(task, 4)
    assert_no_child_left()


def test_interrupted_call_leaves_no_worker(cpus):
    # task 0 interrupts the caller while every other task sleeps: the
    # caller kills and reaps the workers instead of waiting for them
    cpus(4)
    caller = os.getpid()

    def task(i):
        if i == 0:
            os.kill(caller, signal.SIGINT)
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _pool_map(task, 8)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_strata_formulas_start_largest_m_first(cpus, monkeypatch):
    # the pool hands tasks out in index order, so the costliest formula
    # must come first; the rows keep the order of M_list
    calls = []
    formula = wce.stratified_expected_wce_sq

    def recorded(p, partition, shells):
        calls.append(partition.M)
        return formula(p, partition, shells)

    monkeypatch.setattr(wce, "stratified_expected_wce_sq", recorded)
    cpus(1)
    rows, _ = wce.strata_scaling(P232, [16, 64, 4, 36], seed=5)
    assert calls == [64, 36, 16, 4]
    assert [r["M"] for r in rows] == [16, 64, 4, 36]
    assert [r["formula"] for r in rows] == [
        formula(P232, equal_area_partition_s2(M),
                radial_shells(1.5, 3.0, r["K"])).value
        for M, r in zip([16, 64, 4, 36], rows)]
