"""The worker pool: results must not depend on the CPU count the process
may use or on whether it can fork, no process or thread may outlive a
call, errors propagate, and pools do not nest."""

import contextvars
import multiprocessing
import os
import threading

import pytest

from spherecone import wce
from spherecone._pool import _pool_map
from spherecone.errors import NumericError
from spherecone.finance import OptionSpec, experiment_table
from spherecone.wce import KernelParams

P232 = KernelParams(mu=1.5, A=1.5, B=3.0, d=2)
SPEC = OptionSpec(S0=100.0, K_strike=100.0, T=1.0, sigma=0.2, r=0.05,
                  d_steps=30)


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
    assert multiprocessing.active_children() == []


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
    assert multiprocessing.active_children() == []


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
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn", "forkserver"])

    def no_start(process):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        no_start)
    assert run() == serial
    assert multiprocessing.active_children() == []
