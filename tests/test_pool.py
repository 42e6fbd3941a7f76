"""The worker pool: results must not depend on the CPU count the process
may use, no thread may outlive a call, errors propagate, and pools do
not nest."""

import contextvars
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


def test_nested_call_runs_on_task_thread(cpus):
    cpus(4)
    var = contextvars.ContextVar("caller_value")
    var.set("caller")

    def task(i):
        inner = _pool_map(lambda j: (threading.get_ident(), var.get()), 3)
        return threading.get_ident(), inner

    results = _pool_map(task, 4)
    assert [len(inner) for _, inner in results] == [3] * 4
    for ident, inner in results:
        assert inner == [(ident, "caller")] * 3
    assert threading.get_ident() not in {ident for ident, _ in results}
