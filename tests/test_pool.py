"""The fork pool: task order, errors raised in workers, and the BLAS pin the workers inherit."""

import os

import pytest

import usctransfer._blas as blas
from usctransfer._blas import single_blas_thread
from usctransfer._pool import run_tasks


def thread_counts(_task):
    """Thread count of every OpenBLAS loaded in this process, read by setting the count it already has."""
    counts = []
    for setter in blas._setters():
        previous = setter(1)
        setter(previous)
        counts.append(previous)
    return counts


def square_or_raise(task):
    if task == 3:
        raise ValueError(f"task {task} failed")
    return task * task, os.getpid()


def test_results_come_in_task_order_from_the_workers():
    results = run_tasks(square_or_raise, [0, 1, 2, 4], 2)
    assert [value for value, _ in results] == [0, 1, 4, 16]
    assert os.getpid() not in {pid for _, pid in results}


def test_an_error_raised_in_a_worker_is_raised_here():
    with pytest.raises(ValueError, match="task 3 failed"):
        run_tasks(square_or_raise, [0, 3, 4], 2)


def test_workers_inherit_the_one_thread_pin():
    import scipy.optimize  # noqa: F401  loads scipy's OpenBLAS, as optimize does before it pins

    setters = blas._setters()
    if not setters:
        pytest.skip("no OpenBLAS with openblas_set_num_threads_local loaded")
    previous = [setter(2) for setter in setters]  # a count the pin has to change, also on one core
    try:
        unpinned = run_tasks(thread_counts, [0, 1], 2)
        with single_blas_thread():
            pinned = run_tasks(thread_counts, [0, 1], 2)
    finally:
        for setter, threads in zip(setters, previous):
            setter(threads)
    assert unpinned == [[2] * len(setters)] * 2
    assert pinned == [[1] * len(setters)] * 2


@pytest.mark.parametrize("cpus", [1, 2])
def test_without_a_count_it_takes_one_worker_per_usable_cpu(cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    pids = {pid for _, pid in run_tasks(square_or_raise, [0, 1, 2, 4])}
    assert (os.getpid() in pids) == (cpus == 1)
