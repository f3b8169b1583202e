"""Run independent tasks on forked worker processes, losing only a task whose worker dies.

A ``ProcessPoolExecutor`` breaks when one of its workers dies: every task
without a result then raises ``BrokenProcessPool``, also the tasks that
were only waiting for or sharing the pool with the one that killed it.
:func:`run_tasks` therefore runs each lost task once more, alone, in a
fresh one-worker pool.  Only a task that breaks that pool too is reported
as lost.  The sweep's rows and the optimizer's ascents are deterministic,
so a re-run gives the result an unbroken pool would have given.
"""

from __future__ import annotations

import os

__all__ = ["run_tasks"]


def run_tasks(fn, tasks, jobs: int | None = None) -> list:
    """``fn(task)`` for every task, in task order, on ``min(jobs, len(tasks))`` worker processes.

    ``jobs=None`` means one worker per CPU this process may use (its
    affinity mask, so ``taskset -c 0`` makes it 1).  ``fn`` and the tasks
    must pickle (``fn`` by its module path).  With one worker the tasks run
    in this process.  The workers are forked; where the platform cannot
    fork, they start by the platform's default method and inherit nothing.
    An exception that ``fn`` raises in a worker is raised here, as it would
    be in process, and the tasks not yet started are cancelled.  A task
    whose worker died in the shared pool and again in a pool of its own has
    the ``BrokenProcessPool`` of its second pool in place of its result.
    """
    if jobs is None:
        jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = list(tasks)
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    # imported here so that a run without a pool starts without multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, named because Python 3.14 moves Linux's default away from it: the
    # workers start without an import and inherit the tasks' modules, the
    # loaded scipy, the caller's BLAS thread pin and a test's monkeypatches.
    # Every worker is forked at the first submit, before the pool starts its
    # own threads.
    context = multiprocessing.get_context("fork" if hasattr(os, "fork") else None)

    def attempt(batch, size):
        pool = ProcessPoolExecutor(size, mp_context=context)
        try:
            futures = [pool.submit(fn, task) for task in batch]
            results = []
            for future in futures:
                try:
                    results.append(future.result())
                except BrokenProcessPool as exc:
                    results.append(exc)
            return results
        finally:
            pool.shutdown(cancel_futures=True)

    results = attempt(tasks, workers)
    for i, result in enumerate(results):
        if isinstance(result, BrokenProcessPool):
            results[i] = attempt([tasks[i]], 1)[0]
    return results
