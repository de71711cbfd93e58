"""Unit tests for the parallel runner's pool.

These stay in-process (``parallel=1`` short-circuits the pool), so they
are cheap; the spawn path is covered by
``tests/test_parallel_experiments.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.runner.pool import PoolStats, Task, TaskError, resolve, run_tasks


def _double(x):
    return 2 * x


def test_run_tasks_serial_preserves_submission_order():
    tasks = [Task("tests.test_runner_pool:_double", dict(x=i))
             for i in range(5)]
    assert run_tasks(tasks, parallel=1) == [0, 2, 4, 6, 8]


def _fail(x):
    return x / 0


def test_serial_failures_wrap_as_task_error_with_context():
    tasks = [Task("tests.test_runner_pool:_fail", dict(x=3))]
    with pytest.raises(TaskError) as excinfo:
        run_tasks(tasks, parallel=1)
    err = excinfo.value
    assert err.fn == "tests.test_runner_pool:_fail"
    assert "x" in err.kwargs and "3" in err.kwargs  # canonical string
    assert "ZeroDivisionError" in str(err)
    assert "kwargs" in str(err)


def test_task_error_is_not_rewrapped():
    # a TaskError raised inside a task (e.g. a nested run) passes
    # through unchanged instead of nesting messages
    original = TaskError("inner", fn="a:b", kwargs={"k": 1})

    def raiser():
        raise original

    import tests.test_runner_pool as mod
    mod._raiser = raiser
    try:
        with pytest.raises(TaskError) as excinfo:
            run_tasks([Task("tests.test_runner_pool:_raiser", {})],
                      parallel=1)
    finally:
        del mod._raiser
    assert excinfo.value is original


def test_pool_stats_utilisation_and_dict_shape():
    stats = PoolStats(workers=2, wall_seconds=2.0, tasks=4,
                      ipc_task_bytes=100, ipc_result_bytes=50,
                      shm_bytes=4096)
    stats.busy_seconds = {0: 1.0, 1: 2.5}  # 2.5 > wall: clamped
    stats.worker_tasks = {0: 1, 1: 3}
    util = stats.worker_utilisation()
    assert util == {"0": pytest.approx(0.5), "1": pytest.approx(1.0)}
    assert stats.mean_utilisation() == pytest.approx(0.75)
    assert stats.ipc_bytes_shipped == 150


def test_run_tasks_rejects_nonpositive_parallel():
    with pytest.raises(ReproError):
        run_tasks([], parallel=0)


def test_resolve_rejects_malformed_specs():
    with pytest.raises(ReproError):
        resolve("no-colon")
    with pytest.raises(ReproError):
        resolve("definitely.not.a.module:fn")
    with pytest.raises(ReproError):
        resolve("math:no_such_attr")
    with pytest.raises(ReproError):
        resolve("math:pi")  # not callable
