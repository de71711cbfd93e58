"""Property suite for the executor-backed pool.

Hypothesis drives :func:`repro.runner.pool._run_pool` through its
executor seam with :class:`~concurrent.futures.ThreadPoolExecutor`
(same code path as the spawn pool — atom file, initializer, shipped
payloads, failure records — without paying a process spawn per
example):

* values always land in submission order, whatever the durations;
* a failing task raises the :class:`TaskError` of the *first* failing
  task in submission order, whatever finishes first;
* the run's ``repro_atoms_*`` temp file is always unlinked on exit,
  including on the task-failure, broken-pool and unpicklable-task
  paths — every example checks that it left none behind.

A worker dying for real is a process event; ``tests/test_runner_pool.py``
covers it over real spawn workers.
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.runner.pool import PoolStats, Task, TaskError, _run_pool

_SPEC = "tests.test_props_pool:_work"


def _work(index: int, duration: float = 0.0, action: str = "ok",
          payload=None):
    """Worker target: sleep, then succeed or raise."""
    if duration:
        time.sleep(duration)
    if action == "raise":
        raise ValueError(f"boom {index}")
    return index


def _broken_pool(max_workers, initializer, initargs):
    """A thread pool whose every worker fails to attach the atoms."""
    def fail(path):
        raise OSError(f"cannot attach {path}")
    return ThreadPoolExecutor(max_workers, initializer=fail,
                              initargs=initargs)


def _atom_files() -> set[str]:
    """This process's atom files currently in the temp directory."""
    prefix = f"repro_atoms_{os.getpid()}_"
    return {name for name in os.listdir(tempfile.gettempdir())
            if name.startswith(prefix)}


_actions = st.sampled_from(["ok", "ok", "ok", "raise"])
_durations = st.floats(min_value=0.0, max_value=0.005)
_plans = st.lists(st.tuples(_actions, _durations), min_size=1,
                  max_size=10)


@settings(max_examples=30, deadline=None)
@given(plan=_plans, workers=st.integers(min_value=1, max_value=4))
def test_outcomes_land_in_submission_slots(plan, workers):
    tasks = [Task(_SPEC, dict(index=i, duration=d, action=a))
             for i, (a, d) in enumerate(plan)]
    failing = [i for i, (action, _) in enumerate(plan)
               if action == "raise"]
    stats = PoolStats()
    if not failing:
        values = _run_pool(tasks, min(workers, len(tasks)), stats=stats,
                           executor=ThreadPoolExecutor)
        assert values == list(range(len(plan)))
        assert stats.tasks == len(plan)
    else:
        with pytest.raises(TaskError) as excinfo:
            _run_pool(tasks, min(workers, len(tasks)), stats=stats,
                      executor=ThreadPoolExecutor)
        # the first failure in submission order, not the first to finish
        assert excinfo.value.fn == _SPEC
        assert f'"index":{failing[0]}' in excinfo.value.kwargs
        assert f"boom {failing[0]}" in str(excinfo.value)
        assert stats.tasks == failing[0] + 1
    assert not _atom_files()


@settings(max_examples=15, deadline=None)
@given(workers=st.integers(min_value=1, max_value=3),
       action=st.sampled_from(["raise", "broken"]),
       n_tasks=st.integers(min_value=1, max_value=6),
       fail_at=st.integers(min_value=0, max_value=5))
def test_segments_unlink_even_when_tasks_fail(workers, action, n_tasks,
                                              fail_at):
    # a big array forces real out-of-band bytes into the atom file; the
    # failing task or the broken pool exercises the teardown path while
    # workers hold the file mapped
    arr = np.arange(40_000, dtype=np.float64)
    fail_at %= n_tasks
    tasks = [Task(_SPEC, dict(index=i, payload=arr,
                              action="raise" if i == fail_at else "ok"))
             for i in range(n_tasks)]
    stats = PoolStats()
    if action == "raise":
        with pytest.raises(TaskError):
            _run_pool(tasks, min(workers, n_tasks), stats=stats,
                      executor=ThreadPoolExecutor)
    else:
        with pytest.raises(ReproError) as excinfo:
            _run_pool(tasks, min(workers, n_tasks), stats=stats,
                      executor=_broken_pool)
        assert not isinstance(excinfo.value, TaskError)
        assert "pool worker died" in str(excinfo.value)
        assert f"{n_tasks} task(s) got no result" in str(excinfo.value)
    assert stats.shm_bytes == arr.nbytes
    assert not _atom_files()


def test_unpicklable_task_raises_task_error_and_leaves_no_file():
    def no_pool(**_):
        raise AssertionError("a worker started for an unshippable run")

    arr = np.arange(40_000, dtype=np.float64)
    tasks = [Task(_SPEC, dict(index=0, payload=arr)),
             Task(_SPEC, dict(index=1, payload=arr,
                              hook=lambda: None))]
    with pytest.raises(TaskError) as excinfo:
        _run_pool(tasks, 2, executor=no_pool)
    assert "cannot be shipped" in str(excinfo.value)
    assert excinfo.value.fn == _SPEC
    assert not _atom_files()
