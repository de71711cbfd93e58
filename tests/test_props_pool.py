"""Property suite for the queue-based persistent pool.

Hypothesis drives :func:`repro.runner.pool._run_pool` through a
thread-backed transport (same code path as the spawn pool — private
task queues, shared result queue, reap/respawn — without paying a
process spawn per example):

* results always land in submission order, whatever the durations;
* a worker crash (a ``SystemExit`` escaping the worker loop, exactly
  like a hard process death) fails only the task it was running;
* the run's ``repro_atoms_*`` temp file is always unlinked on exit,
  including on the fail-fast abort, worker-crash and unpicklable-task
  paths — every example checks that it left none behind.
"""

from __future__ import annotations

import os
import queue
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.pool import PoolStats, Task, TaskError, _run_pool

_SPEC = "tests.test_props_pool:_work"


def _work(index: int, duration: float = 0.0, action: str = "ok"):
    """Worker target: sleep, then succeed, raise, or die hard."""
    if duration:
        time.sleep(duration)
    if action == "raise":
        raise ValueError(f"boom {index}")
    if action == "crash":
        # SystemExit escapes the worker loop's `except Exception`,
        # killing the worker mid-task — the thread analogue of a
        # process segfault / os._exit
        raise SystemExit(1)
    return index


class _ThreadProcess:
    """`multiprocessing.Process`-shaped wrapper over a daemon thread."""

    def __init__(self, target=None, args=(), daemon=True):
        self._target = target
        self._args = args
        self.exitcode: int | None = None
        self._thread = threading.Thread(target=self._run, daemon=daemon)

    def _run(self) -> None:
        try:
            self._target(*self._args)
        except BaseException:
            self.exitcode = 1
        else:
            self.exitcode = 0

    def start(self) -> None:
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout)

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def terminate(self) -> None:  # pragma: no cover - teardown only
        pass


class _ThreadContext:
    """Injectable pool transport backed by threads + queue.Queue."""

    Process = _ThreadProcess

    def Queue(self):
        return queue.Queue()


def _atom_files() -> set[str]:
    """This process's atom files currently in the temp directory."""
    prefix = f"repro_atoms_{os.getpid()}_"
    return {name for name in os.listdir(tempfile.gettempdir())
            if name.startswith(prefix)}


_actions = st.sampled_from(["ok", "ok", "ok", "raise", "crash"])
_durations = st.floats(min_value=0.0, max_value=0.005)
_plans = st.lists(st.tuples(_actions, _durations), min_size=1,
                  max_size=10)


@settings(max_examples=30, deadline=None)
@given(plan=_plans, workers=st.integers(min_value=1, max_value=4))
def test_outcomes_land_in_submission_slots(plan, workers):
    tasks = [Task(_SPEC, dict(index=i, duration=d, action=a))
             for i, (a, d) in enumerate(plan)]
    stats = PoolStats()
    outcomes = _run_pool(tasks, min(workers, len(tasks)),
                         _ThreadContext(), stats=stats,
                         fail_fast=False)
    assert not _atom_files()
    assert len(outcomes) == len(tasks)
    for i, (action, _) in enumerate(plan):
        outcome = outcomes[i]
        assert outcome is not None  # fail_fast off: every task runs
        if action == "ok":
            # the value came back in its submission slot
            assert outcome.failure is None and outcome.value == i
        else:
            assert outcome.failure is not None
    # every completed task is accounted once
    ok_count = sum(1 for o in outcomes
                   if o is not None and o.failure is None)
    assert ok_count == sum(1 for a, _ in plan if a == "ok")


@settings(max_examples=20, deadline=None)
@given(plan=_plans, workers=st.integers(min_value=1, max_value=4),
       crash_at=st.integers(min_value=0, max_value=9))
def test_one_crash_fails_only_its_task(plan, workers, crash_at):
    plan = [("ok", d) for _, d in plan]
    crash_at = crash_at % len(plan)
    plan[crash_at] = ("crash", plan[crash_at][1])
    tasks = [Task(_SPEC, dict(index=i, duration=d, action=a))
             for i, (a, d) in enumerate(plan)]
    stats = PoolStats()
    outcomes = _run_pool(tasks, min(workers, len(tasks)),
                         _ThreadContext(), stats=stats,
                         fail_fast=False)
    assert not _atom_files()
    for i, outcome in enumerate(outcomes):
        assert outcome is not None
        if i == crash_at:
            assert outcome.failure is not None
            assert "died" in outcome.failure["message"]
            assert outcome.failure["fn"] == _SPEC
        else:
            assert outcome.failure is None and outcome.value == i
    if len(plan) > 1:
        # the pool replaced the dead worker while work remained, or
        # finished on the survivors; either way it never wedged
        assert stats.tasks == len(plan) - 1


@settings(max_examples=15, deadline=None)
@given(fail_fast=st.booleans(),
       workers=st.integers(min_value=1, max_value=3),
       action=st.sampled_from(["raise", "crash"]),
       n_tasks=st.integers(min_value=1, max_value=6))
def test_segments_unlink_even_when_tasks_fail(fail_fast, workers, action,
                                              n_tasks):
    # a big array forces real out-of-band bytes into the atom file; the
    # failing or crashing task exercises the abort/teardown path while
    # workers hold the file mapped
    arr = np.arange(40_000, dtype=np.float64)
    tasks = [Task(_SPEC, dict(index=i, action=action, payload=arr))
             for i in range(n_tasks)]
    stats = PoolStats()
    _run_pool(tasks, min(workers, n_tasks), _ThreadContext(),
              stats=stats, fail_fast=fail_fast)
    assert stats.shm_bytes == arr.nbytes
    assert not _atom_files()


def test_unpicklable_task_raises_task_error_and_leaves_no_file():
    arr = np.arange(40_000, dtype=np.float64)
    tasks = [Task(_SPEC, dict(index=0, payload=arr)),
             Task(_SPEC, dict(index=1, payload=arr,
                              hook=lambda: None))]
    with pytest.raises(TaskError) as excinfo:
        _run_pool(tasks, 2, _ThreadContext())
    assert "cannot be shipped" in str(excinfo.value)
    assert excinfo.value.fn == _SPEC
    assert not _atom_files()
