"""Unit tests for the parallel runner's pool.

Most stay in-process (``parallel=1`` short-circuits the pool, and the
atom transport runs over a ``ThreadPoolExecutor`` through the pool's
executor seam), so they are cheap.  The last two spawn real workers:
a worker's hard exit, and a failure's identity crossing the process
boundary.  ``tests/test_parallel_experiments.py`` covers the spawn path
on real experiments.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.errors import ReproError
from repro.runner.pool import (PoolStats, Task, TaskError, _attach,
                               _collect_atoms, _describe_kwargs,
                               _publish, _run_pool, resolve, run_tasks)
from repro.sim.state import SimState
from tests.test_props_pool import _atom_files


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


# ---------------------------------------------------------------------
# atom transport: collect, publish once, attach read-only views


def test_collect_atoms_finds_simstate_and_arrays():
    arr = np.arange(10_000, dtype=np.float64)
    nested = np.arange(3)
    state = SimState(payload=b"p" * 100, shared=(arr,))
    atoms = _collect_atoms(dict(base=state, extra=[nested], mode="dense"))
    assert any(a is arr for a in atoms)
    assert any(a is state.payload for a in atoms)
    assert any(a is nested for a in atoms)
    assert not any(isinstance(a, str) for a in atoms)


def test_attach_rebuilds_atoms_as_read_only_views(tmp_path):
    column = np.arange(100_000, dtype=np.float64)
    small = np.arange(5, dtype=np.int32)
    empty = np.arange(0, dtype=np.int64)
    dataset = {"cols": [column, small], "label": "tpch"}
    path = tmp_path / "atoms"
    with open(path, "wb") as file:
        oob = _publish((column, small, empty, dataset, b"payload"), file)
    # the arrays went out of band; the header and spans are the rest
    assert oob == column.nbytes + small.nbytes
    assert path.stat().st_size - oob < 1024
    out_column, out_small, out_empty, out_dataset, payload = _attach(
        str(path))
    for out, original in ((out_column, column), (out_small, small),
                          (out_empty, empty)):
        assert np.array_equal(out, original)
        assert out.dtype == original.dtype
        assert not out.flags.writeable
    assert out_column.flags.aligned and not out_column.flags.owndata
    # the dataset resolved its columns to the attached views
    assert out_dataset["cols"][0] is out_column
    assert out_dataset["cols"][1] is out_small
    assert out_dataset["label"] == "tpch"
    assert payload == b"payload"


def _probe(base, column_sum):
    """Worker target: report on the attached atoms, return one back."""
    dataset, column = base.shared
    restored = base.restore()
    facts = dict(read_only=not column.flags.writeable,
                 dataset_aliases=dataset["cols"][0] is column,
                 restored_aliases=restored["column"] is column,
                 equal=float(column.sum()) == column_sum,
                 counters=restored["counters"] == list(range(64)))
    return facts, column


def test_pool_round_trip_ships_atoms_once_and_returns_parents_own():
    column = np.arange(150_000, dtype=np.float64)  # ~1.2 MB column
    dataset = {"cols": [column]}
    graph = {"column": column, "counters": list(range(64))}
    state = SimState.capture(graph, shared=(dataset, column))
    tasks = [Task("tests.test_runner_pool:_probe",
                  dict(base=state, column_sum=float(column.sum())))
             for _ in range(3)]
    stats = PoolStats()
    values = _run_pool(tasks, 2, stats=stats,
                       executor=ThreadPoolExecutor)
    for facts, returned in values:
        assert all(facts.values()), facts
        # a shipped atom in a result resolves to the parent's object
        assert returned is column
    assert stats.shm_bytes == column.nbytes
    # the per-task pickle carries references, not the capture
    plain = len(pickle.dumps(tasks[0], protocol=pickle.HIGHEST_PROTOCOL))
    per_task = stats.ipc_task_bytes / stats.tasks
    assert per_task * 10 <= plain, (per_task, plain)


# ---------------------------------------------------------------------
# real spawn workers


def _exit_hard(index):
    """Worker target: task 1 kills its worker without a word."""
    if index == 1:
        os._exit(1)
    return index


def test_dead_worker_fails_the_run_naming_unfinished_tasks():
    spec = "tests.test_runner_pool:_exit_hard"
    tasks = [Task(spec, dict(index=i)) for i in range(3)]
    with pytest.raises(ReproError) as excinfo:
        run_tasks(tasks, parallel=2, cache=False)
    err = excinfo.value
    assert not isinstance(err, TaskError)
    assert isinstance(err.__cause__, BrokenProcessPool)
    assert "pool worker died" in str(err)
    assert f"#1 {spec}" in str(err)  # the dead task got no result
    assert not _atom_files()


def _raise_in_worker(x):
    if x == 7:
        raise ValueError(f"bad cell {x}")
    return x


def test_worker_task_error_keeps_identity_and_traceback():
    spec = "tests.test_runner_pool:_raise_in_worker"
    tasks = [Task(spec, dict(x=x)) for x in (1, 7)]
    with pytest.raises(TaskError) as excinfo:
        run_tasks(tasks, parallel=2, cache=False)
    err = excinfo.value
    assert err.fn == spec
    assert err.kwargs == _describe_kwargs(dict(x=7))
    message = str(err)
    assert "ValueError: bad cell 7" in message
    assert "--- worker traceback ---" in message
    assert "in _raise_in_worker" in message
    assert not _atom_files()
