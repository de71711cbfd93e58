"""Persistent spawn-worker pool with zero-copy shared atoms.

Tasks name their function as a ``"module:attr"`` spec string instead of
a bare callable: spec strings pickle under every start method, survive
``__main__`` aliasing, and make the task list printable.  Workers import
the module and call the attribute with the task's kwargs.

The pool always uses the ``spawn`` start context.  ``fork`` would be
faster to start but inherits the parent's dataset cache, open telemetry
recorders and heap layout — ``spawn`` guarantees every worker starts
from the same cold, deterministic state a serial run starts from.

Workers are **long-lived**: each attaches the run's shared atoms once,
imports experiment modules once, and keeps its warmed dataset cache
across tasks.  The atoms are the run's bulk immutable data — every
:class:`~repro.sim.state.SimState` capture's shared atoms and payload,
and bare numpy arrays in the kwargs — collected by identity and pickled
once with protocol 5: the raw array buffers go out of band into one
temp file, the small in-band header goes to each worker as the first
message on its task queue, and workers ``mmap`` the file read-only, so
their arrays are zero-copy views.  Task and result pickles then carry
each atom as its position in that tuple
(:func:`~repro.sim.state.dumps_shared`), so a warm-start cell ships
kilobytes instead of the dataset.  Every result is tagged with its
submission index, so merging is positional and parallel output stays
bit-identical to serial regardless of completion order.

Tasks dispatch in submission order to whichever worker is idle.  Each
parallel execution records a :class:`PoolStats` — per-worker
utilisation, shipped IPC bytes, out-of-band atom bytes — retrievable via
:func:`last_pool_stats`.

A failing task raises :class:`TaskError` carrying the task's ``fn``
spec, its canonicalised kwargs and the worker's traceback; a *crashing*
worker (hard exit) fails only the task it was running, and the pool
respawns a replacement while work remains.
"""

from __future__ import annotations

import importlib
import json
import mmap
import os
import pickle
import queue as queue_lib
import tempfile
import time
from collections import deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any

import numpy as np

from ..errors import ReproError
from ..sim.state import SimState, dumps_shared, loads_shared

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: kwargs nesting depth scanned for shared atoms
_SCAN_DEPTH = 3

#: out-of-band buffers start on cache-line boundaries in the atom file
_ALIGN = 64

#: parent poll interval while waiting on results — short enough that a
#: crashed worker is noticed promptly, long enough not to spin
_POLL_SECONDS = 0.05

#: grace between the shutdown sentinel and terminate()
_JOIN_SECONDS = 5.0


@dataclass(frozen=True)
class Task:
    """One unit of fan-out: ``resolve(fn)(**kwargs)`` in some process."""

    fn: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)


class TaskError(ReproError):
    """One task failed; carries the cell's identity.

    ``fn`` is the failing task's ``"module:attr"`` spec and ``kwargs``
    its canonicalised parameters, so a failing cell in a hundred-task
    sweep is identifiable straight from the traceback.
    """

    def __init__(self, message: str, fn: str | None = None,
                 kwargs: str | None = None):
        super().__init__(message)
        self.fn = fn
        self.kwargs = kwargs


def resolve(spec: str):
    """Import the callable named by a ``"module:attr"`` spec string."""
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise ReproError(
            f"task spec {spec!r} is not of the form 'module:attr'")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ReproError(f"cannot import task module {module_name!r}: "
                         f"{exc}") from exc
    fn = getattr(module, attr, None)
    if fn is None:
        raise ReproError(f"module {module_name!r} has no attribute "
                         f"{attr!r}")
    if not callable(fn):
        raise ReproError(f"task target {spec!r} is not callable")
    return fn


def _describe_kwargs(kwargs: Mapping[str, Any]) -> str:
    """Canonicalised kwargs for error messages (best effort)."""
    from .cache import canonical
    try:
        return json.dumps(canonical(dict(kwargs)), sort_keys=True,
                          separators=(",", ":"))
    except Exception:
        return repr(dict(kwargs))


def _invoke(task: Task) -> Any:
    """Resolve and call one task; failures carry the task's identity."""
    fn = resolve(task.fn)
    try:
        return fn(**dict(task.kwargs))
    except TaskError:
        raise  # nested run_tasks: already identified
    except Exception as exc:
        described = _describe_kwargs(task.kwargs)
        raise TaskError(
            f"task {task.fn!r} failed: {type(exc).__name__}: {exc}\n"
            f"  kwargs: {described}",
            fn=task.fn, kwargs=described) from exc


@dataclass
class PoolStats:
    """Telemetry for one parallel :func:`run_tasks` execution."""

    workers: int = 0
    wall_seconds: float = 0.0
    tasks: int = 0
    #: pickled task payloads sent to workers (after atom externalising)
    ipc_task_bytes: int = 0
    #: pickled result payloads received from workers
    ipc_result_bytes: int = 0
    #: out-of-band atom bytes, shipped once per worker
    shm_bytes: int = 0
    respawns: int = 0
    #: worker id -> seconds spent executing tasks
    busy_seconds: dict[int, float] = field(default_factory=dict)
    #: worker id -> tasks completed
    worker_tasks: dict[int, int] = field(default_factory=dict)

    @property
    def ipc_bytes_shipped(self) -> int:
        """Per-task bytes that crossed the process boundary, both ways."""
        return self.ipc_task_bytes + self.ipc_result_bytes

    def worker_utilisation(self) -> dict[str, float]:
        """worker id -> busy fraction of the pool's wall clock."""
        if self.wall_seconds <= 0:
            return {}
        return {str(wid): min(busy / self.wall_seconds, 1.0)
                for wid, busy in sorted(self.busy_seconds.items())}

    def mean_utilisation(self) -> float:
        util = self.worker_utilisation()
        if not util:
            return 0.0
        return sum(util.values()) / len(util)


#: stats of the most recent parallel execution in this process
#: (diagnostics; the CLI prints them after a --parallel run)
_LAST_STATS: PoolStats | None = None


def last_pool_stats() -> PoolStats | None:
    """Stats of this process's most recent parallel execution."""
    return _LAST_STATS


def run_tasks(tasks: Iterable[Task], parallel: int = 1,
              cache: Any = None,
              stats: PoolStats | None = None) -> list[Any]:
    """Run every task; results in submission order.

    ``parallel <= 1`` (or a single task) short-circuits to a plain
    serial loop in this process — no pool, no pickling, no import
    indirection beyond :func:`resolve`.  Larger values fan tasks across
    at most ``parallel`` persistent spawn workers: shared atoms publish
    once into a mapped file, tasks dispatch in submission order, and
    results merge back by submission index so parallel output is
    bit-identical to serial.

    ``cache`` accepts a :class:`~repro.runner.cache.ResultCache`,
    ``True`` (the default store), ``False`` (off even when a
    process-wide cache is configured) or ``None`` (defer to
    :func:`~repro.runner.cache.current`).  Lookup and store both happen
    in the parent, so only cache misses are executed and hits merge
    back into their original submission slots.

    ``stats`` collects a caller-visible :class:`PoolStats`.
    """
    task_list = list(tasks)
    if parallel < 1:
        raise ReproError(f"parallel must be >= 1, got {parallel}")

    from .cache import resolve_cache
    store = resolve_cache(cache)
    if store is None:
        return _execute(task_list, parallel, stats=stats)

    results: list[Any] = [None] * len(task_list)
    misses: list[tuple[int, Task, str]] = []
    for index, task in enumerate(task_list):
        key = store.task_key(task.fn, task.kwargs)
        hit, value = store.lookup(key)
        if hit:
            results[index] = value
        else:
            misses.append((index, task, key))
    for (index, _, key), value in zip(
            misses, _execute([task for _, task, _ in misses], parallel,
                             stats=stats)):
        results[index] = value
        store.store(key, value)
    return results


def _execute(task_list: list[Task], parallel: int,
             stats: PoolStats | None = None) -> list[Any]:
    """Run tasks serially or across the pool; submission order."""
    if parallel == 1 or len(task_list) <= 1:
        return [_invoke(task) for task in task_list]
    workers = min(parallel, len(task_list))
    outcomes = _run_pool(task_list, workers, get_context("spawn"),
                         stats=stats)
    failures = [(index, outcome) for index, outcome in
                enumerate(outcomes)
                if outcome is not None and outcome.failure is not None]
    if failures:
        index, outcome = failures[0]
        raise _failure_error(outcome.failure, task_list[index])
    if any(outcome is None for outcome in outcomes):
        raise ReproError(
            "pool finished without an outcome for every task")
    return [outcome.value for outcome in outcomes]


def _failure_error(info: Mapping[str, Any], task: Task) -> TaskError:
    """Rebuild a parent-side TaskError from a worker's failure record."""
    message = str(info.get("message") or f"task {task.fn!r} failed")
    trace = info.get("traceback")
    if trace:
        message = (f"{message}\n--- worker traceback ---\n"
                   f"{str(trace).rstrip()}")
    return TaskError(message, fn=str(info.get("fn") or task.fn),
                     kwargs=info.get("kwargs"))


def _failure_info(exc: BaseException) -> dict:
    """Picklable record of a worker-side failure."""
    import traceback
    info: dict[str, Any] = {
        "message": (str(exc) if isinstance(exc, TaskError)
                    else f"{type(exc).__name__}: {exc}"),
        "traceback": traceback.format_exc(),
    }
    if isinstance(exc, TaskError):
        info["fn"] = exc.fn
        info["kwargs"] = exc.kwargs
    return info


@dataclass
class _Outcome:
    """Terminal state of one task inside :func:`_run_pool`."""

    value: Any = None
    failure: dict | None = None


def _collect_atoms(value: Any, _depth: int = 0) -> list[Any]:
    """Bulk immutable atoms reachable from one task's kwargs.

    A :class:`~repro.sim.state.SimState` contributes its shared atoms
    *and* its payload (identical across a sweep's cells, so it too
    ships once); bare numpy arrays count as well.  Containers are
    scanned a few levels deep — task kwargs are shallow by
    construction.
    """
    if isinstance(value, SimState):
        return [*value.shared, value.payload]
    if isinstance(value, np.ndarray):
        return [value]
    if _depth >= _SCAN_DEPTH:
        return []
    items: Iterable[Any] = ()
    if isinstance(value, Mapping):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    return [atom for item in items
            for atom in _collect_atoms(item, _depth + 1)]


def _publish(atoms: tuple[Any, ...], file: Any
             ) -> tuple[bytes, list[tuple[int, int]]]:
    """Pickle ``atoms`` once, writing their raw buffers into ``file``.

    Returns the in-band header and the ``(offset, size)`` span of every
    out-of-band buffer, in the order :func:`_attach` hands them back.
    """
    buffers: list[pickle.PickleBuffer] = []
    header = pickle.dumps(atoms, protocol=5,
                          buffer_callback=buffers.append)
    spans: list[tuple[int, int]] = []
    offset = 0
    for buffer in buffers:
        raw = buffer.raw()
        pad = -offset % _ALIGN
        file.write(bytes(pad))
        offset += pad
        file.write(raw)
        spans.append((offset, raw.nbytes))
        offset += raw.nbytes
    return header, spans


def _attach(header: bytes, path: str,
            spans: list[tuple[int, int]]) -> tuple[Any, ...]:
    """Rebuild the published atoms over a read-only map of ``path``.

    Arrays become read-only zero-copy views of the mapping, which
    their buffers keep alive for as long as the arrays live.
    """
    view = memoryview(b"")
    if any(size for _, size in spans):
        with open(path, "rb") as file:
            view = memoryview(mmap.mmap(file.fileno(), 0,
                                        access=mmap.ACCESS_READ))
    return pickle.loads(header, buffers=[
        view[offset:offset + size] for offset, size in spans])


def _worker_main(worker_id: int, task_queue: Any,
                 result_queue: Any) -> None:
    """Long-lived worker loop: attach the atoms once, then serve.

    The first message on the task queue is the ``(header, path,
    spans)`` of the run's atoms.  Replies ``("done", worker id, index,
    ok, payload, seconds)`` per task; a ``None`` sentinel shuts the
    worker down.  Results pickle with attached atoms externalised back
    to their positions, so bulk data never travels the result pipe
    either.
    """
    atoms = _attach(*task_queue.get())
    positions = {id(atom): i for i, atom in enumerate(atoms)}
    while True:
        item = task_queue.get()
        if item is None:
            break
        index, payload = item
        start = time.perf_counter()
        try:
            task = loads_shared(payload, atoms)
            value = _invoke(task)
            body = dumps_shared(value, positions)
            ok = True
        except Exception as exc:
            body = pickle.dumps(_failure_info(exc), protocol=_PROTOCOL)
            ok = False
        result_queue.put(("done", worker_id, index, ok, body,
                          time.perf_counter() - start))


def _run_pool(task_list: list[Task], workers: int, context: Any,
              stats: PoolStats | None = None,
              fail_fast: bool = True) -> list["_Outcome | None"]:
    """Drive tasks across persistent workers; one outcome per index.

    The engine behind :func:`run_tasks`'s parallel path, split out so
    the property suite can run it with an injected thread-backed
    ``context`` and inspect every outcome without the raise-on-first-
    failure policy (``fail_fast=False`` keeps dispatching after a
    failure).  Each worker has a private task queue, so the parent
    always knows which task a crashed worker was running; ``None``
    outcomes are tasks never attempted (dispatch aborted first).
    """
    global _LAST_STATS
    if stats is None:
        stats = PoolStats()
    stats.workers = workers
    order = deque(range(len(task_list)))
    outcomes: list[_Outcome | None] = [None] * len(task_list)
    start_wall = time.perf_counter()
    result_queue = context.Queue()
    procs: dict[int, Any] = {}
    queues: dict[int, Any] = {}
    path: str | None = None
    try:
        found = {id(atom): atom for task in task_list
                 for atom in _collect_atoms(task.kwargs)}
        atoms = tuple(found.values())
        positions = {id(atom): i for i, atom in enumerate(atoms)}
        payloads: dict[int, bytes] = {}
        for index, task in enumerate(task_list):
            try:
                payloads[index] = dumps_shared(task, positions)
            except (pickle.PicklingError, AttributeError,
                    TypeError) as exc:
                described = _describe_kwargs(task.kwargs)
                raise TaskError(
                    f"task {task.fn!r} cannot be shipped to a worker: "
                    f"{exc}\n  kwargs: {described}",
                    fn=task.fn, kwargs=described) from exc
        fd, path = tempfile.mkstemp(
            prefix=f"repro_atoms_{os.getpid()}_")
        with os.fdopen(fd, "wb") as file:
            header, spans = _publish(atoms, file)
        stats.shm_bytes = sum(size for _, size in spans)

        pending = set(range(len(task_list)))
        assigned: dict[int, int] = {}  # worker id -> in-flight index
        idle: deque[int] = deque()
        next_worker_id = 0
        respawn_budget = workers + len(task_list)
        aborted = False

        def spawn() -> None:
            nonlocal next_worker_id
            wid = next_worker_id
            next_worker_id += 1
            task_queue = context.Queue()
            # the atoms travel as the first queued message, not as a
            # spawn argument: a multi-megabyte argument would block
            # start() until the child has booted and read it
            task_queue.put((header, path, spans))
            proc = context.Process(
                target=_worker_main,
                args=(wid, task_queue, result_queue),
                daemon=True)
            proc.start()
            procs[wid] = proc
            queues[wid] = task_queue
            idle.append(wid)

        def abort() -> None:
            nonlocal aborted
            aborted = True
            while order:  # never-attempted tasks stay None
                pending.discard(order.popleft())

        def dispatch() -> None:
            while order and idle and not aborted:
                wid = idle.popleft()
                if wid not in procs:
                    continue
                index = order.popleft()
                payload = payloads.pop(index)
                stats.ipc_task_bytes += len(payload)
                assigned[wid] = index
                queues[wid].put((index, payload))

        def reap() -> None:
            for wid, proc in list(procs.items()):
                if proc.is_alive():
                    continue
                del procs[wid]
                try:
                    idle.remove(wid)
                except ValueError:
                    pass
                index = assigned.pop(wid, None)
                if index is not None and index in pending:
                    task = task_list[index]
                    outcomes[index] = _Outcome(failure={
                        "message": (
                            f"worker {wid} died (exit code "
                            f"{getattr(proc, 'exitcode', None)}) while "
                            f"running task {task.fn!r}"),
                        "fn": task.fn,
                        "kwargs": _describe_kwargs(task.kwargs)})
                    pending.discard(index)
                    if fail_fast:
                        abort()
            nonlocal respawn_budget
            while (not aborted and respawn_budget > 0
                   and len(procs) < min(workers, len(pending))):
                spawn()
                respawn_budget -= 1
                stats.respawns += 1
            if not procs and pending:
                # respawn budget exhausted (or aborted with casualties
                # in flight): nothing left to run the remaining tasks
                for index in sorted(pending):
                    if outcomes[index] is None:
                        task = task_list[index]
                        outcomes[index] = _Outcome(failure={
                            "message": (
                                f"worker pool lost every worker; task "
                                f"{task.fn!r} never completed"),
                            "fn": task.fn,
                            "kwargs": _describe_kwargs(task.kwargs)})
                    pending.discard(index)

        for _ in range(workers):
            spawn()
        dispatch()
        while pending:
            try:
                message = result_queue.get(timeout=_POLL_SECONDS)
            except queue_lib.Empty:
                reap()
                dispatch()
                continue
            _, wid, index, ok, body, seconds = message
            assigned.pop(wid, None)
            if wid in procs:
                idle.append(wid)
            if index in pending:
                stats.tasks += 1
                stats.ipc_result_bytes += len(body)
                stats.busy_seconds[wid] = (
                    stats.busy_seconds.get(wid, 0.0) + seconds)
                stats.worker_tasks[wid] = (
                    stats.worker_tasks.get(wid, 0) + 1)
                if ok:
                    try:
                        value = loads_shared(body, atoms)
                    except Exception as exc:
                        outcomes[index] = _Outcome(failure={
                            "message": (
                                f"cannot deserialise the result of "
                                f"task {task_list[index].fn!r}: {exc}"),
                            "fn": task_list[index].fn})
                    else:
                        outcomes[index] = _Outcome(value=value)
                else:
                    outcomes[index] = _Outcome(
                        failure=pickle.loads(body))
                pending.discard(index)
                failed = outcomes[index].failure is not None
                if failed and fail_fast:
                    abort()
            dispatch()
        return outcomes
    finally:
        for wid in list(procs):
            try:
                queues[wid].put(None)
            except Exception:  # pragma: no cover - teardown races
                pass
        # drain stragglers so worker queue feeders never block on exit
        while True:
            try:
                result_queue.get_nowait()
            except Exception:
                break
        deadline = time.perf_counter() + _JOIN_SECONDS
        for proc in procs.values():
            proc.join(timeout=max(deadline - time.perf_counter(), 0.1))
            if proc.is_alive():
                terminate = getattr(proc, "terminate", None)
                if terminate is not None:  # pragma: no cover
                    terminate()
                    proc.join(timeout=1.0)
        stats.wall_seconds = time.perf_counter() - start_wall
        _LAST_STATS = stats
        if path is not None:
            os.unlink(path)
