"""Spawn-worker fan-out with zero-copy shared atoms.

Tasks name their function as a ``"module:attr"`` spec string instead of
a bare callable: spec strings pickle under every start method, survive
``__main__`` aliasing, and make the task list printable.  Workers import
the module and call the attribute with the task's kwargs.

The pool is the standard library's
:class:`~concurrent.futures.ProcessPoolExecutor` on the ``spawn`` start
context.  ``fork`` would be faster to start but inherits the parent's
dataset cache, open telemetry recorders and heap layout — ``spawn``
guarantees every worker starts from the same cold, deterministic state
a serial run starts from.  Workers live for one run: each attaches the
run's shared atoms once (the executor's ``initializer``), imports
experiment modules once, and keeps its warmed dataset cache across
tasks.

The atoms are the run's bulk immutable data — every
:class:`~repro.sim.state.SimState` capture's shared atoms and payload,
and bare numpy arrays in the kwargs — collected by identity and pickled
once with protocol 5 into one temp file: the raw array buffers out of
band, then the small in-band header and the buffer spans.  Workers get
only the file's path and ``mmap`` it read-only, so their arrays are
zero-copy views.  Task and result pickles carry each atom as its
position in that tuple (:func:`~repro.sim.state.dumps_shared`), so a
forked cell ships kilobytes instead of the dataset.  Before writing its
file, a run deletes the atom files of runs killed before their cleanup.
Results are read back future by future in submission order, so parallel
output is bit-identical to serial regardless of completion order.

Each parallel execution records a :class:`PoolStats` — per-worker
utilisation, shipped IPC bytes, out-of-band atom bytes — retrievable via
:func:`last_pool_stats`.

A failing task raises :class:`TaskError` carrying the task's ``fn``
spec, its canonicalised kwargs and the worker's traceback.  A worker
that *dies* (hard exit, signal) breaks the executor and fails the whole
run with a :class:`~repro.errors.ReproError` naming the tasks that got
no result.
"""

from __future__ import annotations

import importlib
import json
import mmap
import os
import pickle
import tempfile
import time
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import ReproError
from ..sim.state import SimState, dumps_shared, loads_shared

# concurrent.futures is imported where a pool runs: serial runs, the
# only kind most processes make, never load it or its dependencies
if TYPE_CHECKING:
    from concurrent.futures import Executor, Future

#: kwargs nesting depth scanned for shared atoms
_SCAN_DEPTH = 3

#: out-of-band buffers start on cache-line boundaries in the atom file
_ALIGN = 64

#: byte width of the atom file's trailing index-length field
_LENGTH_BYTES = 8

#: name prefix of an atom file in the temp directory; the pid of the
#: process that wrote it follows
_ATOM_PREFIX = "repro_atoms_"


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
    #: worker pid -> seconds spent executing tasks
    busy_seconds: dict[int, float] = field(default_factory=dict)

    @property
    def ipc_bytes_shipped(self) -> int:
        """Per-task bytes that crossed the process boundary, both ways."""
        return self.ipc_task_bytes + self.ipc_result_bytes

    def worker_utilisation(self) -> dict[str, float]:
        """worker pid -> busy fraction of the pool's wall clock."""
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
    at most ``parallel`` spawn workers: shared atoms publish once into
    a mapped file, and results are read back in submission order, so
    parallel output is bit-identical to serial.

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
    return _run_pool(task_list, min(parallel, len(task_list)),
                     stats=stats)


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


def _publish(atoms: tuple[Any, ...], file: Any) -> int:
    """Pickle ``atoms`` once into ``file``; returns the out-of-band bytes.

    The raw buffers come first, each on an ``_ALIGN`` boundary.  The
    in-band header and every buffer's ``(offset, size)`` span follow,
    pickled together as the index, and the index's length closes the
    file, so :func:`_attach` needs nothing but the path.
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
    index = pickle.dumps((header, spans), protocol=5)
    file.write(index)
    file.write(len(index).to_bytes(_LENGTH_BYTES, "little"))
    return sum(size for _, size in spans)


def _remove_orphaned_atoms() -> None:
    """Delete atom files whose writing process no longer exists.

    :func:`_run_pool` unlinks its file on the way out, but a SIGTERM or
    SIGKILL skips that.  A file is kept while its pid is alive, and
    when the pid's liveness cannot be read (another user's process).
    """
    directory = tempfile.gettempdir()
    for name in os.listdir(directory):
        if not name.startswith(_ATOM_PREFIX):
            continue
        pid = name[len(_ATOM_PREFIX):].partition("_")[0]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            try:
                os.unlink(os.path.join(directory, name))
            except FileNotFoundError:
                pass  # a concurrent run removed it first
        except (PermissionError, OverflowError):
            pass  # alive under another user, or too large to be a pid


def _attach(path: str) -> tuple[Any, ...]:
    """Rebuild the atoms :func:`_publish` wrote, over a read-only map.

    Arrays become read-only zero-copy views of the mapping, which
    their buffers keep alive for as long as the arrays live.
    """
    with open(path, "rb") as file:
        view = memoryview(mmap.mmap(file.fileno(), 0,
                                    access=mmap.ACCESS_READ))
    end = len(view) - _LENGTH_BYTES
    header, spans = pickle.loads(
        view[end - int.from_bytes(view[end:], "little"):end])
    return pickle.loads(header, buffers=[
        view[offset:offset + size] for offset, size in spans])


#: this worker's attached atoms and their positions by identity, set
#: once per worker by :func:`_attach_worker`
_WORKER_ATOMS: tuple[tuple[Any, ...], dict[int, int]] = ((), {})


def _attach_worker(path: str) -> None:
    """Executor initializer: attach the run's atoms once per worker."""
    global _WORKER_ATOMS
    atoms = _attach(path)
    _WORKER_ATOMS = atoms, {id(atom): i for i, atom in enumerate(atoms)}


def _serve(payload: bytes) -> tuple[int, float, bytes, dict | None]:
    """Run one shipped task in a worker.

    Returns ``(pid, busy seconds, result pickle, failure record)``.  The
    result pickles with attached atoms externalised back to their
    positions, so bulk data never travels the result pipe either.  A
    failure comes back as a plain record, not raised: default exception
    pickling would drop a :class:`TaskError`'s ``fn`` and ``kwargs``.
    """
    # read once: thread-backed executors share this module and re-attach
    # per thread, so a task must pair atoms and positions from one attach
    atoms, positions = _WORKER_ATOMS
    start = time.perf_counter()
    body = b""
    failure: dict | None = None
    try:
        value = _invoke(loads_shared(payload, atoms))
        body = dumps_shared(value, positions)
    except Exception as exc:
        failure = _failure_info(exc)
    return os.getpid(), time.perf_counter() - start, body, failure


def _spawn_executor(**kwargs: Any) -> Executor:
    """The executor :func:`run_tasks` fans out on."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(mp_context=get_context("spawn"), **kwargs)


def _run_pool(task_list: list[Task], workers: int,
              stats: PoolStats | None = None,
              executor: Callable[..., Executor] = _spawn_executor
              ) -> list[Any]:
    """Run tasks on ``workers`` pool workers; values in submission order.

    The engine behind :func:`run_tasks`'s parallel path.  ``executor``
    builds the pool from ``max_workers``, ``initializer`` and
    ``initargs`` keywords; the property suite passes
    :class:`~concurrent.futures.ThreadPoolExecutor` to run the same
    path without spawning processes.  The first failure in submission
    order raises and cancels the tasks not yet started.  Workers are
    joined before this returns or raises, so their CPU time is in the
    caller's ``RUSAGE_CHILDREN``.
    """
    global _LAST_STATS
    from concurrent.futures import BrokenExecutor
    if stats is None:
        stats = PoolStats()
    stats.workers = workers
    start_wall = time.perf_counter()
    futures: list[Future] = []
    path: str | None = None
    try:
        found = {id(atom): atom for task in task_list
                 for atom in _collect_atoms(task.kwargs)}
        atoms = tuple(found.values())
        positions = {id(atom): i for i, atom in enumerate(atoms)}
        payloads: list[bytes] = []
        for task in task_list:
            try:
                payloads.append(dumps_shared(task, positions))
            except (pickle.PicklingError, AttributeError,
                    TypeError) as exc:
                described = _describe_kwargs(task.kwargs)
                raise TaskError(
                    f"task {task.fn!r} cannot be shipped to a worker: "
                    f"{exc}\n  kwargs: {described}",
                    fn=task.fn, kwargs=described) from exc
        stats.ipc_task_bytes = sum(map(len, payloads))
        _remove_orphaned_atoms()
        fd, path = tempfile.mkstemp(
            prefix=f"{_ATOM_PREFIX}{os.getpid()}_")
        with os.fdopen(fd, "wb") as file:
            stats.shm_bytes = _publish(atoms, file)
        pool = executor(max_workers=workers, initializer=_attach_worker,
                        initargs=(path,))
        try:
            futures = [pool.submit(_serve, payload)
                       for payload in payloads]
            values: list[Any] = []
            for task, future in zip(task_list, futures):
                pid, seconds, body, failure = future.result()
                stats.tasks += 1
                stats.ipc_result_bytes += len(body)
                stats.busy_seconds[pid] = (
                    stats.busy_seconds.get(pid, 0.0) + seconds)
                if failure is not None:
                    raise _failure_error(failure, task)
                try:
                    values.append(loads_shared(body, atoms))
                except Exception as exc:
                    raise TaskError(
                        f"cannot deserialise the result of task "
                        f"{task.fn!r}: {exc}", fn=task.fn) from exc
            return values
        finally:
            pool.shutdown(cancel_futures=True)
    except BrokenExecutor as exc:
        # the executor cannot tell which task a dead worker was running,
        # only which futures never got a result
        returned = [future.done() and not future.cancelled()
                    and future.exception() is None for future in futures]
        lost = [f"#{index} {task.fn}"
                for index, task in enumerate(task_list)
                if index >= len(returned) or not returned[index]]
        raise ReproError(
            f"a pool worker died (hard exit or signal), failing the "
            f"whole run; {len(lost)} task(s) got no result: "
            f"{', '.join(lost)}") from exc
    finally:
        stats.wall_seconds = time.perf_counter() - start_wall
        _LAST_STATS = stats
        if path is not None:
            os.unlink(path)
