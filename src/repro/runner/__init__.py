"""Parallel experiment runner: process fan-out and the result cache.

Every figure harness is a sweep of independent *cells* — each cell builds
its own machine, OS and engine from scratch (:func:`build_system` resets
thread ids per cell), runs one configuration and returns a plain result
record.  Cells therefore parallelise embarrassingly: :mod:`.pool` fans
them across persistent spawn-safe worker processes and merges results in
submission order, so a parallel run is bit-identical to the serial one.
The pool ships each run's immutable bulk atoms (TPC-H columns,
warm-start snapshot payloads) to every worker exactly once, as pickle-5
out-of-band buffers in one mapped file, so a forked cell ships
kilobytes of atom references per task instead of re-pickling the
dataset.  :mod:`.cache` replays cells whose inputs are unchanged.

Performance is measured outside the package, by the paper-scale harness
under ``benchmarks/harness/``.
"""

from .cache import ResultCache, configure, current, tree_fingerprint
from .pool import (PoolStats, Task, TaskError, last_pool_stats, resolve,
                   run_tasks)

__all__ = [
    "Task",
    "TaskError",
    "resolve",
    "run_tasks",
    "PoolStats",
    "last_pool_stats",
    "ResultCache",
    "configure",
    "current",
    "tree_fingerprint",
]
