"""Multi-seed trials: mean/spread statistics over repeated experiments.

Single runs of the mixed workloads carry sampling noise (each query
appears only a handful of times per run).  :func:`run_trials` repeats a
harness over several seeds and aggregates any scalar metrics extracted
from each result, giving the headline numbers in EXPERIMENTS.md an
error bar.

Example::

    stats = run_trials(
        lambda seed: fig19_mixed_phases.run(seed=seed,
                                            modes=(None, "adaptive")),
        extract=lambda r: {"speedup": r.mean_speedup()},
        seeds=(1, 2, 3, 4, 5))
    print(stats.table())
    stats.mean("speedup"), stats.std("speedup")
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..errors import ReproError


@dataclass
class TrialStats:
    """Per-metric samples across seeds."""

    seeds: tuple[int, ...]
    samples: dict[str, list[float]] = field(default_factory=dict)

    def add(self, metrics: dict[str, float]) -> None:
        """Record one trial's extracted metrics."""
        for name, value in metrics.items():
            self.samples.setdefault(name, []).append(float(value))

    def mean(self, name: str) -> float:
        """Sample mean of one metric."""
        values = self._values(name)
        return sum(values) / len(values)

    def std(self, name: str) -> float:
        """Sample standard deviation (ddof=1; 0.0 for one sample)."""
        values = self._values(name)
        if len(values) < 2:
            return 0.0
        mu = self.mean(name)
        return math.sqrt(sum((v - mu) ** 2 for v in values)
                         / (len(values) - 1))

    def minmax(self, name: str) -> tuple[float, float]:
        """(min, max) of one metric."""
        values = self._values(name)
        return min(values), max(values)

    def _values(self, name: str) -> list[float]:
        if name not in self.samples or not self.samples[name]:
            raise ReproError(f"no samples for metric {name!r}")
        return self.samples[name]

    def rows(self) -> list[list[object]]:
        """One row per metric."""
        out = []
        for name in self.samples:
            lo, hi = self.minmax(name)
            out.append([name, self.mean(name), self.std(name), lo, hi,
                        len(self.samples[name])])
        return out

    def table(self) -> str:
        """The statistics as a text table."""
        return render_table(
            ["metric", "mean", "std", "min", "max", "n"],
            self.rows(),
            title=f"Trials over seeds {list(self.seeds)}")


def _call_runner(runner: Callable[[int], object] | str,
                 seed: int) -> object:
    """Worker entry point for one trial (resolves spec-string runners)."""
    if isinstance(runner, str):
        from ..runner.pool import resolve
        runner = resolve(runner)
    return runner(seed)


def run_trials(runner: Callable[[int], object] | str,
               extract: Callable[[object], dict[str, float]],
               seeds: Iterable[int] = (1, 2, 3, 4, 5),
               parallel: int = 1) -> TrialStats:
    """Run ``runner(seed)`` per seed and aggregate ``extract(result)``.

    Trials are independent by construction (the seed is the only input),
    so ``parallel > 1`` fans them across worker processes; results merge
    in seed order, so the statistics match a serial run exactly.  A
    parallel ``runner`` must be picklable — a module-level function or,
    for lambdas/closures, a ``"module:attr"`` spec string.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ReproError("need at least one seed")
    stats = TrialStats(seeds=seeds)
    if parallel > 1 and len(seeds) > 1:
        from ..runner.pool import Task, run_tasks

        results = run_tasks(
            [Task("repro.experiments.trials:_call_runner",
                  dict(runner=runner, seed=seed)) for seed in seeds],
            parallel=parallel)
        for result in results:
            stats.add(extract(result))
        return stats
    for seed in seeds:
        stats.add(extract(_call_runner(runner, seed)))
    return stats
