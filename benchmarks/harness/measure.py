"""Host-speed normalisation, resource accounting and summary statistics.

The calibration host (a shared 2-vCPU Xeon VM) changes speed in phases
that last from half a second to a few seconds: back-to-back runs of
identical code have differed by up to 64 % in raw wall time.  So every
cell is timed in *reference-host seconds*:

* a fixed reference loop - strided reads over a list plus dict updates,
  the same kind of pointer-chasing, dict-heavy work the simulator does -
  is sampled before every cell, after the last one, and every
  :data:`SAMPLE_INTERVAL_S` while a cell runs (from a ``SIGALRM``
  handler, between bytecodes of the harness thread);
* the cell's wall time, minus the time spent in those samples, is scaled
  by ``R0_SECONDS / mean(samples)``.

Boundary samples alone track the host badly across a one-second cell;
sampling inside the cell cut the pass-to-pass spread of normalised time
from 6.6 % to 2.5 % on ``q6-concurrency`` (see README.md).

A *pooled* cell runs worker processes on every core, and its in-cell
samples differ in two ways.  A wall-clock sample would measure
time-slicing against the cell's own workers, so they read thread CPU
time.  And the cores' speeds move independently of each other (one
read 0.7 to 1.5 times the other over 40 s), while the workers run on
all of them, so the samples are pinned to each core in turn and the
cell is scaled by the mean of the per-core references.  Unpinned
samples measured whichever core the harness happened to wake on: they
raised the pass-to-pass spread of ``fanout-p2`` from 7.8 % raw to
13.2 %, where pinned ones cut 9.5 % to 6.0 % (20 passes, same seed).

A set-up launch runs in a child process and is normalised by boundary
samples only: in-launch samples, wall or CPU, doubled its spread over
30 launches (12.7 % against 2.6 %).
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field

#: 2 MB of list slots: kept for the whole run, so it is a constant in the
#: peak resident set rather than a transient that lands on a cell's peak
REFERENCE_ELEMENTS = 1 << 18
REFERENCE_STRIDE = 16

#: reference-loop samples per boundary measurement (their median)
BOUNDARY_SAMPLES = 5

#: seconds between samples taken while a cell runs
SAMPLE_INTERVAL_S = 0.1

#: one reference sample's seconds on the calibration host (2-vCPU Xeon
#: VM, Python 3.11, in its fast phase); a constant, so normalised numbers
#: from different runs and revisions are in the same unit
R0_SECONDS = 0.0018


class ReferenceLoop:
    """The fixed reference work; one call is one sample."""

    def __init__(self) -> None:
        self._data = list(range(256)) * (REFERENCE_ELEMENTS // 256)

    def sample(self) -> tuple[float, float]:
        """(wall seconds, thread CPU seconds) of one run of the loop."""
        data = self._data
        index: dict[int, int] = {}
        acc = 0
        wall, cpu = time.perf_counter(), time.thread_time()
        for i in range(0, REFERENCE_ELEMENTS, REFERENCE_STRIDE):
            acc += data[i]
            index[acc & 4095] = i
        return time.perf_counter() - wall, time.thread_time() - cpu

    def boundary(self) -> tuple[float, float]:
        """Median of :data:`BOUNDARY_SAMPLES` samples, per clock."""
        samples = [self.sample() for _ in range(BOUNDARY_SAMPLES)]
        return (statistics.median(s[0] for s in samples),
                statistics.median(s[1] for s in samples))


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + children.ru_utime
            + children.ru_stime)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _trimmed_mean(values) -> float:
    """Mean without the slowest and fastest tenth (one preempted sample
    would otherwise skew a short cell)."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


@dataclass
class CellTiming:
    """One cell's raw and normalised cost."""

    wall_s: float
    cpu_s: float
    #: reference samples: boundary before, in-cell ones, boundary after
    samples: list[tuple[float, float]]
    #: wall and CPU seconds the in-cell samples took
    sampling_s: float = 0.0
    sampling_cpu_s: float = 0.0
    #: a pooled cell's in-cell thread-CPU samples, by the core they ran on
    per_core: dict[int, list[float]] | None = None

    @property
    def reference_s(self) -> float:
        """Reference-sample seconds during the cell: for a pooled cell
        the mean of its per-core references, otherwise the wall-clock
        samples around and inside it."""
        if self.per_core:
            return statistics.fmean(map(_trimmed_mean,
                                        self.per_core.values()))
        return _trimmed_mean(s[0] for s in self.samples)

    @property
    def scale(self) -> float:
        """Reference-host seconds per local second during this cell."""
        return R0_SECONDS / self.reference_s

    @property
    def norm_wall_s(self) -> float:
        return (self.wall_s - self.sampling_s) * self.scale

    @property
    def norm_cpu_s(self) -> float:
        return (self.cpu_s - self.sampling_cpu_s) * self.scale


@dataclass
class HostClock:
    """Times cells in reference-host seconds.

    Per cell: ``start`` arms in-cell sampling, ``disarm`` stops it as
    soon as the cell returns, and ``finish`` takes the boundary after it.
    """

    loop: ReferenceLoop = field(default_factory=ReferenceLoop)
    #: every boundary measurement, in order
    boundaries: list[tuple[float, float]] = field(default_factory=list)
    #: wall seconds spent in in-cell samples over the clock's life
    sampling_total_s: float = 0.0
    #: the cores this process may run on; a pooled cell samples each
    cores: frozenset[int] = field(
        default_factory=lambda: frozenset(os.sched_getaffinity(0)))
    _inside: list[tuple[float, float]] = field(default_factory=list)
    _per_core: dict[int, list[float]] | None = None
    _spent: list[float] = field(default_factory=lambda: [0.0, 0.0])
    _armed: bool = False
    _previous_handler: object = None

    def _pinned_sample(self) -> tuple[float, float]:
        """One sample on the next core in turn; the affinity is back to
        every core before the handler returns, so workers spawned by
        the cell keep all of them."""
        cores = sorted(self.cores)
        core = cores[len(self._inside) % len(cores)]
        os.sched_setaffinity(0, {core})
        try:
            sample = self.loop.sample()
        finally:
            os.sched_setaffinity(0, self.cores)
        self._per_core.setdefault(core, []).append(sample[1])
        return sample

    def _on_alarm(self, signum, frame) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        self._inside.append(self.loop.sample() if self._per_core is None
                            else self._pinned_sample())
        wall = time.perf_counter() - wall
        self._spent[0] += wall
        self._spent[1] += time.thread_time() - cpu
        self.sampling_total_s += wall

    def now(self) -> float:
        """A wall clock that stands still while a sample runs.

        The per-layer ledger reads it, so sampling time never lands in
        a layer's self time.
        """
        return time.perf_counter() - self.sampling_total_s

    def start(self, inside: bool = True, pooled: bool = False) -> None:
        """Boundary before a cell; ``inside`` arms in-cell sampling,
        ``pooled`` pins those samples to each core in turn.

        The boundary after the previous cell doubles as this one's: only
        the checks and a garbage collection, tens of milliseconds, run
        in between, and the host's speed phases last far longer.
        """
        if not self.boundaries:
            self.boundaries.append(self.loop.boundary())
        self._inside = []
        self._per_core = {} if pooled else None
        self._spent = [0.0, 0.0]
        if inside:
            self._previous_handler = signal.signal(signal.SIGALRM,
                                                   self._on_alarm)
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)

    def disarm(self) -> None:
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._armed = False

    def finish(self, wall_s: float, cpu_s: float) -> CellTiming:
        """Take the boundary after the cell and build its timing."""
        before = self.boundaries[-1]
        self.boundaries.append(self.loop.boundary())
        return CellTiming(wall_s, cpu_s,
                          [before, *self._inside, self.boundaries[-1]],
                          self._spent[0], self._spent[1], self._per_core)


def summarise(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and n."""
    if not values:
        return {"n": 0, "median": None, "q1": None, "q3": None}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}
