"""Coroutine-style simulated activities on top of the event engine.

Periodic probes, phased drivers and other "scripted" behaviours read much
better as generators than as chains of callback re-scheduling.  A process
is a generator that *yields the number of simulated seconds to sleep*;
the runner re-schedules it after each yield:

    def sampler(os_):
        while os_.scheduler.live_threads():
            take_sample(os_)
            yield 0.1                      # sleep 100 ms

    handle = spawn_process(os_.sim, sampler(os_))
    ...
    handle.cancel()                        # optional early stop

The generator finishing (or raising ``StopIteration``) ends the process.
Yielded values must be non-negative numbers.
"""

from __future__ import annotations

from collections.abc import Generator

from ..errors import SimulationError
from .engine import Event, Simulator


class ProcessHandle:
    """Control handle for a spawned process."""

    def __init__(self, sim: Simulator, generator: Generator):
        self._sim = sim
        self._generator = generator
        self._event: Event | None = None
        self.finished = False
        self.cancelled = False

    def _advance(self) -> None:
        self._event = None
        if self.cancelled or self.finished:
            return
        try:
            delay = next(self._generator)
        except StopIteration:
            self.finished = True
            return
        if not isinstance(delay, (int, float)) or delay < 0:
            self.finished = True
            raise SimulationError(
                f"process yielded invalid sleep {delay!r}")
        self._event = self._sim.schedule(float(delay), self._advance)

    def cancel(self) -> None:
        """Stop the process; the pending wake-up (if any) is dropped."""
        self.cancelled = True
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None
        self._generator.close()


def spawn_process(sim: Simulator, generator: Generator,
                  start_delay: float = 0.0) -> ProcessHandle:
    """Start a generator-process; its first step runs after
    ``start_delay`` simulated seconds."""
    handle = ProcessHandle(sim, generator)
    handle._event = sim.schedule(start_delay, handle._advance)
    return handle


def every(interval: float, fn, *args,
          while_condition=None) -> Generator:
    """Build a periodic process body: call ``fn(*args)`` every
    ``interval`` seconds while ``while_condition()`` (if given) holds."""
    if interval <= 0:
        raise SimulationError("interval must be positive")

    def _body():
        while while_condition is None or while_condition():
            fn(*args)
            yield interval

    return _body()
