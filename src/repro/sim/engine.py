"""Binary-heap discrete-event simulator.

Design notes
------------
* Time is a float in **seconds**.  The queue is one binary heap of
  ``(time, seq, event)`` tuples; ``seq`` is a monotone, unique sequence
  number, so heap sifts compare floats and ints in C and never reach the
  event itself.
* Delivery contract listeners rely on: events scheduled at equal times
  are delivered in scheduling order, and an event scheduled at delay 0
  from a callback runs before the clock moves (after everything already
  queued at that time).  The ``(time, seq)`` order gives both, so runs
  are fully deterministic.
* Cancellation is *lazy*: :meth:`Simulator.cancel` marks the event and the
  main loop discards it when popped.  Past ``_COMPACT_MIN_DEAD`` dead
  cells, and more dead than half the live count, the heap is rebuilt
  without them; compaction never changes delivery order.
* The engine knows nothing about the domain; components close over whatever
  state they need and hand plain callables to :meth:`Simulator.schedule`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from collections.abc import Callable
from typing import Any

from ..errors import SimulationError

#: events delivered by every Simulator in this process (host telemetry
#: read by the benchmark harness under ``benchmarks/harness/``;
#: deliberately not part of any snapshot)
_DELIVERED_TOTAL = 0

#: compaction floor: below this many dead cells the queue is left alone
#: (tiny queues churn more from rebuilding than from skipping)
_COMPACT_MIN_DEAD = 64


def delivered_total() -> int:
    """Events delivered process-wide since interpreter start."""
    return _DELIVERED_TOTAL


#: the exclusive upper bound of a valid delay or time; one chained
#: comparison against it rejects NaN and both infinities per schedule
_INF = float("inf")


def _rejected(what: str, value: float, fn: Callable[..., Any],
              past: str) -> SimulationError:
    """The error for an invalid ``delay`` or ``time`` of callback ``fn``.

    ``past`` is the message for a finite value before now.  NaN and
    ±inf get their own: NaN fails every comparison, so a NaN key would
    break the heap order, and an infinite one would be delivered and
    leave the clock at ``inf``.
    """
    if not -_INF < value < _INF:
        name = getattr(fn, "__qualname__", repr(fn))
        return SimulationError(f"cannot schedule {name} at {what}={value}")
    return SimulationError(past)


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    The public surface is :attr:`time`, :attr:`cancelled` and
    :meth:`cancel` via the simulator.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "delivered")

    def __init__(self, time: float, fn: Callable[..., Any],
                 args: tuple[Any, ...]):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: set once the loop has popped and invoked the event; guards the
        #: live counter against cancel-after-delivery
        self.delivered = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} {name} {state}>"


class Simulator:
    """The event loop.  One instance drives one experiment."""

    def __init__(self) -> None:
        #: ``(time, seq, event)`` cells in heap order
        self._heap: list[tuple[float, int, Event]] = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        #: not-yet-cancelled events still queued (kept exact so
        #: :meth:`pending` never has to scan the queue)
        self._live = 0
        #: cancelled events still physically queued (lazy cancellation
        #: leaks these until popped or compacted away)
        self._dead = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not 0 <= delay < _INF:
            raise _rejected("delay", delay, fn,
                            f"cannot schedule {delay}s in the past")
        return self._push(None, self._now + delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if not self._now <= time < _INF:
            raise _rejected(
                "time", time, fn,
                f"cannot schedule at t={time} before now={self._now}")
        return self._push(None, time, fn, args)

    def reschedule(self, event: Event, delay: float) -> Event:
        """Re-arm a *delivered or cancelled* event ``delay`` seconds out.

        The allocation-free path for periodic timers: a delivered
        :class:`Event` cell is requeued with a fresh deadline and a
        fresh sequence number, so ordering semantics are exactly those
        of :meth:`schedule` with the same callback.  A *cancelled* event
        is still physically queued at its old key (cancellation is
        lazy), so it cannot be revived in place — the dead cell is left
        to be skipped on pop and a fresh event with the same callback is
        scheduled.  Always use the returned event for further
        cancel/reschedule calls.
        """
        if not 0 <= delay < _INF:
            raise _rejected("delay", delay, event.fn,
                            f"cannot schedule {delay}s in the past")
        if event.cancelled:
            return self._push(None, self._now + delay, event.fn,
                              event.args)
        if not event.delivered:
            raise SimulationError(
                "cannot reschedule an event that is still queued")
        return self._push(event, self._now + delay, event.fn, event.args)

    def _push(self, event: Event | None, time: float,
              fn: Callable[..., Any], args: tuple[Any, ...]) -> Event:
        """Key, queue and count one validated event.

        The one place an event enters the queue: ``event`` is a
        delivered cell to re-arm, or ``None`` to allocate a fresh one.
        """
        self._seq += 1
        if event is None:
            event = Event(time, fn, args)
        else:
            event.time = time
            event.cancelled = False
            event.delivered = False
        heappush(self._heap, (time, self._seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Mark ``event`` so it is dropped instead of delivered."""
        if not (event.cancelled or event.delivered):
            event.cancelled = True
            self._live -= 1
            self._dead += 1
            # queue hygiene: once dead cells outnumber half the live
            # ones (and there are enough to matter), rebuild without
            # them — long runs with heavy cancellation otherwise drag a
            # tail of garbage through every dispatch
            if (self._dead >= _COMPACT_MIN_DEAD
                    and self._dead * 2 > self._live):
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled cells and re-heapify, in place.

        In place because :meth:`run` holds a local reference to the
        heap, so this is safe mid-dispatch.  Keys ``(time, seq)`` are
        unique, so the pop order of the rebuilt heap — and every golden
        trace — is identical to the lazy-skip path it replaces.
        """
        heap = self._heap
        heap[:] = [cell for cell in heap if not cell[2].cancelled]
        heapify(heap)
        self._dead = 0

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1)."""
        return self._live

    def run(self, until: float | None = None,
            max_events: int | None = None) -> int:
        """Run the loop.

        Parameters
        ----------
        until:
            Stop once simulated time would pass this bound (events exactly at
            ``until`` are still delivered).  A bound before now, or NaN,
            raises :class:`SimulationError`: the clock never runs
            backwards.
        max_events:
            Safety valve against runaway simulations.

        Returns
        -------
        int
            Number of events delivered.
        """
        global _DELIVERED_TOTAL
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and not until >= self._now:
            raise SimulationError(
                f"cannot run until={until}: the clock is at now="
                f"{self._now} and never runs backwards")
        self._running = True
        delivered = 0
        bound = _INF if until is None else until
        cap = _INF if max_events is None else max_events
        heap = self._heap
        try:
            # the cap is checked before the bound clamp: a capped-out
            # run must not advance the clock to ``until``
            while heap and delivered < cap:
                time = heap[0][0]
                if time > bound:
                    # every queued time sits at or past the head, so any
                    # live event lies beyond the bound
                    if self._live:
                        self._now = until
                    break
                event = heappop(heap)[2]
                if event.cancelled:
                    self._dead -= 1
                    continue
                self._live -= 1
                event.delivered = True
                self._now = time
                event.fn(*event.args)
                delivered += 1
        finally:
            self._running = False
            _DELIVERED_TOTAL += delivered
        return delivered

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Drain every event; convenience wrapper over :meth:`run`."""
        return self.run(max_events=max_events)

    # ------------------------------------------------------------------
    # snapshot / fork

    def snapshot(self, root: Any = None, shared: tuple = ()):
        """Capture this simulation for later forking.

        ``root`` widens the capture to a larger graph containing the
        simulator (a whole system under test); by default only the
        simulator itself — event heap, clock, sequence and live counters,
        and everything reachable through queued callbacks — is captured.
        ``shared`` externalises immutable atoms by identity (see
        :class:`~repro.sim.state.SimState`).  Not callable from inside
        the dispatch loop: a mid-delivery queue has no consistent state.
        """
        if self._running:
            raise SimulationError("cannot snapshot while run() is active")
        from .state import SimState
        return SimState.capture(self if root is None else root,
                                shared=shared)
