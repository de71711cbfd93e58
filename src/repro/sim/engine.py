"""Calendar-queue discrete-event simulator.

Design notes
------------
* Time is a float in **seconds**.  Events scheduled at equal times are
  delivered in scheduling order (a monotone sequence number breaks ties), so
  runs are fully deterministic.
* Cancellation is *lazy*: :meth:`Simulator.cancel` marks the event and the
  main loop discards it when popped.  This keeps scheduling O(1) without
  queue surgery.
* The engine knows nothing about the domain; components close over whatever
  state they need and hand plain callables to :meth:`Simulator.schedule`.

Tiered calendar queue
---------------------
The first implementations kept one global binary heap of events; every
schedule and pop paid ``O(log n)`` sifts through Python-level
``Event.__lt__`` calls.  Simulated workloads are overwhelmingly
*near-future* and *clustered*: scheduler quanta, balance ticks and chunk
completions all land within a few tick quanta of ``now``, and many share
an exact timestamp (a chunk fan-out scheduled in one loop iteration).
The queue is therefore tiered:

* **Near tier** — a calendar of exact-timestamp buckets:
  ``dict[time -> list[Event]]`` plus a heap of the *distinct* times.
  Scheduling into an existing bucket is one dict probe and an append —
  O(1) — and the time-heap sifts compare raw floats in C instead of
  calling ``Event.__lt__``.  Because the sequence counter is monotone,
  appends keep every bucket sorted by ``seq`` for free, and the dispatch
  loop **batch-dequeues a whole bucket per pop**: one heap operation
  delivers every event sharing that timestamp.
* **Far tier** — a plain heap of ``(time, seq, event)`` tuples for
  events beyond the near *horizon* (irregular, far-future work: idle
  tails, client think times).  When the near tier drains, the horizon
  advances by ``near_span`` — sized to cover a burst of scheduler tick
  quanta — and due far events migrate into calendar buckets in
  ``(time, seq)`` order, which preserves bucket ordering exactly.

Batch dispatch contract: all events sharing a timestamp are delivered
back-to-back in scheduling (``seq``) order before time advances.  A
callback that schedules *at the current time* appends to the live bucket
and is delivered in the same batch, after everything already queued —
precisely the order the global heap produced.  Delivery order,
tie-breaking, lazy-cancel semantics and error cases are bit-identical to
the seed heap implementation; ``tests/test_props_sim_fastpath.py`` and
``tests/test_props_calendar_queue.py`` pin the equivalence against a
straight reimplementation of the original loop, and the golden traces
pin it end-to-end.

Compaction note: heavy cancellation still leaks dead cells until popped;
past the same threshold as the seed heap (``>= 64`` dead and more dead
than half the live count) the queue rebuilds without them.  Mid-run the
rebuild is deferred to the next bucket boundary — the dispatch loop
holds a reference into the live bucket — which is invisible from
outside: compaction never changes delivery order, only memory shape.
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

#: default near-tier horizon extent in simulated seconds: a dozen or so
#: scheduler tick quanta (0.004 s) / a few balance intervals (0.02 s),
#: so periodic timers and chunk completions land in calendar buckets
#: and only genuinely far-future work falls back to the heap tier
_NEAR_SPAN = 0.05


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
    ±inf get their own: NaN fails every comparison, so a NaN event would
    reach the far tier and stall the horizon forever, and an infinite
    one would be delivered and leave the clock at ``inf``.
    """
    if not -_INF < value < _INF:
        name = getattr(fn, "__qualname__", repr(fn))
        return SimulationError(f"cannot schedule {name} at {what}={value}")
    return SimulationError(past)


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Instances order by ``(time, seq)``; the far tier wraps them in
    ``(time, seq, event)`` tuples so heap sifts compare in C.  The
    public surface is :attr:`time`, :attr:`cancelled` and :meth:`cancel`
    via the simulator.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "delivered")

    def __init__(self, time: float, seq: int,
                 fn: Callable[..., Any], args: tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: set once the loop has popped and invoked the event; guards the
        #: live counter against cancel-after-delivery
        self.delivered = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} {name} {state}>"


class Simulator:
    """The event loop.  One instance drives one experiment."""

    def __init__(self, near_span: float = _NEAR_SPAN) -> None:
        #: near tier: exact-timestamp calendar buckets, each a list of
        #: events in scheduling (seq) order
        self._buckets: dict[float, list[Event]] = {}
        #: heap of the distinct bucket times (invariant: exactly the
        #: keys of ``_buckets``, no duplicates)
        self._times: list[float] = []
        #: far tier: ``(time, seq, event)`` tuples beyond the horizon
        self._far: list[tuple[float, int, Event]] = []
        #: events at or below this absolute time go into buckets
        self._horizon = near_span
        self._span = near_span
        self._now = 0.0
        self._seq = 0
        self._running = False
        #: not-yet-cancelled events still queued (kept exact so
        #: :meth:`pending` never has to scan the queue)
        self._live = 0
        #: cancelled events still physically queued (lazy cancellation
        #: leaks these until popped or compacted away)
        self._dead = 0
        #: compaction requested mid-dispatch; honoured at the next
        #: bucket boundary (the loop holds a live bucket reference)
        self._compact_pending = False

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
        """Key, route and count one validated event.

        The one place an event enters the queue: ``event`` is a
        delivered cell to re-arm, or ``None`` to allocate a fresh one.
        It gets the next sequence number and lands in its near-tier
        bucket or on the far heap.
        """
        self._seq += 1
        if event is None:
            event = Event(time, self._seq, fn, args)
        else:
            event.time = time
            event.seq = self._seq
            event.cancelled = False
            event.delivered = False
        if time <= self._horizon:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [event]
                heappush(self._times, time)
            else:
                bucket.append(event)
        else:
            heappush(self._far, (time, self._seq, event))
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
                if self._running:
                    self._compact_pending = True
                else:
                    self._compact()

    def _compact(self) -> None:
        """Drop cancelled cells and rebuild both tiers, in place.

        In place because :meth:`run` holds local references to the
        bucket dict and time heap.  Event keys ``(time, seq)`` are
        unique, so the pop order of the rebuilt queue — and every golden
        trace — is bit-identical to the lazy-skip path it replaces.
        """
        buckets = self._buckets
        for time in list(buckets):
            bucket = buckets[time]
            bucket[:] = [event for event in bucket if not event.cancelled]
            if not bucket:
                del buckets[time]
        self._times[:] = buckets
        heapify(self._times)
        self._far[:] = [cell for cell in self._far
                        if not cell[2].cancelled]
        heapify(self._far)
        self._dead = 0
        self._compact_pending = False

    def _advance_horizon(self) -> None:
        """Near tier drained: slide the horizon and migrate due events.

        The far heap pops in ``(time, seq)`` order, so appends land in
        every bucket already sorted by sequence number — the batch
        dispatch contract survives migration unchanged.
        """
        far = self._far
        horizon = far[0][0] + self._span
        buckets = self._buckets
        times = self._times
        while far and far[0][0] <= horizon:
            time, _seq, event = heappop(far)
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = [event]
                heappush(times, time)
            else:
                bucket.append(event)
        self._horizon = horizon

    def _queued(self) -> int:
        """Events physically queued, dead cells included (test hook)."""
        return sum(map(len, self._buckets.values())) + len(self._far)

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1)."""
        return self._live

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        buckets = self._buckets
        times = self._times
        while True:
            while times:
                time = times[0]
                bucket = buckets[time]
                drop = 0
                n = len(bucket)
                while drop < n and bucket[drop].cancelled:
                    drop += 1
                if drop:
                    del bucket[:drop]
                    self._dead -= drop
                if bucket:
                    return time
                del buckets[time]
                heappop(times)
            if not self._far:
                return None
            self._advance_horizon()

    def step(self) -> bool:
        """Deliver the next event.  Returns ``False`` when none remain."""
        global _DELIVERED_TOTAL
        if self.peek_time() is None:
            return False
        time = self._times[0]
        bucket = self._buckets[time]
        event = bucket.pop(0)
        if not bucket:
            del self._buckets[time]
            heappop(self._times)
        self._live -= 1
        event.delivered = True
        self._now = time
        event.fn(*event.args)
        _DELIVERED_TOTAL += 1
        return True

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
        # the batch dispatch loop: one time-heap pop delivers a whole
        # same-timestamp bucket, all through locals.  Callbacks may
        # append to the live bucket (zero-delay schedules, re-armed
        # timers); the index loop re-reads the length so those are
        # delivered in the same batch, in seq order.
        buckets = self._buckets
        times = self._times
        try:
            while True:
                # the cap is checked before the bound clamp: a capped-out
                # run must not advance the clock to ``until`` (seed order)
                if max_events is not None and delivered >= max_events:
                    break
                if self._compact_pending:
                    self._compact()
                if not times:
                    if not self._far:
                        break
                    self._advance_horizon()
                    continue
                time = times[0]
                if until is not None and time > until:
                    # all queued times sit at or past the bucket
                    # minimum, so any live event lies beyond the bound
                    if self._live:
                        self._now = until
                    break
                bucket = buckets[time]
                i = 0
                dead = 0
                while i < len(bucket):
                    event = bucket[i]
                    if event.cancelled:
                        i += 1
                        dead += 1
                        continue
                    if max_events is not None and delivered >= max_events:
                        break
                    i += 1
                    self._live -= 1
                    event.delivered = True
                    self._now = time
                    event.fn(*event.args)
                    delivered += 1
                self._dead -= dead
                if i < len(bucket):
                    # max_events tripped mid-bucket: drop the consumed
                    # prefix and leave the rest for the next run() call
                    del bucket[:i]
                    break
                del buckets[time]
                heappop(times)
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
        simulator itself — calendar, clock, sequence and live counters,
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

    @staticmethod
    def restore(state) -> Any:
        """Fork a captured graph; see :meth:`SimState.restore`."""
        return state.restore()
