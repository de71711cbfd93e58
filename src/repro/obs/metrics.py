"""The metrics registry: counters, gauges and fixed-bucket histograms.

Every instrumented component publishes under a dotted per-component
namespace (``controller.ticks``, ``scheduler.migrations``,
``db.query_seconds`` ...), so one registry aggregates a whole run and the
exporters can render it without knowing who emitted what.

Two design rules keep the hot paths cheap:

* instruments are **bound once** — components look their counter up at
  construction time and then call ``inc()`` directly, so steady-state
  recording is one method call with no dict access;
* the **null registry** hands out shared no-op singletons, so code
  instrumented against a disabled recorder pays only the call itself
  (asserted by ``benchmarks/test_obs_overhead.py``).

Histogram buckets are *fixed at creation* (no dynamic resizing), which
makes snapshots mergeable across runs.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Sequence

from ..errors import ReproError

#: second-scale latency buckets (simulated chunk/stage/query durations)
TIME_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0)

#: metric-value buckets covering both %-scale (0-100) and ratio (0-1)
#: controller strategies
VALUE_BUCKETS = (0.1, 0.25, 0.5, 1.0, 10.0, 25.0, 50.0, 70.0, 90.0, 100.0)

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")


def check_name(name: str) -> str:
    """Validate a dotted metric name; returns it unchanged."""
    if not _NAME_RE.match(name):
        raise ReproError(
            f"bad metric name {name!r}: want dotted lower-case "
            f"segments like 'controller.ticks'")
    return name


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease")
        self.value += amount

    def as_dict(self) -> dict:
        """Snapshot for JSON export."""
        return {"name": self.name, "kind": "counter", "value": self.value}


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the level by ``amount`` (may be negative)."""
        self.value += amount

    def as_dict(self) -> dict:
        """Snapshot for JSON export."""
        return {"name": self.name, "kind": "gauge", "value": self.value}


class Histogram:
    """Fixed-boundary histogram with sum/count/min/max.

    ``boundaries`` are upper bucket edges in increasing order; one
    implicit overflow bucket catches everything above the last edge.
    """

    __slots__ = ("name", "boundaries", "bucket_counts", "total", "count",
                 "min", "max")

    kind = "histogram"

    def __init__(self, name: str,
                 boundaries: Sequence[float] = TIME_BUCKETS):
        edges = tuple(float(b) for b in boundaries)
        if not edges or any(a >= b for a, b in zip(edges, edges[1:])):
            raise ReproError(
                f"histogram {name} needs strictly increasing boundaries")
        self.name = name
        self.boundaries = edges
        self.bucket_counts = [0] * (len(edges) + 1)
        self.total = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.total += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """Snapshot for JSON export."""
        return {
            "name": self.name, "kind": "histogram",
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
            "sum": self.total, "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class MetricsRegistry:
    """Get-or-create home for every instrument of one run."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, kind: type, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(check_name(name), *args)
            self._instruments[name] = instrument
        elif type(instrument) is not kind:
            raise ReproError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  boundaries: Sequence[float] = TIME_BUCKETS,
                  ) -> Histogram:
        """The histogram called ``name`` (created on first use).

        ``boundaries`` only applies on creation; later calls return the
        existing instrument regardless.
        """
        return self._get(name, Histogram, boundaries)

    def get(self, name: str):
        """Look up an existing instrument or raise."""
        if name not in self._instruments:
            raise ReproError(f"unknown metric {name!r}")
        return self._instruments[name]

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def all(self) -> list[object]:
        """Every instrument, sorted by name."""
        return [self._instruments[n] for n in self.names()]

    def snapshot(self) -> list[dict]:
        """JSON-ready snapshot of every instrument."""
        return [i.as_dict() for i in self.all()]  # type: ignore[attr-defined]


# ----------------------------------------------------------------------
# the disabled fast path
# ----------------------------------------------------------------------

class NullCounter:
    """No-op counter: recording against it costs one method call."""

    __slots__ = ()

    kind = "counter"
    name = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Discard the observation."""

    def as_dict(self) -> dict:
        return {"name": "null", "kind": "counter", "value": 0.0}


class NullGauge:
    """No-op gauge."""

    __slots__ = ()

    kind = "gauge"
    name = "null"
    value = 0.0

    def set(self, value: float) -> None:
        """Discard the observation."""

    def inc(self, amount: float = 1.0) -> None:
        """Discard the observation."""

    def as_dict(self) -> dict:
        return {"name": "null", "kind": "gauge", "value": 0.0}


class NullHistogram:
    """No-op histogram."""

    __slots__ = ()

    kind = "histogram"
    name = "null"
    count = 0
    total = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        """Discard the observation."""

    def as_dict(self) -> dict:
        return {"name": "null", "kind": "histogram", "count": 0}


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullMetricsRegistry:
    """Hands out shared no-op instruments; holds nothing."""

    enabled = False

    def counter(self, name: str) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str,
                  boundaries: Sequence[float] = TIME_BUCKETS,
                  ) -> NullHistogram:
        return _NULL_HISTOGRAM

    def names(self) -> list[str]:
        return []

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False

    def all(self) -> list[object]:
        return []

    def snapshot(self) -> list[dict]:
        return []
