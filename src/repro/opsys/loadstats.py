"""mpstat-style CPU load of one monitoring window.

The controller's LONC definition uses ``u`` — the average load of the
*allocated* cores over a monitoring window (§IV-A).  The
:class:`~repro.core.monitor.Monitor` derives a :class:`LoadSample` with
per-core busy and *useful* percentages from its counter snapshots.

Two utilisation flavours are reported:

``busy``
    wall-clock occupancy of the core (what raw mpstat prints; memory
    stalls count as busy).  This is the paper's ``u`` and the default
    CPU-load strategy's metric.
``useful``
    the retired-compute share, excluding memory stalls — the per-core
    analogue of utilisation inferred from IPC.  Exposed for the
    ``useful_load`` ablation strategy: it makes memory-bandwidth
    saturation visible to the controller, but it also under-allocates
    when demand is queued (stalled-but-busy cores look idle).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LoadSample:
    """One monitoring window's CPU-load picture (percentages, 0..100)."""

    time: float
    window: float
    per_core_busy: dict[int, float]
    per_core_useful: dict[int, float]
    allocated_cores: tuple[int, ...]

    @property
    def per_core(self) -> dict[int, float]:
        """Alias for the busy percentages (the mpstat view)."""
        return self.per_core_busy

    @property
    def average_allocated(self) -> float:
        """The paper's ``u``: mean busy load of the allocated cores."""
        return self._mean(self.per_core_busy, self.allocated_cores)

    @property
    def average_useful_allocated(self) -> float:
        """Mean retired-work share of the allocated cores."""
        return self._mean(self.per_core_useful, self.allocated_cores)

    @staticmethod
    def _mean(values: dict[int, float], cores) -> float:
        if not cores:
            return 0.0
        return sum(values.get(c, 0.0) for c in cores) / len(cores)

    def average_node(self, cores: list[int]) -> float:
        """Mean busy load of an arbitrary core group (e.g. one node)."""
        if not cores:
            return 0.0
        return self._mean(self.per_core_busy, cores)
