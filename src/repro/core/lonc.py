"""The Local Optimum Number of Cores (LONC), paper §IV-A, Eq. 1.

    for every workload w there is an nalloc such that
        thmin < u < thmax   and   p(nalloc) >= p(ntotal)

i.e. a core count keeping the per-core load inside the stable band while
performing at least as well as exposing all cores.  The controller *seeks*
the LONC by construction (it allocates on Overload and releases on Idle);
:func:`lonc_report` measures how well it succeeds — the fraction of
monitoring windows spent in each state and the allocated-core trajectory —
derived from the tenant's :class:`~repro.sim.tracing.TransitionRecord`
stream, one record per controller pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..sim.tracing import TransitionRecord


@dataclass
class LoncReport:
    """Summary of a controller run's stability behaviour."""

    ticks: int
    stable_ticks: int
    idle_ticks: int
    overload_ticks: int
    min_cores: int
    max_cores: int
    mean_cores: float

    @property
    def stable_fraction(self) -> float:
        """Fraction of windows inside the stable band."""
        return self.stable_ticks / self.ticks if self.ticks else 0.0


def lonc_report(records: Sequence[TransitionRecord],
                initial_cores: int) -> LoncReport:
    """Summarise one tenant's passes, in emission order.

    Each pass counts the cores it *started* from: the previous record's
    ``cores_after``, and ``initial_cores`` for the first pass.  No pass
    gives ``min_cores = max_cores = 0`` and ``mean_cores = 0``.
    """
    states = [r.state for r in records]
    cores = ([initial_cores, *(r.cores_after for r in records[:-1])]
             if records else [0])
    return LoncReport(
        ticks=len(states),
        stable_ticks=states.count("Stable"),
        idle_ticks=states.count("Idle"),
        overload_ticks=states.count("Overload"),
        min_cores=min(cores),
        max_cores=max(cores),
        mean_cores=sum(cores) / len(cores),
    )
