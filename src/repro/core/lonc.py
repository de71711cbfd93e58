"""The Local Optimum Number of Cores (LONC), paper §IV-A, Eq. 1.

    for every workload w there is an nalloc such that
        thmin < u < thmax   and   p(nalloc) >= p(ntotal)

i.e. a core count keeping the per-core load inside the stable band while
performing at least as well as exposing all cores.  The controller *seeks*
the LONC by construction (it allocates on Overload and releases on Idle);
:class:`LoncTracker` measures how well it succeeds — the fraction of
monitoring windows spent in each state and the allocated-core trajectory —
and is used by tests and the Fig 7 harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def lonc_satisfied(metric: float, th_min: float, th_max: float) -> bool:
    """Whether a metric value sits strictly inside the stable band."""
    return th_min < metric < th_max


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


@dataclass
class LoncTracker:
    """Accumulates per-tick performance states and core counts."""

    _states: list[str] = field(default_factory=list)
    _cores: list[int] = field(default_factory=list)

    def record(self, state: str, n_cores: int) -> None:
        """Register one monitoring tick: the state the PrT net's entry
        transition reached (``Idle`` / ``Stable`` / ``Overload``)."""
        self._states.append(state)
        self._cores.append(n_cores)

    @property
    def history(self) -> list[tuple[str, int]]:
        """(state, cores) per tick."""
        return list(zip(self._states, self._cores))

    def report(self) -> LoncReport:
        """Summarise the run."""
        ticks = len(self._states)
        cores = self._cores or [0]
        return LoncReport(
            ticks=ticks,
            stable_ticks=self._states.count("Stable"),
            idle_ticks=self._states.count("Idle"),
            overload_ticks=self._states.count("Overload"),
            min_cores=min(cores),
            max_cores=max(cores),
            mean_cores=sum(cores) / len(cores),
        )
