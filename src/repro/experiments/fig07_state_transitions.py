"""Fig 7 — state transitions and core allocation along Q6 (paper §III).

A single client repeatedly executes Q6 under the adaptive controller.  The
query's own structure drives the oscillation: parallel scan stages push the
load of the few allocated cores up (``t1-Overload-t5`` fires, a core is
allocated), serial stages and the gaps between repetitions let it collapse
(``t0-Idle-t4`` releases).  The harness reports the fired chain per tick
with the metric value and the allocated-core staircase, plus the share of
ticks per state — the x-axis annotations of Fig 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..core.lonc import LoncReport
from ..db.clients import repeat_stream
from ..sim.tracing import TransitionRecord
from .common import build_system


@dataclass
class Fig07Result:
    """Transition chain trace plus the LONC summary."""

    #: (time, chain label, metric value, cores after)
    transitions: list[tuple[float, str, float, int]]
    lonc: LoncReport
    elapsed: float
    #: every trace record of the run, exportable via
    #: :func:`repro.sim.export.dump_records` (golden-trace regression)
    records: list[object] = field(default_factory=list)

    def chains(self) -> list[str]:
        """Fired chain labels in order (``t1-Overload-t5`` ...)."""
        return [label for _, label, _, _ in self.transitions]

    def states_seen(self) -> set[str]:
        """Distinct performance states entered."""
        return {label.split("-")[1] for label in self.chains()}

    def core_range(self) -> tuple[int, int]:
        """(min, max) allocated cores over the run."""
        cores = [c for _, _, _, c in self.transitions]
        return (min(cores), max(cores)) if cores else (0, 0)

    def rows(self) -> list[list[object]]:
        """One row per controller tick."""
        return [[f"{t:.3f}", label, round(metric, 1), cores]
                for t, label, metric, cores in self.transitions]

    def table(self) -> str:
        """The Fig 7 transition trace as a text table."""
        lo, hi = self.core_range()
        return render_table(
            ["time s", "transition", "u", "cores"], self.rows(),
            title=(f"Fig 7 - Q6 state transitions (cores {lo}..{hi}, "
                   f"stable {self.lonc.stable_fraction:.0%} of ticks)"))


def run(repetitions: int = 10, scale: float = 0.01,
        sim_scale: float = 1.0, mode: str = "adaptive",
        idle_tail: float = 0.4) -> Fig07Result:
    """Single client, repeated Q6, adaptive controller, CPU-load strategy.

    The controller keeps ticking for ``idle_tail`` seconds after the last
    query so the release cascade (``t0-Idle-t4``) is part of the trace,
    as in the paper's figure.
    """
    from ..db.clients import ClientPool

    sut = build_system(engine="monetdb", mode=mode, scale=scale,
                       sim_scale=sim_scale, keepalive=True)
    pool = ClientPool(sut.engine, 1, repeat_stream("q6", repetitions))
    result = pool.start()
    # drive in slices until the workload drains, then let the controller
    # tick through the idle tail before stopping it
    while result.queries_completed < repetitions:
        sut.os.run(until=sut.os.now + 0.5)
    sut.os.run(until=sut.os.now + idle_tail)
    assert sut.controller is not None
    sut.controller.stop()
    sut.os.run_until_idle()
    result.finished_at = sut.os.now
    transitions = [
        (r.time, r.label, r.value, r.cores_after)
        for r in sut.os.tracer.of(TransitionRecord)
    ]
    return Fig07Result(transitions=transitions,
                       lonc=sut.controller.lonc_report(),
                       elapsed=result.makespan,
                       records=sut.os.tracer.all())
