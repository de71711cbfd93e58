"""Unit tests for snapshot/fork (:mod:`repro.sim.state`) and heap hygiene.

The property tests in ``tests/test_props_sim_state.py`` pin the
behavioural equivalence of forked vs uninterrupted runs over random
programs; these tests pin the mechanism piece by piece — shared-atom
identity, per-system thread numbering, pickle-ability of the capture
itself, the guard rails, and the lazy-cancel heap compaction bookkeeping.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.config import ControllerConfig
from repro.core import ElasticController, make_mode
from repro.core.strategies import CpuLoadStrategy
from repro.errors import SimulationError
from repro.hardware.prebuilt import small_numa
from repro.opsys.system import OperatingSystem
from repro.opsys.workitem import ListWorkSource, WorkItem
from repro.sim.engine import _COMPACT_MIN_DEAD, Simulator
from repro.sim.state import SimState


class _Append:
    """Picklable callback: log (tag, now, rng draw) on delivery."""

    __slots__ = ("harness", "tag")

    def __init__(self, harness, tag):
        self.harness = harness
        self.tag = tag

    def __call__(self):
        h = self.harness
        h.log.append((self.tag, h.sim.now, h.rng.random()))


class _Harness:
    """A tiny simulation graph: engine + log + RNG + optional atoms."""

    def __init__(self, atom=None):
        self.sim = Simulator()
        self.log = []
        self.rng = random.Random(42)
        self.atom = atom

    def schedule(self, n, spacing=0.5):
        for i in range(n):
            self.sim.schedule(spacing * (i + 1), _Append(self, i))


# ---------------------------------------------------------------------
# snapshot / restore


def test_fork_resumes_identically_to_uninterrupted_run():
    cold = _Harness()
    cold.schedule(8)
    cold.sim.run()

    warm = _Harness()
    warm.schedule(8)
    warm.sim.run(max_events=3)
    state = warm.sim.snapshot(root=warm)
    fork = state.restore()
    fork.sim.run()
    assert fork.log == cold.log
    assert fork.sim.now == cold.sim.now
    assert fork.sim.pending() == 0


def test_each_restore_is_an_independent_fork():
    base = _Harness()
    base.schedule(6)
    base.sim.run(max_events=2)
    state = base.sim.snapshot(root=base)

    first = state.restore()
    first.sim.run()
    # the first fork's run must not disturb the capture
    second = state.restore()
    second.sim.run()
    assert first.log == second.log
    assert first.log is not second.log
    # nor the original, which still holds its own pending events
    assert base.sim.pending() == 4


def test_rng_stream_is_captured():
    base = _Harness()
    base.schedule(4)
    base.sim.run(max_events=2)  # advances base.rng
    state = base.sim.snapshot(root=base)
    fork_a = state.restore()
    fork_b = state.restore()
    fork_a.sim.run()
    fork_b.sim.run()
    # both forks continue the RNG stream from the same point
    assert [entry[2] for entry in fork_a.log[2:]] \
        == [entry[2] for entry in fork_b.log[2:]]


def test_shared_atoms_are_referenced_not_copied():
    atom = np.arange(1000, dtype=np.float64)
    base = _Harness(atom=atom)
    base.schedule(2)
    state = base.sim.snapshot(root=base, shared=(atom,))
    assert state.size_bytes() < atom.nbytes  # externalised, not inlined
    fork = state.restore()
    assert fork.atom is atom


def test_unshared_atoms_are_deep_copied():
    atom = np.arange(10, dtype=np.float64)
    base = _Harness(atom=atom)
    state = base.sim.snapshot(root=base)
    fork = state.restore()
    assert fork.atom is not atom
    assert np.array_equal(fork.atom, atom)


def test_simstate_itself_pickles():
    """Captures must travel across the spawn pool."""
    atom = np.arange(16, dtype=np.float64)
    base = _Harness(atom=atom)
    base.schedule(5)
    base.sim.run(max_events=2)
    state = base.sim.snapshot(root=base, shared=(atom,))
    clone = pickle.loads(pickle.dumps(state))
    fork_direct = state.restore()
    fork_shipped = clone.restore()
    fork_direct.sim.run()
    fork_shipped.sim.run()
    assert fork_shipped.log == fork_direct.log


def test_snapshot_refuses_mid_dispatch():
    harness = _Harness()
    caught = []

    class _Snapshotter:
        def __init__(self, h):
            self.h = h

        def __call__(self):
            try:
                self.h.sim.snapshot(root=self.h)
            except SimulationError as exc:
                caught.append(str(exc))

    harness.sim.schedule(1.0, _Snapshotter(harness))
    harness.sim.run()
    assert caught and "run() is active" in caught[0]


def test_capture_rejects_unpicklable_graphs_with_hint():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError, match="local closures"):
        sim.snapshot()


def test_fingerprint_is_stable_and_content_sensitive():
    def build(n):
        h = _Harness()
        h.schedule(n)
        return h.sim.snapshot(root=h)

    assert build(3).fingerprint() == build(3).fingerprint()
    assert build(3).fingerprint() != build(4).fingerprint()
    # survives a pickle round trip (spawn-pool shipping)
    state = build(3)
    assert pickle.loads(pickle.dumps(state)).fingerprint() \
        == state.fingerprint()


def test_restore_rejects_unknown_shared_atom():
    atom = np.arange(4, dtype=np.float64)
    base = _Harness(atom=atom)
    state = base.sim.snapshot(root=base, shared=(atom,))
    stripped = SimState(payload=state.payload, shared=())
    with pytest.raises(SimulationError, match="shared atom"):
        stripped.restore()


# ---------------------------------------------------------------------
# heap compaction


def _noop():
    pass


def test_compaction_drops_dead_cells_and_resets_counter():
    sim = Simulator()
    events = [sim.schedule(float(i), _noop) for i in range(300)]
    # cancel just below the trigger: nothing compacted yet
    for event in events[: _COMPACT_MIN_DEAD - 1]:
        sim.cancel(event)
    assert sim._dead == _COMPACT_MIN_DEAD - 1
    assert len(sim._heap) == 300
    # live=237 here, so dead*2 > live needs more cancels; push past both
    # thresholds and compaction must keep the dead tail bounded
    for event in events[_COMPACT_MIN_DEAD - 1: 200]:
        sim.cancel(event)
    assert sim.pending() == 100
    assert sim._dead < _COMPACT_MIN_DEAD
    assert len(sim._heap) == 100 + sim._dead
    assert len(sim._heap) < 300


def test_compaction_preserves_delivery_order():
    plain, compacted = Simulator(), Simulator()
    logs = ([], [])

    class _Log:
        def __init__(self, log, i):
            self.log = log
            self.i = i

        def __call__(self):
            self.log.append(self.i)

    for log, sim in zip(logs, (plain, compacted)):
        events = [sim.schedule(float(i % 7), _Log(log, i))
                  for i in range(400)]
        doomed = [e for i, e in enumerate(events) if i % 4 != 0]
        if sim is compacted:
            for event in doomed:  # triggers compaction repeatedly
                sim.cancel(event)
        else:
            for event in doomed:  # mark lazily, bypassing compaction
                event.cancelled = True
                sim._live -= 1
                sim._dead += 1
        sim.run()
    assert logs[1] == logs[0]
    assert plain.pending() == compacted.pending() == 0


def test_small_heaps_are_never_compacted():
    sim = Simulator()
    events = [sim.schedule(float(i), _noop) for i in range(20)]
    for event in events[:15]:
        sim.cancel(event)
    # dead*2 > live by far, but below the size floor
    assert len(sim._heap) == 20
    assert sim.pending() == 5
    assert sim.run() == 5


def test_pending_stays_exact_through_cancel_compact_deliver():
    sim = Simulator()
    events = [sim.schedule(1.0 + i, _noop) for i in range(200)]
    assert sim.pending() == 200
    for event in events[:150]:
        sim.cancel(event)
    assert sim.pending() == 50
    sim.cancel(events[0])  # double cancel: no effect
    assert sim.pending() == 50
    delivered = sim.run()
    assert delivered == 50
    assert sim.pending() == 0


# ---------------------------------------------------------------------
# event queue state through snapshot/fork


def test_populated_event_queue_round_trips():
    """A queue holding near and far events and dead cells survives capture.

    The warm-up prefix of a sweep leaves same-timestamp events just
    ahead of ``now`` and far-future think-time events well beyond it.
    A fork must drain them in exactly the order the uninterrupted run
    would.
    """
    base = _Harness()
    # near future: clustered, with exact-timestamp collisions
    for i in range(6):
        base.sim.schedule(0.001 * (i % 3), _Append(base, i))
    # far future
    for i in range(6, 12):
        base.sim.schedule(10.0 + 0.5 * (i % 4), _Append(base, i))
    # a dead cell queued near and one far must stay dead in the fork
    base.sim.cancel(base.sim.schedule(0.002, _Append(base, 97)))
    base.sim.cancel(base.sim.schedule(11.0, _Append(base, 98)))

    state = base.sim.snapshot(root=base)
    fork = state.restore()
    assert fork.sim.pending() == base.sim.pending()
    assert len(fork.sim._heap) == len(base.sim._heap)

    base.sim.run_until_idle()
    fork.sim.run_until_idle()
    assert fork.log == base.log
    assert fork.sim.now == base.sim.now
    assert fork.sim.pending() == 0


def test_forked_queue_keeps_sequence_continuity():
    """Events scheduled after a fork keep global FIFO tie-breaking:
    the restored engine's sequence counter continues where the captured
    one stopped, so same-timestamp newcomers sort after survivors."""
    base = _Harness()
    base.sim.schedule(1.0, _Append(base, 0))
    state = base.sim.snapshot(root=base)

    for harness in (base, state.restore()):
        harness.sim.schedule(1.0, _Append(harness, 1))
        harness.sim.run_until_idle()
    fork_log = harness.log
    assert fork_log == base.log
    assert [tag for tag, _, _ in fork_log] == [0, 1]


# ---------------------------------------------------------------------
# whole systems


def _two_tenant_system():
    """Two tenants, each behind its own controller, with queued scans."""
    os_ = OperatingSystem(small_numa())
    for node, tenant in enumerate(("left", "right")):
        os_.create_tenant(tenant)
        ElasticController(
            os_, make_mode("dense", os_.topology), CpuLoadStrategy(),
            ControllerConfig(), tenant=tenant).start()
        for _ in range(2):
            pages = list(os_.machine.memory.allocate(64))
            for page in pages:
                os_.machine.memory.place(page, node)
            os_.spawn_thread(ListWorkSource(
                [WorkItem("scan", reads=pages, cycles=5e8)]),
                tenant=tenant)
    return os_


def test_two_tenant_system_with_controllers_round_trips():
    # every callback a tenant's cpuset, scheduler mask and controller
    # leave in the graph must pickle, or warm-start forking of a
    # multi-tenant system fails at capture
    cold = _two_tenant_system()
    cold.run_until_idle()

    warm = _two_tenant_system()
    warm.run(until=0.05)
    assert warm.sim.pending()
    fork = SimState.capture(warm).restore()
    fork.run_until_idle()
    assert fork.tracer.all() == cold.tracer.all()
    for tenant in ("left", "right"):
        assert (fork.inventory.mask_of(tenant)
                == cold.inventory.mask_of(tenant))
    assert ([fork.inventory.owner_of(c) for c in range(4)]
            == [cold.inventory.owner_of(c) for c in range(4)])
    assert fork.now == cold.now


def test_scheduler_and_inventory_share_one_tenant_registry():
    # the scheduler confines threads by the inventory's own tenant ->
    # cpuset dict, so a tenant's mask is never recorded twice; a fork
    # must keep the two bound to one object as well
    warm = _two_tenant_system()
    warm.run(until=0.05)
    fork = SimState.capture(warm).restore()
    for os_ in (warm, fork):
        assert os_.scheduler._tenant_masks is os_.inventory.cpusets
        assert list(os_.inventory.cpusets) == ["db", "left", "right"]
        assert os_.inventory.cpusets["db"] is os_.cpuset


def _spawn_idle(os_, count):
    return [os_.spawn_thread(ListWorkSource()).tid for _ in range(count)]


def test_each_system_numbers_its_threads_from_one():
    first = OperatingSystem(small_numa())
    second = OperatingSystem(small_numa())
    assert _spawn_idle(first, 3) == [1, 2, 3]
    assert _spawn_idle(second, 2) == [1, 2]
    assert _spawn_idle(first, 1) == [4]


def test_fork_continues_the_base_thread_numbering():
    base = OperatingSystem(small_numa())
    _spawn_idle(base, 3)
    state = SimState.capture(base)
    # an unrelated system built in between must not shift the fork's ids
    _spawn_idle(OperatingSystem(small_numa()), 5)
    assert _spawn_idle(state.restore(), 2) == [4, 5]
    assert _spawn_idle(state.restore(), 1) == [4]
    # the uninterrupted (cold) run hands out the same next id
    assert _spawn_idle(base, 2) == [4, 5]
