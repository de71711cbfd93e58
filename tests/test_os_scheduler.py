"""Scheduler: placement, execution, balancing, cpuset enforcement."""

from collections import deque

import pytest

from repro.config import SchedulerConfig
from repro.hardware.prebuilt import small_numa
from repro.opsys.system import OperatingSystem
from repro.opsys.thread import SimThread, ThreadState
from repro.opsys.workitem import ListWorkSource, WorkItem
from repro.sim.tracing import MigrationRecord


def make_os(**scheduler_kwargs) -> OperatingSystem:
    return OperatingSystem(small_numa(),
                           SchedulerConfig(**scheduler_kwargs))


def scan_item(os_, n_pages=8, cycles=2e6, label="scan", on_complete=None,
              node=None, query=""):
    pages = list(os_.machine.memory.allocate(n_pages))
    if node is not None:
        for page in pages:
            os_.machine.memory.place(page, node)
    return WorkItem(label, reads=pages, cycles=cycles,
                    on_complete=on_complete, query_name=query)


class StagedSource:
    """Two-stage source used to test blocking and waking."""

    def __init__(self, os_):
        self.os = os_
        self.stage_two_published = False
        self._items = deque([scan_item(os_, label="stage1",
                                       on_complete=self._stage1_done)])
        self._waiters = []
        self.finished_flag = False

    def _stage1_done(self, item):
        self.stage_two_published = True
        self._items.append(scan_item(self.os, label="stage2",
                                     on_complete=self._stage2_done))
        waiters, self._waiters = self._waiters, []
        for thread in waiters:
            self.os.wake(thread)

    def _stage2_done(self, item):
        self.finished_flag = True
        waiters, self._waiters = self._waiters, []
        for thread in waiters:
            self.os.wake(thread)

    def next_item(self, thread):
        if self._items:
            return self._items.popleft()
        return None

    @property
    def finished(self):
        return self.finished_flag and not self._items

    def register_waiter(self, thread):
        self._waiters.append(thread)


class TestBasicExecution:
    def test_single_thread_runs_to_completion(self):
        os_ = make_os()
        done = []
        source = ListWorkSource([scan_item(
            os_, on_complete=lambda it: done.append(it.label))])
        thread = os_.spawn_thread(source)
        os_.run_until_idle()
        assert done == ["scan"]
        assert thread.state is ThreadState.DONE

    def test_on_exit_callback_fires(self):
        os_ = make_os()
        exited = []
        source = ListWorkSource([scan_item(os_)])
        os_.spawn_thread(source, on_exit=lambda t: exited.append(t.tid))
        os_.run_until_idle()
        assert len(exited) == 1

    def test_work_conservation_across_threads(self):
        os_ = make_os()
        done = []
        for _ in range(10):
            source = ListWorkSource([scan_item(
                os_, on_complete=lambda it: done.append(1))])
            os_.spawn_thread(source)
        os_.run_until_idle()
        assert len(done) == 10

    def test_busy_time_recorded(self):
        os_ = make_os()
        os_.spawn_thread(ListWorkSource([scan_item(os_)]))
        os_.run_until_idle()
        assert os_.counters.total("busy_time") > 0
        assert os_.counters.total("useful_time") > 0
        assert (os_.counters.total("useful_time")
                <= os_.counters.total("busy_time"))

    def test_pure_compute_item(self):
        os_ = make_os()
        done = []
        item = WorkItem("compute", cycles=5e6,
                        on_complete=lambda it: done.append(1))
        os_.spawn_thread(ListWorkSource([item]))
        os_.run_until_idle()
        assert done == [1]
        # pure compute: useful ~ busy
        assert os_.counters.total("useful_time") == pytest.approx(
            os_.counters.total("busy_time"), rel=0.01)

    def test_long_item_spans_many_quanta(self):
        os_ = make_os(quantum=0.001)
        thread = os_.spawn_thread(ListWorkSource(
            [scan_item(os_, n_pages=64, cycles=5e7)]))
        os_.run_until_idle()
        assert thread.state is ThreadState.DONE
        assert os_.counters.total("tasks") > 1

    def test_tasks_counter_counts_dispatches(self):
        os_ = make_os()
        os_.spawn_thread(ListWorkSource([scan_item(os_)]))
        os_.run_until_idle()
        assert os_.counters.total("tasks") >= 1


class TestPlacement:
    def test_spawn_spreads_over_idle_cores(self):
        os_ = make_os()
        threads = [os_.spawn_thread(ListWorkSource(
            [scan_item(os_, cycles=5e7, n_pages=64)]))
            for _ in range(4)]
        cores = {t.core for t in threads}
        assert cores == {0, 1, 2, 3}

    def test_pinned_thread_stays_on_core(self):
        os_ = make_os()
        thread = os_.spawn_thread(
            ListWorkSource([scan_item(os_)]), pinned_core=3)
        assert thread.core == 3
        os_.run_until_idle()
        assert os_.tracer.of(MigrationRecord) == []

    def test_node_affinity_prefers_node(self):
        os_ = make_os()
        thread = os_.spawn_thread(
            ListWorkSource([scan_item(os_)]), pinned_node=1)
        assert os_.topology.node_of_core(thread.core) == 1


class TestBlockingAndWaking:
    def test_thread_blocks_until_next_stage(self):
        os_ = make_os()
        source = StagedSource(os_)
        t1 = os_.spawn_thread(source, name="w1")
        t2 = os_.spawn_thread(source, name="w2")
        os_.run_until_idle()
        assert source.stage_two_published
        assert source.finished
        assert t1.state is ThreadState.DONE
        assert t2.state is ThreadState.DONE


class TestLoadBalancing:
    def test_idle_pull_rescues_piled_queue(self):
        os_ = make_os(balance_interval=10.0)  # periodic balancer silent
        # two threads forced onto core 0's queue
        sources = [ListWorkSource([scan_item(os_, n_pages=64,
                                             cycles=5e7)])
                   for _ in range(2)]
        t1 = os_.spawn_thread(sources[0])
        # place the second thread on the same core artificially
        t2 = os_.spawn_thread(sources[1])
        os_.scheduler._queues[t2.core].remove(t2) \
            if t2 in os_.scheduler._queues[t2.core] else None
        os_.run_until_idle()
        # both finish; no deadlock
        assert sources[0].finished and sources[1].finished

    def test_idle_pull_drains_long_queue_without_recursion(self):
        # an idle core pulls finished threads one at a time; each pull
        # must not add stack frames (2000 threads exceed the default
        # recursion limit of 1000 if it does)
        os_ = make_os(balance_interval=10.0)
        sched = os_.scheduler
        threads = []
        for tid in range(1, 2001):
            thread = SimThread(ListWorkSource(), tid)
            thread.state = ThreadState.READY
            sched._tenant_live[thread.tenant] += 1
            sched.threads.add(thread)
            thread.core = 0
            sched._queues[0].append(thread)
            sched._load[0] += 1
            threads.append(thread)
        sched._dispatch(1)
        assert all(t.state is ThreadState.DONE for t in threads)
        assert [t.core for t in threads] == [1] * len(threads)
        assert not sched._queues[0] and sched._load[0] == 0
        assert sched.live_threads() == 0
        assert os_.counters.total("stolen_tasks") == len(threads)

    def test_steals_recorded_under_oversubscription(self):
        os_ = make_os(balance_interval=0.001)
        for _ in range(12):
            os_.spawn_thread(ListWorkSource(
                [scan_item(os_, n_pages=32, cycles=3e7)]))
        os_.run_until_idle()
        assert os_.counters.total("stolen_tasks") > 0

    def test_balancer_moves_node_affined_threads_only_within_node(self):
        # small_numa: cores 0-1 on node 0, cores 2-3 on node 1
        os_ = make_os(balance_interval=10.0)
        sched = os_.scheduler

        def queue_on_core_0(pinned_node):
            thread = SimThread(ListWorkSource([scan_item(os_, node=0)]),
                               len(sched.threads) + 1,
                               pinned_node=pinned_node)
            thread.state = ThreadState.READY
            sched._tenant_live[thread.tenant] += 1
            sched.threads.add(thread)
            thread.core = 0
            sched._queues[0].append(thread)
            sched._load[0] += 1
            return thread

        # affined threads at the back, where the balancer looks first
        free = [queue_on_core_0(pinned_node=None) for _ in range(4)]
        affined = [queue_on_core_0(pinned_node=0) for _ in range(4)]
        sched._balance()
        # the machine-wide pass moves only the unaffined threads (all
        # four leave core 0); the node pass then evens node 0 with one
        # affined thread
        assert sorted(t.core for t in free) == [1, 1, 2, 3]
        assert sorted(t.core for t in affined) == [0, 0, 0, 1]
        assert os_.counters.total("stolen_tasks") == 5

    def test_pinned_threads_never_stolen_cross_node(self):
        os_ = make_os(balance_interval=0.001)
        pinned = [os_.spawn_thread(
            ListWorkSource([scan_item(os_, n_pages=32, cycles=2e7)]),
            pinned_core=0) for _ in range(6)]
        os_.run_until_idle()
        assert os_.tracer.of(MigrationRecord) == []
        assert all(t.state is ThreadState.DONE for t in pinned)


class TestCpusetEnforcement:
    def test_unmanaged_pinned_thread_keeps_its_core_under_a_shrunk_mask(
            self):
        """A thread outside the DB cgroup is confined by no DB mask: it
        stays on the core it is pinned to, as Linux keeps it there."""
        os_ = make_os()

        def spawn_pinned():
            return os_.spawn_thread(
                ListWorkSource([scan_item(os_, n_pages=64, cycles=5e7)]),
                pinned_core=2, managed=False)

        early = [spawn_pinned() for _ in range(2)]
        assert [t.core for t in early] == [2, 2]
        os_.cpuset.set_mask([0])
        late = spawn_pinned()
        assert [t.core for t in [*early, late]] == [2, 2, 2]
        os_.run_until_idle()
        assert os_.tracer.of(MigrationRecord) == []

    def test_threads_evicted_from_released_core(self):
        os_ = make_os()
        thread = os_.spawn_thread(ListWorkSource(
            [scan_item(os_, n_pages=128, cycles=1e8)]))
        first_core = thread.core
        os_.run(until=0.002)
        os_.cpuset.disallow(first_core)
        os_.run_until_idle()
        assert thread.state is ThreadState.DONE
        assert thread.core != first_core

    def test_shrunk_mask_confines_execution(self):
        os_ = make_os()
        os_.cpuset.set_mask([0])
        threads = [os_.spawn_thread(ListWorkSource(
            [scan_item(os_, n_pages=16)])) for _ in range(4)]
        os_.run_until_idle()
        for thread in threads:
            assert thread.state is ThreadState.DONE
        # only core 0 accumulated busy time
        busy = os_.counters.by_index("busy_time")
        assert set(busy) == {0}

    def test_migration_records_mask_eviction(self):
        os_ = make_os()
        thread = os_.spawn_thread(ListWorkSource(
            [scan_item(os_, n_pages=128, cycles=1e8)]))
        os_.run(until=0.002)
        os_.cpuset.disallow(thread.core)
        os_.run_until_idle()
        migrations = os_.tracer.of(MigrationRecord)
        assert any(not m.stolen for m in migrations)


class TestQueryAttribution:
    def test_per_query_counters(self):
        os_ = make_os()
        item = scan_item(os_, n_pages=8, query="qx")
        os_.spawn_thread(ListWorkSource([item]))
        os_.run_until_idle()
        assert os_.counters.get("query_imc_bytes", "qx") > 0
        assert os_.counters.get("query_busy_time", "qx") > 0
