"""The controller's lifecycle, core placement and tenancy.

Covers the controller's explicit lifecycle state machine, its
foreign-core avoidance when it places a core, the model staying in sync
with the leases when no core is free, the tenant-floor pre-flight check,
and two controllers coexisting on one machine through the core-lease
inventory.
"""

import pytest

from repro.config import ControllerConfig
from repro.core.controller import ElasticController
from repro.core.modes import make_mode
from repro.core.monitor import Monitor
from repro.core.strategies import CpuLoadStrategy
from repro.errors import (AllocationError, LeaseError,
                          ModelConfigurationError, SchedulerError)
from repro.hardware.prebuilt import small_numa
from repro.opsys.system import OperatingSystem
from repro.opsys.workitem import ListWorkSource, WorkItem
from repro.sim.tracing import (CoreAllocation, MigrationRecord,
                               TransitionRecord)


def make_controller(mode="dense", keepalive=False, tenant=None, os_=None,
                    **kwargs):
    os_ = os_ or OperatingSystem(small_numa())
    extra = {} if tenant is None else {"tenant": tenant}
    controller = ElasticController(
        os_, make_mode(mode, os_.topology), CpuLoadStrategy(),
        ControllerConfig(), keepalive=keepalive, **extra, **kwargs)
    return os_, controller


def scan_source(os_, n_pages=64, cycles=5e8, node=0):
    pages = list(os_.machine.memory.allocate(n_pages))
    for page in pages:
        os_.machine.memory.place(page, node)
    return ListWorkSource([WorkItem("scan", reads=pages, cycles=cycles)])


# ----------------------------------------------------------------------
# lifecycle state machine
# ----------------------------------------------------------------------

def test_lifecycle_progression():
    _, controller = make_controller()
    assert controller.lifecycle == "new"
    controller.start()
    assert controller.lifecycle == "running"
    controller.stop()
    assert controller.lifecycle == "stopped"


def test_kick_before_start_raises():
    _, controller = make_controller()
    with pytest.raises(AllocationError, match="before start"):
        controller.kick()


def test_kick_after_stop_is_a_noop():
    os_, controller = make_controller()
    controller.start()
    controller.stop()
    controller.kick()  # must not raise, must not re-arm
    os_.spawn_thread(scan_source(os_))
    os_.run_until_idle()
    assert controller.ticks == 0


def test_start_after_stop_raises():
    _, controller = make_controller()
    controller.start()
    controller.stop()
    with pytest.raises(AllocationError, match="construct a new one"):
        controller.start()


def test_stop_is_idempotent():
    _, controller = make_controller()
    controller.start()
    controller.stop()
    controller.stop()
    assert controller.lifecycle == "stopped"


def test_keepalive_controller_stops_cleanly():
    os_, controller = make_controller(keepalive=True)
    controller.start()
    # no workload at all: keepalive keeps the tick loop armed
    os_.run(until=0.2)
    assert controller.ticks > 0
    ticked = controller.ticks
    controller.stop()
    # if stop did not disarm the loop this would never return
    os_.run_until_idle()
    assert controller.ticks == ticked


def test_kick_after_park_runs_one_more_pass():
    os_, controller = make_controller()
    controller.start()
    os_.spawn_thread(scan_source(os_, cycles=1e8))
    os_.run_until_idle()
    parked_at = controller.ticks
    controller.kick()
    os_.run_until_idle()
    # no threads alive: exactly one pass, then it parks again
    assert controller.ticks == parked_at + 1


# ----------------------------------------------------------------------
# core placement
# ----------------------------------------------------------------------

def hogged_controller(hog_cores, initial_cores=1):
    """A controller of tenant "t" on a machine where tenant "hog"
    already leases ``hog_cores``."""
    os_ = OperatingSystem(small_numa())
    os_.create_tenant("hog")
    os_.create_tenant("t")
    os_.inventory.seed("hog", hog_cores)
    controller = ElasticController(
        os_, make_mode("dense", os_.topology), CpuLoadStrategy(),
        ControllerConfig(initial_cores=initial_cores), tenant="t")
    return os_, controller


def overloaded_pass(os_, controller):
    """Run one pass with "t" fully busy since the last one, so the
    model fires its allocate transition.  With no thread alive the
    controller's own tick has parked by then."""
    os_.run_until_idle()
    for core in os_.inventory.mask_of("t"):
        os_.machine.account_busy(core, 1.0)
    os_.sim.schedule(1.0, lambda: None)
    os_.run_until_idle()
    return controller.run_pipeline_once()


def test_planner_allocates_around_foreign_cores():
    os_, controller = hogged_controller([1, 2])
    controller.start()
    assert os_.inventory.mask_of("t") == {0}
    chain = overloaded_pass(os_, controller)
    assert chain.label == "t1-Overload-t5"
    assert os_.inventory.mask_of("t") == {0, 3}
    assert os_.inventory.mask_of("hog") == {1, 2}
    granted = os_.tracer.of(CoreAllocation)[-1]
    assert (granted.core_id, granted.allocated, granted.n_allocated) == (
        3, True, 2)


def test_planner_reports_no_change_when_starved():
    os_, controller = hogged_controller([1, 2, 3])
    controller.start()
    allocations = len(os_.tracer.of(CoreAllocation))
    chain = overloaded_pass(os_, controller)
    # the net fired t5, but every core is held: a starved tick moves
    # nothing and the model is put back to the leases
    assert chain.label == "t1-Overload-t5"
    assert os_.inventory.mask_of("t") == {0}
    assert controller.model.nalloc == controller.n_allocated == 1
    assert len(os_.tracer.of(CoreAllocation)) == allocations


def test_planner_initial_mask_skips_foreign():
    os_, controller = hogged_controller([0, 1], initial_cores=2)
    controller.start()
    mask = os_.inventory.mask_of("t")
    assert len(mask) == 2 and not mask & {0, 1}


# ----------------------------------------------------------------------
# model and leases agree
# ----------------------------------------------------------------------

def test_starved_ticks_keep_the_model_in_sync():
    # "hog" holds every core but one: the loaded tenant's model fires
    # its allocate transition, but the plan step finds no free core
    os_ = OperatingSystem(small_numa())
    n = os_.topology.n_cores
    os_.create_tenant("hog")
    os_.create_tenant("busy")
    os_.inventory.seed("hog", list(range(1, n)))
    _, controller = make_controller(os_=os_, tenant="busy")
    controller.start()
    for _ in range(3):
        os_.spawn_thread(scan_source(os_, cycles=2e9), tenant="busy")
    for _ in range(20):
        os_.run(until=os_.now + 0.05)
        assert controller.model.nalloc == controller.n_allocated == 1
        os_.inventory.check()
    assert os_.inventory.mask_of("busy") == {0}
    assert any(r.label.endswith("t5")
               for r in os_.tracer.of(TransitionRecord))


def test_controller_floor_below_the_tenant_floor_refuses_to_start():
    # the model would release down to min_cores=1, and the inventory
    # would refuse that release mid-run at the tenant's floor of 3
    os_ = OperatingSystem(small_numa())
    os_.create_tenant("t", min_cores=3)
    controller = ElasticController(
        os_, make_mode("dense", os_.topology), CpuLoadStrategy(),
        ControllerConfig(min_cores=1, initial_cores=4), tenant="t")
    with pytest.raises(ModelConfigurationError,
                       match=r"min_cores=1 below .*min_cores=3"):
        controller.start()
    assert not os_.inventory.is_governed("t")


# ----------------------------------------------------------------------
# two controllers, one machine
# ----------------------------------------------------------------------

def test_two_controllers_hold_disjoint_leases():
    os_ = OperatingSystem(small_numa())
    os_.create_tenant("left")
    os_.create_tenant("right")
    controllers = {}
    for tenant in ("left", "right"):
        _, controllers[tenant] = make_controller(os_=os_, tenant=tenant)
        controllers[tenant].start()
        os_.spawn_thread(scan_source(os_), tenant=tenant)
        os_.spawn_thread(scan_source(os_), tenant=tenant)
    os_.run_until_idle()
    left = os_.inventory.mask_of("left")
    right = os_.inventory.mask_of("right")
    assert left and right and not left & right
    os_.inventory.check()
    assert controllers["left"].ticks > 0
    assert controllers["right"].ticks > 0


def two_seeded_tenants():
    """Tenants "a" on core 0 and "b" on core 1, seeded as controllers
    seed them."""
    os_ = OperatingSystem(small_numa())
    for tenant, cores in (("a", [0]), ("b", [1])):
        os_.create_tenant(tenant)
        os_.inventory.seed(tenant, cores)
    return os_


def test_rejected_allocation_rolls_back_leases_masks_and_trace():
    # a refused lease must leave every mask, lease and trace record as
    # it was, or tenant "a" keeps a core it was never granted
    os_ = two_seeded_tenants()

    def state():
        return ({t: os_.inventory.cpuset_of(t).allowed() for t in "ab"},
                {t: os_.inventory.mask_of(t) for t in "ab"},
                [os_.inventory.owner_of(c) for c in range(4)],
                os_.tracer.of(CoreAllocation))

    before = state()
    with pytest.raises(LeaseError, match="already leased"):
        os_.inventory.acquire("a", 1)
    assert state() == before
    os_.inventory.check()


def test_refused_acquire_on_an_unseeded_tenant_leases_nothing():
    # an unseeded tenant holds no leases and its cpuset is machine-wide;
    # refusing its acquire must leave no phantom lease on the core
    os_ = OperatingSystem(small_numa())
    for tenant in ("t", "u"):
        os_.create_tenant(tenant)
    inventory = os_.inventory

    def state():
        tenants = inventory.tenants()
        return ([inventory.owner_of(core) for core in range(4)],
                {t: inventory.mask_of(t) for t in tenants},
                {t: inventory.cpuset_of(t).allowed() for t in tenants},
                inventory.unavailable_to("db"), inventory.free_cores())

    before = state()
    with pytest.raises(AllocationError):
        inventory.acquire("t", 1)
    assert state() == before
    assert inventory.owner_of(1) is None
    inventory.check()
    inventory.seed("u", [1])
    assert inventory.owner_of(1) == "u"


# a core leased to the other tenant, and a core "a" already holds
@pytest.mark.parametrize("allocate", [(1, "b"), (0, "a")])
def test_rejected_allocation_moves_no_thread(allocate):
    # acquiring a core runs the scheduler's mask listener, which steals
    # a queued thread onto it at once; a refused lease must therefore be
    # refused before the core enters the mask
    core, owner = allocate
    os_ = two_seeded_tenants()
    threads = [os_.spawn_thread(scan_source(os_), tenant="a")
               for _ in range(3)]
    migrations = os_.tracer.of(MigrationRecord)
    with pytest.raises(LeaseError, match=f"already leased to tenant "
                                         f"'{owner}'"):
        os_.inventory.acquire("a", core)
    assert os_.tracer.of(MigrationRecord) == migrations
    assert os_.inventory.cpuset_of("a").allowed() == {0}
    assert {t.core for t in threads if t.core is not None} <= {0}
    os_.inventory.check()


def test_tenant_threads_stay_inside_the_tenant_mask():
    os_ = OperatingSystem(small_numa())
    cpuset = os_.create_tenant("pinned")
    os_.inventory.seed("pinned", [2, 3])
    for _ in range(3):
        os_.spawn_thread(scan_source(os_, cycles=2e8), tenant="pinned")
    for _ in range(12):
        os_.run(until=os_.now + 0.01)
        for thread in os_.scheduler.threads:
            if thread.tenant == "pinned" and thread.core is not None:
                assert thread.core in cpuset.allowed()
    os_.run_until_idle()


def test_duplicate_tenant_registration_raises():
    os_ = OperatingSystem(small_numa())
    os_.create_tenant("dup")
    with pytest.raises(LeaseError):
        os_.create_tenant("dup")


def test_thread_of_an_unregistered_tenant_is_refused():
    # without a mask of its own the thread would run under the default
    # tenant's mask, outside every lease
    os_ = OperatingSystem(small_numa())
    os_.create_tenant("a")
    os_.inventory.seed("a", [2, 3])
    os_.cpuset.set_mask([0])
    with pytest.raises(SchedulerError, match="'typo'"):
        os_.spawn_thread(scan_source(os_), tenant="typo")
    assert not os_.scheduler.threads
    assert os_.scheduler.live_threads() == 0


def test_second_controller_seeds_off_the_first():
    os_ = OperatingSystem(small_numa())
    os_.create_tenant("first")
    os_.create_tenant("second")
    _, one = make_controller(os_=os_, tenant="first")
    _, two = make_controller(os_=os_, tenant="second")
    one.start()
    two.start()
    first = os_.inventory.mask_of("first")
    second = os_.inventory.mask_of("second")
    assert len(first) == 1 and len(second) == 1
    assert not first & second


def test_default_tenant_counts_only_its_own_managed_threads():
    # the default tenant holds {0,1}, tenant x holds {2,3}; only x's
    # threads and one unmanaged thread run, so "db" has no load of its
    # own: no queue pressure, and its controller parks after one pass
    os_ = OperatingSystem(small_numa())
    os_.create_tenant("x")
    os_.inventory.seed("x", [2, 3])
    controller = ElasticController(
        os_, make_mode("dense", os_.topology), CpuLoadStrategy(),
        ControllerConfig(initial_cores=2))
    controller.start()
    assert os_.inventory.mask_of("db") == {0, 1}
    monitor = Monitor(os_)
    monitor.prime()
    for _ in range(3):
        os_.spawn_thread(scan_source(os_, cycles=2e9), tenant="x")
    os_.spawn_thread(scan_source(os_, cycles=2e9), managed=False)
    os_.run(until=0.2)
    sample = monitor.sample()
    assert sample.runnable_threads == 0
    assert not sample.queue_pressure
    assert os_.scheduler.live_threads() == 4
    assert os_.scheduler.live_threads("db") == 0
    assert controller.ticks == 1
