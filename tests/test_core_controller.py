"""The elastic controller: pipeline behaviour on a live system."""

import pytest

from repro.config import ControllerConfig
from repro.core.controller import ElasticController
from repro.core.modes import make_mode
from repro.core.strategies import CpuLoadStrategy
from repro.errors import (AllocationError, ModelConfigurationError,
                          ReproError, VerificationError)
from repro.hardware.prebuilt import small_numa
from repro.opsys.system import OperatingSystem
from repro.opsys.workitem import ListWorkSource, WorkItem
from repro.sim.tracing import (ControllerTick, CoreAllocation,
                               TransitionRecord)


def make_controller(mode="dense", keepalive=False, **cfg):
    os_ = OperatingSystem(small_numa())
    controller = ElasticController(
        os_, make_mode(mode, os_.topology), CpuLoadStrategy(),
        ControllerConfig(**cfg) if cfg else None, keepalive=keepalive)
    return os_, controller


def scan_source(os_, n_pages=256, cycles=5e8):
    pages = list(os_.machine.memory.allocate(n_pages))
    for page in pages:
        os_.machine.memory.place(page, 0)
    return ListWorkSource([WorkItem("scan", reads=pages, cycles=cycles)])


def test_start_applies_initial_mask():
    os_, controller = make_controller()
    controller.start()
    assert os_.cpuset.allowed_sorted() == [0]
    assert controller.n_allocated == 1


def test_double_start_rejected():
    _, controller = make_controller()
    controller.start()
    with pytest.raises(AllocationError):
        controller.start()


def test_allocates_under_load():
    os_, controller = make_controller()
    controller.start()
    for _ in range(4):
        os_.spawn_thread(scan_source(os_))
    os_.run_until_idle()
    report = controller.lonc.report()
    assert report.ticks > 0
    assert report.max_cores > 1
    allocations = [r for r in os_.tracer.of(CoreAllocation) if r.allocated]
    assert len(allocations) >= report.max_cores


def test_lonc_tracker_records_the_states_the_net_reached():
    os_, controller = make_controller(keepalive=True)
    controller.start()
    for _ in range(4):
        os_.spawn_thread(scan_source(os_))
    # the workload plus an idle tail
    os_.run(until=2.0)
    controller.stop()
    os_.run_until_idle()
    states = [state for state, _ in controller.lonc.history]
    assert states == [r.state for r in os_.tracer.of(TransitionRecord)]
    assert {"Overload", "Idle"} <= set(states)


def test_releases_when_idle():
    os_, controller = make_controller(keepalive=True)
    controller.start()
    os_.spawn_thread(scan_source(os_, cycles=2e9))
    # run past the workload plus an idle tail
    os_.run(until=2.0)
    controller.stop()
    os_.run_until_idle()
    assert os_.scheduler.live_threads() == 0
    assert controller.n_allocated == controller.config.min_cores
    releases = [r for r in os_.tracer.of(CoreAllocation)
                if not r.allocated]
    assert releases


def test_model_and_cpuset_stay_in_sync():
    os_, controller = make_controller()
    controller.start()
    for _ in range(3):
        os_.spawn_thread(scan_source(os_))
    os_.run_until_idle()
    assert controller.model.nalloc == len(os_.cpuset)


def test_controller_parks_and_kicks():
    os_, controller = make_controller()
    controller.start()
    os_.spawn_thread(scan_source(os_, cycles=1e8))
    os_.run_until_idle()
    parked_at = controller.ticks
    # no workload: no new ticks even if time passes
    os_.sim.schedule(1.0, lambda: None)
    os_.run_until_idle()
    assert controller.ticks == parked_at
    # new workload + kick resumes ticking
    os_.spawn_thread(scan_source(os_, cycles=1e9))
    controller.kick()
    os_.run_until_idle()
    assert controller.ticks > parked_at


def test_stop_halts_ticking():
    os_, controller = make_controller()
    controller.start()
    controller.stop()
    os_.spawn_thread(scan_source(os_))
    os_.run_until_idle()
    assert controller.ticks == 0


def test_ticks_emit_trace_records():
    os_, controller = make_controller()
    controller.start()
    os_.spawn_thread(scan_source(os_))
    os_.run_until_idle()
    ticks = os_.tracer.of(ControllerTick)
    assert len(ticks) == controller.ticks
    assert all(t.n_allocated >= 1 for t in ticks)


def test_adaptive_controller_allocates_near_data():
    os_, controller = make_controller(mode="adaptive")
    # all data on node 1 *before* the controller starts
    pages = list(os_.machine.memory.allocate(256))
    for page in pages:
        os_.machine.memory.place(page, 1)
    controller.start()
    os_.spawn_thread(ListWorkSource(
        [WorkItem("scan", reads=pages, cycles=8e8)]))
    os_.run_until_idle()
    allocations = [r for r in os_.tracer.of(CoreAllocation) if r.allocated]
    # the initial mask and the first growth land on the data's node
    assert allocations[0].node_id == 1
    grown = [r for r in allocations[1:3]]
    assert all(r.node_id == 1 for r in grown)


def test_run_pipeline_once_returns_chain():
    os_, controller = make_controller()
    controller.start()
    chain = controller.run_pipeline_once()
    assert chain.state in ("Idle", "Stable", "Overload")
    assert controller.ticks == 1


# ------------------------------------------------------------------
# static pre-flight (the verification layer)
# ------------------------------------------------------------------

class _InvertedStrategy(CpuLoadStrategy):
    """A custom strategy that bypasses constructor validation."""

    def __init__(self):
        self.th_min = 70.0
        self.th_max = 10.0


def test_inverted_thresholds_raise_verification_error_at_start():
    os_ = OperatingSystem(small_numa())
    controller = ElasticController(
        os_, make_mode("dense", os_.topology), _InvertedStrategy())
    assert controller.model is None
    with pytest.raises(ModelConfigurationError, match="inverted"):
        controller.start()


def test_min_cores_beyond_machine_raises_at_start():
    n_cores = small_numa().n_cores
    os_, controller = make_controller(
        min_cores=n_cores + 1, initial_cores=n_cores + 1)
    with pytest.raises(VerificationError, match="min_cores"):
        controller.start()


def test_preflight_reports_every_defect_at_once():
    os_ = OperatingSystem(small_numa())
    controller = ElasticController(
        os_, make_mode("dense", os_.topology), _InvertedStrategy(),
        ControllerConfig(min_cores=99, initial_cores=99))
    with pytest.raises(ModelConfigurationError) as excinfo:
        controller.start()
    message = str(excinfo.value)
    assert "inverted" in message and "min_cores" in message


def test_verify_model_preflight_passes_on_valid_config():
    os_ = OperatingSystem(small_numa())
    controller = ElasticController(
        os_, make_mode("dense", os_.topology), CpuLoadStrategy(),
        verify_model=True)
    controller.start()
    assert controller.n_allocated == 1


def test_verification_error_is_a_repro_error():
    assert issubclass(ModelConfigurationError, VerificationError)
    assert issubclass(VerificationError, ReproError)
