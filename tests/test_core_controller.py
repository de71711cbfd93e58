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
from repro.sim.tracing import CoreAllocation, TransitionRecord


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
    report = controller.lonc_report()
    assert report.ticks > 0
    assert report.max_cores > 1
    allocations = [r for r in os_.tracer.of(CoreAllocation) if r.allocated]
    assert len(allocations) >= report.max_cores


def run_scan_with_idle_tail(os_, controller, until=2.0):
    """Four scans plus an idle tail under a keepalive controller."""
    controller.start()
    for _ in range(4):
        os_.spawn_thread(scan_source(os_))
    os_.run(until=until)
    controller.stop()
    os_.run_until_idle()


def test_lonc_report_of_a_fixed_scenario():
    os_, controller = make_controller(keepalive=True)
    run_scan_with_idle_tail(os_, controller)
    # recorded from the per-pass tracker the report used to keep: each
    # pass counts the cores it started from
    report = controller.lonc_report()
    assert (report.ticks, report.idle_ticks, report.stable_ticks,
            report.overload_ticks) == (99, 84, 1, 14)
    assert (report.min_cores, report.max_cores) == (1, 4)
    assert report.mean_cores == 144 / 99


def test_lonc_report_refuses_a_trace_that_lost_records():
    os_, controller = make_controller(keepalive=True)
    os_.tracer.mute(TransitionRecord)
    run_scan_with_idle_tail(os_, controller, until=0.5)
    with pytest.raises(ReproError, match=r"'db'.* 0 TransitionRecords "
                                         r"for \d+ controller ticks"):
        controller.lonc_report()

    os_, controller = make_controller(keepalive=True)
    controller.start()
    os_.spawn_thread(scan_source(os_))
    os_.run(until=0.2)
    os_.tracer.clear()
    os_.run(until=0.4)
    controller.stop()
    kept = len(os_.tracer.of(TransitionRecord))
    assert 0 < kept < controller.ticks
    with pytest.raises(ReproError, match=f" {kept} TransitionRecords "
                                         f"for {controller.ticks} "):
        controller.lonc_report()


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
    passes = os_.tracer.of(TransitionRecord)
    assert len(passes) == controller.ticks
    assert all(r.cores_after >= 1 and r.tenant == "db" for r in passes)
    assert all(r.tenant == "db" for r in os_.tracer.of(CoreAllocation))


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
