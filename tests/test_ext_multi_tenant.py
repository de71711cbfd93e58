"""Extension: two concurrent controllers on one simulated machine."""

from repro.core import ElasticController
from repro.experiments import ext_multi_tenant
from repro.obs import Recorder, install, uninstall
from repro.sim.tracing import CoreAllocation, TransitionRecord


def run_small():
    return ext_multi_tenant.run(n_clients=3, repetitions=1,
                                scale=0.004, sim_scale=0.125)


def test_two_tenants_complete_without_overlap():
    result = run_small()
    assert result.overlap_violations == 0
    assert result.samples
    assert set(result.cells) == {"volcano", "numa"}
    for cell in result.cells.values():
        assert cell.throughput > 0
        assert cell.ticks > 0
        assert cell.max_cores >= 1
    assert "overlap violations: 0" in result.table()


def test_provenance_is_attributable_per_tenant():
    recorder = Recorder()
    install(recorder)
    try:
        run_small()
    finally:
        uninstall()
    tenants = {d.tenant for d in recorder.decisions.all()}
    assert tenants == {"volcano", "numa"}
    # both controllers changed their masks, and each record names its
    # tenant — the `repro explain --tenant` contract
    for tenant in tenants:
        changed = [d for d in recorder.decisions.all()
                   if d.tenant == tenant and d.action is not None]
        assert changed
    # per-tenant metric namespaces exist side by side
    names = {e["name"] for e in recorder.metrics.snapshot()}
    assert "controller.volcano.ticks" in names
    assert "controller.numa.ticks" in names
    assert "cpuset.volcano.allowed_cores" in names


def test_trace_records_are_attributable_per_tenant(monkeypatch):
    controllers = []

    class Captured(ElasticController):
        def start(self):
            controllers.append(self)
            super().start()

    monkeypatch.setattr(ext_multi_tenant, "ElasticController", Captured)
    run_small()
    assert {c.tenant for c in controllers} == {"volcano", "numa"}
    os_ = controllers[0].os
    for controller in controllers:
        tenant = controller.tenant
        passes = [r for r in os_.tracer.of(TransitionRecord)
                  if r.tenant == tenant]
        assert len(passes) == controller.ticks > 0
        assert controller.lonc_report().ticks == controller.ticks
        # replaying the tenant's mask edits rebuilds its final leases
        held: set[int] = set()
        for record in os_.tracer.of(CoreAllocation):
            if record.tenant != tenant:
                continue
            if record.allocated:
                held.add(record.core_id)
            else:
                held.remove(record.core_id)
            assert record.n_allocated == len(held)
        assert held == os_.inventory.mask_of(tenant)
