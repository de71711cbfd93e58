#!/usr/bin/env python3
"""Two elastic controllers governing one machine, side by side.

Each controller holds *core leases* against a machine-wide inventory
instead of writing the one cpuset directly, and places its cores around
the ones the other tenant holds.
This demo runs two tenants — the MonetDB-like Volcano engine and the
SQL Server-like NUMA-aware engine — each under its own controller, on
one simulated Opteron 8387, and shows:

1. the per-tenant outcome table (the inventory kept every lease
   disjoint, or the harness would have raised);
2. each controller's decision provenance, filtered by tenant — what
   ``repro explain out/ --tenant volcano`` prints for a recorded run;
3. each tenant's metric namespace — what ``repro stats out/ --tenant
   numa`` summarises.

Run:  python examples/two_controllers.py
"""

from repro.experiments import ext_multi_tenant
from repro.obs import (Recorder, explain_decision, install, stats_table,
                       uninstall)


def main() -> None:
    print(__doc__)

    recorder = Recorder()
    install(recorder)
    try:
        result = ext_multi_tenant.run()
    finally:
        uninstall()

    print(result.table())

    for tenant in ("volcano", "numa"):
        changed = [d for d in recorder.decisions.all()
                   if d.tenant == tenant and d.action is not None]
        print(f"\n--- first mask change of tenant {tenant!r} "
              f"({len(changed)} total) ---")
        if changed:
            print(explain_decision(changed[0]))

    print()
    print(stats_table(recorder.metrics, title="telemetry",
                      tenant="numa"))


if __name__ == "__main__":
    main()
