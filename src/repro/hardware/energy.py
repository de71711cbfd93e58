"""Energy estimation, following the paper's methodology (§V-C3).

The paper estimates energy from hardware counters rather than measuring it:

* **CPU energy** uses the Average CPU Power (ACP) rating of the Opteron and
  the measured busy time — a socket burns an idle floor plus a
  utilisation-proportional share up to ACP;
* **HT energy** multiplies the counted interconnect bytes by an average
  energy-per-bit figure taken from Wang & Lee's blade-server model [19].

Both inputs come straight out of the simulated
:class:`~repro.hardware.counters.CounterBank`, mirroring how the authors fed
likwid counters into the same formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MachineConfig
from .counters import CounterSnapshot
from .topology import Topology


@dataclass(frozen=True)
class EnergyReport:
    """Joules attributed to CPU sockets and to the interconnect."""

    cpu_joules: float
    ht_joules: float


class EnergyModel:
    """Counter-driven energy estimator for one machine configuration."""

    def __init__(self, config: MachineConfig):
        self.config = config

    def cpu_energy(self, busy_time_by_core: dict[int, float],
                   elapsed: float, topology: Topology) -> float:
        """Socket energy over ``elapsed`` seconds of wall-clock.

        Each socket draws ``idle_fraction * ACP`` when fully idle and ramps
        linearly to ACP at full utilisation of its cores.
        """
        if elapsed <= 0:
            return 0.0
        config = self.config
        idle_watts = config.acp_watts * config.idle_power_fraction
        dynamic_watts = config.acp_watts - idle_watts
        total = 0.0
        for node in topology.all_nodes():
            busy = sum(busy_time_by_core.get(core, 0.0)
                       for core in topology.cores_of_node(node))
            utilisation = min(busy / (topology.cores_per_socket * elapsed),
                              1.0)
            total += elapsed * (idle_watts + dynamic_watts * utilisation)
        return total

    def ht_energy(self, ht_bytes: float) -> float:
        """Interconnect energy for a cumulative byte count."""
        return max(ht_bytes, 0.0) * 8.0 * self.config.ht_joules_per_bit

    def report(self, start: CounterSnapshot, end: CounterSnapshot,
               topology: Topology) -> EnergyReport:
        """Energy between two counter snapshots."""
        elapsed = end.time - start.time
        busy = {
            core: end.delta(start, "busy_time", core)
            for core in topology.all_cores()
        }
        cpu = self.cpu_energy(busy, elapsed, topology)
        ht = self.ht_energy(end.delta_total(start, "ht_tx_bytes"))
        return EnergyReport(cpu_joules=cpu, ht_joules=ht)
