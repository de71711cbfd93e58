"""State-transition strategies: what metric drives the PrT net.

The paper demonstrates the model's flexibility by swapping the quantity the
``Checks`` token carries (§V-B):

* :class:`CpuLoadStrategy` — average CPU load of the allocated cores, with
  the rule-of-thumb thresholds ``thmin=10`` / ``thmax=70`` [17];
* :class:`HtImcStrategy` — the HT/IMC traffic ratio with empirically chosen
  ``thmin=0.1`` / ``thmax=0.4``.  Note the *polarity* is the same: a high
  ratio means threads reach across the interconnect for their data, so more
  local cores should be offered (Overload), while a negligible ratio means
  the current cores already satisfy locality (Idle candidates for release).
"""

from __future__ import annotations

from ..errors import ConfigError
from .monitor import MonitorSample


class TransitionStrategy:
    """Interface: a metric extractor plus its thresholds."""

    name = "abstract"
    th_min = 0.0
    th_max = 1.0

    def metric(self, sample: MonitorSample) -> float:
        """The value the ``Checks`` token carries this tick."""
        raise NotImplementedError


class CpuLoadStrategy(TransitionStrategy):
    """CPU-load driven transitions (the paper's primary configuration).

    ``u`` is the mpstat-style busy percentage averaged over the allocated
    cores, thresholds 10/70 from the literature's rules of thumb [17].
    """

    name = "cpu_load"

    def __init__(self, th_min: float = 10.0, th_max: float = 70.0):
        if not 0 <= th_min < th_max <= 100:
            raise ConfigError("CPU-load thresholds must satisfy "
                              "0 <= thmin < thmax <= 100")
        self.th_min = th_min
        self.th_max = th_max

    def metric(self, sample: MonitorSample) -> float:
        return sample.cpu_load


class UsefulLoadStrategy(TransitionStrategy):
    """Ablation: drive transitions by retired-work share instead of busy.

    Makes memory-bandwidth saturation visible (stalled cores stop counting
    toward ``u``) at the price of under-allocating when runnable demand is
    queued behind stalled-but-busy cores.  Exercised by the ablation
    benchmark, not used for the paper's headline configuration.
    """

    name = "useful_load"

    def __init__(self, th_min: float = 10.0, th_max: float = 70.0):
        if not 0 <= th_min < th_max <= 100:
            raise ConfigError("useful-load thresholds must satisfy "
                              "0 <= thmin < thmax <= 100")
        self.th_min = th_min
        self.th_max = th_max

    def metric(self, sample: MonitorSample) -> float:
        return sample.useful_load


class HtImcStrategy(TransitionStrategy):
    """HT/IMC-ratio driven transitions (paper §V-B).

    One adaptation over the paper's description: when the mask covers only
    the data's home nodes, the ratio can reach exactly zero while hundreds
    of runnable threads queue — the letter of the strategy would then
    *release* cores forever.  On the authors' testbed the ratio never hits
    zero (data and coherence traffic spread across nodes), so we treat
    "zero interconnect traffic with queued demand and a busy memory
    system" as Overload rather than Idle.  Without queued demand the plain
    ratio is used, so release behaviour is unchanged.
    """

    name = "ht_imc"

    def __init__(self, th_min: float = 0.1, th_max: float = 0.4):
        if not 0 <= th_min < th_max:
            raise ConfigError("HT/IMC thresholds must satisfy "
                              "0 <= thmin < thmax")
        self.th_min = th_min
        self.th_max = th_max

    def metric(self, sample: MonitorSample) -> float:
        ratio = sample.ht_imc_ratio
        saturated_locally = (sample.imc_bytes > 0
                             and ratio <= self.th_min)
        demand = sample.queue_pressure or sample.cpu_load >= 70.0
        if saturated_locally and demand:
            return self.th_max
        return ratio


def make_strategy(name: str, **kwargs) -> TransitionStrategy:
    """Factory: ``"cpu_load"``, ``"ht_imc"`` or ``"useful_load"``."""
    if name == "cpu_load":
        return CpuLoadStrategy(**kwargs)
    if name == "ht_imc":
        return HtImcStrategy(**kwargs)
    if name == "useful_load":
        return UsefulLoadStrategy(**kwargs)
    raise ConfigError(f"unknown strategy {name!r}")
