"""The paper's contribution: the elastic multi-core allocation mechanism.

Layering (paper §III-IV):

* :mod:`repro.core.petrinet` — a generic Predicate/Transition net with
  valued tokens, guards and incidence matrices;
* :mod:`repro.core.model` — the concrete 5-place / 8-transition performance
  model (``Checks``, ``Idle``, ``Stable``, ``Overload``, ``Provision``;
  ``t0..t7``) built from the paper's three sub-nets;
* :mod:`repro.core.strategies` — what the ``Checks`` token carries: CPU load
  (``thmin=10, thmax=70``) or the HT/IMC traffic ratio (``0.1 / 0.4``);
* :mod:`repro.core.modes` — *where* to allocate/release: Sparse, Dense and
  Adaptive Priority (backed by :mod:`repro.core.priority`);
* :mod:`repro.core.controller` — the rule-condition-action pipeline that
  samples the monitor, fires the net and edits the cpuset.
"""

from .controller import ElasticController
from .lonc import LoncReport, lonc_report
from .model import PerformanceModel, TransitionChain
from .modes import (AdaptivePriorityMode, AllocationMode, DenseMode,
                    SparseMode, make_mode)
from .monitor import Monitor, MonitorSample
from .petrinet import Arc, PetriNet, Place, Transition
from .priority import NodePriorityQueue
from .feedforward import PredicateAwareSizer
from .sla import SlaGovernor
from .strategies import (CpuLoadStrategy, HtImcStrategy, TransitionStrategy,
                         make_strategy)

__all__ = [
    "Place", "Arc", "Transition", "PetriNet",
    "PerformanceModel", "TransitionChain",
    "TransitionStrategy", "CpuLoadStrategy", "HtImcStrategy",
    "make_strategy",
    "AllocationMode", "SparseMode", "DenseMode", "AdaptivePriorityMode",
    "make_mode",
    "NodePriorityQueue",
    "Monitor", "MonitorSample",
    "LoncReport", "lonc_report",
    "ElasticController",
    "SlaGovernor",
    "PredicateAwareSizer",
]
