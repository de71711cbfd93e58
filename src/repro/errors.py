"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class.  Each layer of the system has its own
subclass to make failures attributable: the simulator, the simulated OS, the
database engines and the allocation mechanism each raise their own family.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError):
    """The discrete-event simulation engine detected an invalid operation."""


class SchedulerError(ReproError):
    """The simulated OS scheduler was driven into an invalid state."""


class HardwareError(ReproError):
    """The simulated hardware (caches, memory, interconnect) was misused."""


class DatabaseError(ReproError):
    """A database engine, plan or operator failed."""


class PlanError(DatabaseError):
    """A physical plan is malformed (bad stage wiring, unknown column...)."""


class WorkloadError(ReproError):
    """A workload definition or generator was misconfigured."""


class PetriNetError(ReproError):
    """The PrT net was built or fired inconsistently."""


class AllocationError(ReproError):
    """The core-allocation mechanism attempted an impossible allocation."""


class LeaseError(AllocationError):
    """A core-lease operation conflicts with the inventory's bookkeeping:
    acquiring a core another tenant holds, releasing a core the tenant
    does not hold, or shrinking a tenant below its ``min_cores`` floor."""


class VerificationError(ReproError):
    """Static verification of the mechanism failed.

    Raised by the :mod:`repro.verify` analyses and by the controller's
    pre-flight checks.  Subclasses name the property that was violated so
    callers (and CI logs) can attribute the failure without parsing text.
    """


class ModelConfigurationError(VerificationError):
    """The configured model contradicts itself or the machine: inverted
    thresholds (``th_min >= th_max``) or core bounds that cannot fit
    (``min_cores > n_total`` ...)."""


class InvariantViolationError(VerificationError):
    """A P- or T-invariant the model depends on does not hold structurally
    (e.g. a place is not covered by any semi-positive P-invariant, so its
    tokens can leak or accumulate)."""


class GuardCoverageError(VerificationError):
    """The entry guards do not partition the metric domain: some metric
    value enables zero (gap) or several (overlap) transitions."""


class ReachabilityError(VerificationError):
    """Bounded reachability found a marking where the ``Checks`` token does
    not return, or a core count outside ``[min_cores, n_total]``."""

