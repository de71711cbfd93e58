"""Core placement and leasing for the elastic controller.

See :mod:`repro.control.stages` for the planner and the lease actuator;
``docs/control_plane.md`` has the controller's loop and the core-lease
semantics.
"""

from .stages import NO_CHANGE, CoreDelta, LeaseActuator, ModePlanner

__all__ = [
    "CoreDelta",
    "LeaseActuator",
    "ModePlanner",
    "NO_CHANGE",
]
