"""Fault injection: scheduled link/switch failures and generalized loss.

Declared on :class:`~repro.campaign.spec.ScenarioSpec` via the ``faults``
field (see :mod:`repro.faults.spec` for the schema), executed by the
packet engine's :class:`~repro.faults.controller.FaultController` and the
fluid engine's fault-epoch handling in
:meth:`~repro.flowsim.engine.FlowLevelSimulation.run` (fault epochs
splice into its one event loop like unadmitted arrivals).
"""

from repro.faults.spec import ACTIONS, FaultEvent, Faults, LossRule
from repro.faults.controller import FaultController, apply_loss

__all__ = [
    "ACTIONS",
    "FaultController",
    "FaultEvent",
    "Faults",
    "LossRule",
    "apply_loss",
]
