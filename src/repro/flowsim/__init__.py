"""Flow-level simulator (paper §5.5).

"To study these protocols at large scales, we construct a flow-level
simulator for PDQ, D3 and RCP. In particular, we use an iterative approach
to find the equilibrium flow sending rates ... The flow-level simulator
also considers protocol inefficiencies like flow initialization time and
packet header overhead."

The engine is event-driven fluid simulation: rates are recomputed at every
arrival / completion / termination (and at a refresh interval for
time-varying disciplines like aging); between events, rates are constant
and progress is linear.
"""

from repro.flowsim.d3_model import D3Model
from repro.flowsim.engine import FlowLevelSimulation
from repro.flowsim.pdq_model import PdqModel
from repro.flowsim.progress import FlowProgress
from repro.flowsim.rcp_model import RcpModel

__all__ = [
    "FlowLevelSimulation",
    "FlowProgress",
    "PdqModel",
    "RcpModel",
    "D3Model",
]
