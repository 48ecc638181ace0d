"""Per-epoch certificates for the fluid rate models.

Each certificate checks the rate vector one ``allocate`` call returned
against the property that defines it, not against a second
implementation, and raises :class:`~repro.errors.SimulationError`
naming the flow, the edge and the numbers:

* **max-min** (RCP, and D3's leftover phase): feasible -- every rate in
  ``[0, max_rate]`` and no edge over capacity -- and every flow below
  its cap crosses a saturated edge on which no flow is faster
  (Bertsekas--Gallager's bottleneck characterisation);
* **D3**: the reservations re-derived in ``(arrival, fid)`` order, then
  max-min on the residual capacities with each flow capped at its
  ``max_rate`` minus its reservation;
* **PDQ**: exact equality, flow by flow, with the §3 greedy in the
  model's key order under the crumb rule.

Rates are relative-tolerance checked (``1e-9`` on caps, ``1e-6`` on
saturation) except PDQ's, whose greedy performs the model's float
operations in the model's order.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.flowsim.d3_model import D3Model, _Shadow
from repro.flowsim.pdq_model import PdqModel
from repro.flowsim.rcp_model import RcpModel

#: relative slack on a flow's cap and an edge's capacity
_FEASIBLE = 1e-9
#: relative shortfall below capacity that still counts as saturated
_SATURATED = 1e-6


def check_max_min(flows, capacities, rates: dict[int, float]) -> None:
    """Certify ``rates`` as the max-min fair allocation of ``flows``
    (each with ``fid``, ``path`` and ``max_rate``) over ``capacities``."""
    load: dict = {}
    fastest: dict = {}
    for flow in flows:
        rate = rates.get(flow.fid)
        if rate is None:
            raise SimulationError(f"max-min: no rate for flow {flow.fid}")
        if not 0.0 <= rate <= flow.max_rate * (1 + _FEASIBLE):
            raise SimulationError(
                f"max-min: flow {flow.fid} rate {rate!r} outside "
                f"[0, max_rate {flow.max_rate!r}] on path {list(flow.path)}")
        for edge in flow.path:
            load[edge] = load.get(edge, 0.0) + rate
            fastest[edge] = max(fastest.get(edge, 0.0), rate)
    for edge, carried in load.items():
        if carried > capacities[edge] * (1 + _FEASIBLE):
            raise SimulationError(
                f"max-min: edge {edge} carries {carried!r} over its "
                f"capacity {capacities[edge]!r}")
    for flow in flows:
        rate = rates[flow.fid]
        if rate >= flow.max_rate:
            continue
        if not any(load[edge] >= capacities[edge] * (1 - _SATURATED)
                   and fastest[edge] <= rate * (1 + _FEASIBLE)
                   for edge in flow.path):
            edges = ", ".join(
                f"{edge}: load {load[edge]!r} of {capacities[edge]!r}, "
                f"fastest {fastest[edge]!r}" for edge in flow.path)
            raise SimulationError(
                f"max-min: flow {flow.fid} at {rate!r} below its max_rate "
                f"{flow.max_rate!r} has no bottleneck edge ({edges})")


def check_d3(flows, capacities, now: float,
             rates: dict[int, float]) -> None:
    """Certify a :class:`~repro.flowsim.d3_model.D3Model` answer."""
    residual = capacities.copy()
    reserved = dict.fromkeys((f.fid for f in flows), 0.0)
    for flow in sorted((f for f in flows if f.abs_deadline is not None),
                       key=lambda f: (f.spec.arrival, f.fid)):
        time_left = flow.abs_deadline - now
        if time_left <= 0:
            continue
        demand = min(flow.max_rate, flow.remaining_wire * 8.0 / time_left)
        grant = max(0.0, min(demand, min(
            (residual[edge] for edge in flow.path), default=0.0)))
        if grant > 0:
            reserved[flow.fid] = grant
            for edge in flow.path:
                residual[edge] -= grant
    check_max_min(
        [_Shadow(f, max(0.0, f.max_rate - reserved[f.fid])) for f in flows],
        residual,
        {f.fid: rates[f.fid] - reserved[f.fid] for f in flows
         if f.fid in rates})


def check_pdq(model: PdqModel, flows, capacities, now: float,
              rates: dict[int, float]) -> None:
    """Certify a :class:`~repro.flowsim.pdq_model.PdqModel` answer: an
    absent fid reads ``flow.rate``, the rate the engine keeps."""
    min_rate = model.config.min_rate
    crumb_fraction = model.config.crumb_fraction
    residual: dict = {}
    for key, flow in sorted((model._key(f, now), f) for f in flows):
        max_rate = flow.max_rate
        tight = None
        available = 0.0
        for edge in flow.path:
            left = residual.get(edge, capacities[edge])
            if tight is None or left < available:
                available = left
                tight = edge
        expected = min(max_rate, available)
        floor = max(min_rate, crumb_fraction * max_rate)
        if expected < floor or expected <= 0.0:
            expected = 0.0
        got = rates.get(flow.fid, flow.rate)
        if got != expected:
            raise SimulationError(
                f"PDQ: flow {flow.fid} (key {key}) got {got!r}, the greedy "
                f"gives {expected!r}: max_rate {max_rate!r}, floor "
                f"{floor!r}, residual {available!r} on edge {tight}")
        for edge in flow.path:
            residual[edge] = residual.get(edge, capacities[edge]) - expected


def check_allocate(model, flows, capacities, now: float,
                   rates: dict[int, float]) -> None:
    """Certify one ``model.allocate(flows, capacities, now)`` answer."""
    if isinstance(model, PdqModel):
        check_pdq(model, flows, capacities, now, rates)
    elif isinstance(model, D3Model):
        check_d3(flows, capacities, now, rates)
    elif isinstance(model, RcpModel):
        check_max_min(flows, capacities, rates)
    else:
        raise SimulationError(f"no certificate for {type(model).__name__}")
