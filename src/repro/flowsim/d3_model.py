"""D3 equilibrium rate model: first-come-first-reserve.

Demand phase: deadline flows, *in arrival order*, reserve ``s/d`` (remaining
size over time-to-deadline, capped at their maximal rate) on every link of
their path -- whatever the links still have. Fair-share phase: the leftover
capacity is split max-min across all flows on top of their reservations.

An early-arriving flow with a far deadline holds its reservation while a
later-arriving urgent flow can only get the leftovers: the D3 behaviour
PDQ's Fig 1 criticizes, which ``tests/test_experiments.py::TestFig1``
holds (every deadline met in one arrival order of six). With no deadline flows, the model
degenerates to RCP's max-min fairness, matching the paper's observation
that D3 and RCP coincide in the deadline-unconstrained case.

Quenching: flows whose deadline passed are terminated.
"""

from __future__ import annotations


from repro.flowsim.progress import FlowProgress
from repro.flowsim.rcp_model import max_min_rates


class D3Model:
    """Greedy arrival-order reservation plus max-min leftovers.

    ``capacities`` may be a dict keyed by ``(src, dst)`` name tuples or a
    flat list indexed by dense edge ids, matching the flows' path tokens.
    """

    name = "D3"

    def allocate(self, flows: list[FlowProgress], capacities,
                 now: float) -> dict[int, float]:
        residual = capacities.copy()
        reserved: dict[int, float] = {f.fid: 0.0 for f in flows}

        # phase 1: first-come-first-reserve for deadline flows
        deadline_flows = sorted(
            (f for f in flows if f.abs_deadline is not None),
            key=lambda f: (f.spec.arrival, f.fid),
        )
        for flow in deadline_flows:
            deadline = flow.abs_deadline
            time_left = deadline - now
            if time_left <= 0:
                continue  # quenching will remove it
            demand = min(flow.max_rate, flow.remaining_wire * 8.0 / time_left)
            available = min(
                (residual[edge] for edge in flow.path), default=0.0
            )
            grant = max(0.0, min(demand, available))
            if grant > 0:
                reserved[flow.fid] = grant
                for edge in flow.path:
                    residual[edge] -= grant

        # phase 2: max-min fair share of the leftovers on top of reservations
        leftovers = [
            _Shadow(f, max(0.0, f.max_rate - reserved[f.fid])) for f in flows
        ]
        shares = max_min_rates(leftovers, residual)
        return {
            f.fid: reserved[f.fid] + shares.get(f.fid, 0.0) for f in flows
        }

    def terminations(self, flows: list[FlowProgress],
                     rates: dict[int, float], now: float) -> list[tuple[int, str]]:
        return [
            (f.fid, "quenching:deadline_passed")
            for f in flows
            if f.abs_deadline is not None and now > f.abs_deadline
        ]


class _Shadow:
    """FlowProgress stand-in with a reduced max rate for the leftover
    water-filling phase."""

    __slots__ = ("fid", "path", "max_rate")

    def __init__(self, flow: FlowProgress, headroom: float):
        self.fid = flow.fid
        self.path = flow.path
        self.max_rate = headroom
