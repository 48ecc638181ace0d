"""Fig 1: the motivating example, on the fluid engine.

Three flows A, B and C of 1, 2 and 3 units (a unit is 1 MB, 8 ms at
1 Gbps) share one 1 Gbps bottleneck, with deadlines of 1, 4 and 6 units.
The panel runs RCP (fair sharing), PDQ(Full) (SJF/EDF) and D3 on the flow
engine for each of the 3! arrival orders. The paper's §2.1 numbers: fair
sharing finishes the flows at [3, 5, 6] units and misses two deadlines,
SJF/EDF finishes them at [1, 3, 6] and misses none, and D3's
first-come-first-reserve meets every deadline in only one order.

The ``order`` workload parameter is a string such as ``"BAC"``; a flow's
``fid`` is its rank in it. Every flow arrives at time 0 and D3 reserves
in ``(arrival, fid)`` order, so ``order`` is D3's arrival order.
"""

from __future__ import annotations

import itertools

from repro.campaign import (
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    register_workload,
)
from repro.errors import WorkloadError
from repro.experiments.api import (
    Experiment,
    Panel,
    register_experiment,
)
from repro.experiments.reducers import register_reducer
from repro.units import GBPS, MBYTE, tx_time
from repro.workload.flow import FlowSpec

NAMES = "ABC"
SIZES = (1, 2, 3)
DEADLINES = (1, 4, 6)
UNIT_BYTES = 1 * MBYTE
#: one unit of payload at the bottleneck rate: 8 ms
UNIT_TIME = tx_time(UNIT_BYTES, 1 * GBPS)
#: deadline stretch over the fluid closed form. Per-packet headers add
#: 3.0-3.9 % to every flow and data starts after 2 RTTs, which eats a
#: slack of 1.05 or less: there PDQ(Full) misses a deadline and D3 fails
#: in all six orders (at 1.0 RCP misses all three). At 1.1 and 1.2 each
#: protocol shows the paper's outcome; at 1.4 RCP misses only one
#: deadline and D3 fails in only four orders.
SLACK = 1.1
ORDERS = tuple("".join(p) for p in itertools.permutations(NAMES))
PROTOCOLS = ("RCP", "PDQ(Full)", "D3")


@register_workload("fig1.motivation")
def _build_workload(topology, seed: int, order: str = NAMES) -> list[FlowSpec]:
    if not isinstance(order, str) or sorted(order) != sorted(NAMES):
        raise WorkloadError(
            f"order must be a permutation of {NAMES!r}, got {order!r}")
    flows = []
    for fid, name in enumerate(order):
        i = NAMES.index(name)
        flows.append(FlowSpec(fid=fid, src=f"send{i}", dst="recv",
                              size_bytes=SIZES[i] * UNIT_BYTES,
                              deadline=DEADLINES[i] * UNIT_TIME * SLACK))
    return flows


@register_reducer("fig1.motivation")
def _reduce_motivation(run) -> dict[str, object]:
    completions: dict[str, dict[str, list[float | None]]] = {}
    misses: dict[str, dict[str, int]] = {}
    for combo, _spec, collector in run.rows:
        protocol, order = combo["protocol"], combo["workload.order"]
        # records of A, B and C, whatever their fids
        records = [collector.records[order.index(name)] for name in NAMES]
        completions.setdefault(protocol, {})[order] = [
            None if r.fct is None else r.fct / UNIT_TIME for r in records]
        misses.setdefault(protocol, {})[order] = sum(
            not r.met_deadline for r in records)
    d3_misses = misses.get("D3", {})
    return {
        "completions": completions,
        "deadline_misses": misses,
        "d3_failing_orders": [o for o, m in d3_misses.items() if m > 0],
        "paper": {
            "RCP": {"completions": [3.0, 5.0, 6.0], "deadline_misses": 2},
            "PDQ(Full)": {"completions": [1.0, 3.0, 6.0],
                          "deadline_misses": 0},
            "D3": {"failing_orders": 5},
        },
    }


def fig1_panel() -> Panel:
    """Completions and deadline misses per protocol per arrival order."""
    return Panel(
        name="fig1",
        title="the motivating example: three flows on one bottleneck",
        base=ScenarioSpec(
            protocol=PROTOCOLS[0],
            topology=TopologySpec("single_bottleneck", {"n_senders": 3}),
            workload=WorkloadSpec("fig1.motivation", {"order": NAMES}),
            engine="flow",
        ),
        axes=(("protocol", PROTOCOLS), ("workload.order", ORDERS)),
        reducer="fig1.motivation",
    )


register_experiment(Experiment(
    name="fig1",
    title="the motivating example",
    panels=(fig1_panel(),),
))
