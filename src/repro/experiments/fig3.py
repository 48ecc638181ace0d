"""Fig 3: query aggregation on the default 12-server single-rooted tree.

(a) application throughput vs number of deadline flows
(b) application throughput vs mean flow size (3 flows)
(c) max flows sustaining 99 % application throughput vs mean deadline
(d) mean FCT (normalized to optimal) vs number of flows, no deadlines
(e) mean FCT (normalized to optimal) vs mean flow size (3 flows)

Paper scale: flows up to 25, sizes 100-350 KB, deadlines 20-60 ms, many
seeds. Benchmarks run reduced sweeps; every panel builder takes the full
ranges. Each panel is declared through the Experiment API
(:mod:`repro.experiments.api`): ``run_panel(fig3a_panel(...))`` runs one.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.campaign import (
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    register_workload,
)
from repro.experiments.api import (
    Experiment,
    Panel,
    SearchSpec,
    register_experiment,
)
from repro.experiments.reducers import register_reducer
from repro.experiments.search import binary_search_max
from repro.sched.optimal import (
    optimal_application_throughput,
    sjf_completion_times,
)
from repro.units import GBPS, KBYTE, MSEC
from repro.utils.rng import spawn_rng
from repro.utils.stats import mean
from repro.workload.deadlines import exponential_deadlines
from repro.workload.flow import FlowSpec
from repro.workload.patterns import aggregation_flows
from repro.workload.sizes import uniform_sizes

DEFAULT_PROTOCOLS = ("PDQ(Full)", "PDQ(ES+ET)", "PDQ(ES)", "PDQ(Basic)",
                     "D3", "RCP", "TCP")
BOTTLENECK = 1 * GBPS  # the receiver's access link
TOPOLOGY = TopologySpec("single_rooted")


def _workload(n_flows: int, seed: int, mean_size: float,
              mean_deadline: float | None,
              deadline_floor: float = 3 * MSEC) -> list[FlowSpec]:
    """Query-aggregation workload: senders h1..h11 -> aggregator h0."""
    rng = spawn_rng(seed, "fig3")
    sizes = uniform_sizes(n_flows, mean_size, rng=rng)
    deadlines = None
    if mean_deadline is not None:
        deadlines = exponential_deadlines(
            n_flows, mean=mean_deadline, floor=deadline_floor, rng=rng
        )
    senders = [f"h{i}" for i in range(1, 12)]
    return aggregation_flows(senders, "h0", sizes, deadlines=deadlines,
                             rng=rng)


@register_workload("fig3.aggregation")
def _build_workload(topology, seed: int, n_flows: int, mean_size: float,
                    mean_deadline: float | None = None,
                    deadline_floor: float = 3 * MSEC) -> list[FlowSpec]:
    return _workload(n_flows, seed, mean_size, mean_deadline, deadline_floor)


def _base_spec(n_flows: int, mean_size: float,
               mean_deadline: float | None,
               sim_deadline: float) -> ScenarioSpec:
    return ScenarioSpec(
        protocol=DEFAULT_PROTOCOLS[0],
        topology=TOPOLOGY,
        workload=WorkloadSpec("fig3.aggregation", {
            "n_flows": n_flows,
            "mean_size": mean_size,
            "mean_deadline": mean_deadline,
        }),
        engine="packet",
        sim_deadline=sim_deadline,
    )


def _optimal_app_throughput(flows: Sequence[FlowSpec]) -> float:
    sizes = [f.size_bytes for f in flows]
    deadlines = [f.deadline for f in flows]
    return optimal_application_throughput(sizes, deadlines, BOTTLENECK)


# -- reducers ---------------------------------------------------------------------


@register_reducer("fig3.app_tput_table")
def _reduce_app_tput(run, x: str) -> dict:
    """{protocol: {x: mean application throughput}} plus the omniscient
    "Optimal" scheduler row computed from the cells' workloads."""
    protocols = run.axis_values("protocol")
    seeds = run.axis_values("seed")
    results = {p: {} for p in protocols}
    results["Optimal"] = {}
    spec_at = {
        (combo[x], combo["seed"]): spec for combo, spec, _ in run.rows
    }
    for x_value in run.axis_values(x):
        results["Optimal"][x_value] = mean(
            _optimal_app_throughput(run.flows(spec_at[(x_value, s)]))
            for s in seeds
        )
    cells = run.cell_values(("protocol", x), "application_throughput")
    for (protocol, x_value), value in cells.items():
        results[protocol][x_value] = value
    return results


def _normalized_fct(metrics, flows: Sequence[FlowSpec]) -> float:
    measured = metrics.mean_fct()
    optimal = mean(
        sjf_completion_times([f.size_bytes for f in flows], BOTTLENECK)
    )
    return measured / optimal


@register_reducer("fig3.norm_fct_table")
def _reduce_norm_fct(run, x: str) -> dict:
    """{protocol: {x: mean FCT normalized to the omniscient optimal}}."""
    results = {p: {} for p in run.axis_values("protocol")}
    by_cell = {}
    for combo, spec, metrics in run.rows:
        by_cell.setdefault((combo["protocol"], combo[x]), []).append(
            _normalized_fct(metrics, run.flows(spec))
        )
    for (protocol, x_value), values in by_cell.items():
        results[protocol][x_value] = mean(values)
    return results


@register_reducer("fig3.flows_at_target")
def _reduce_flows_at_target(run) -> dict:
    """Search results {protocol: {deadline: max flows}} plus the Optimal
    row found by the same binary search over the analytic scheduler."""
    search = run.panel.search
    mean_size = run.panel.base.workload.params["mean_size"]
    results = {p: {} for p in run.axis_values("protocol")}
    results["Optimal"] = {}
    for deadline in run.axis_values("workload.mean_deadline"):
        def optimal_ok(n: int, _d=deadline) -> bool:
            return mean(
                _optimal_app_throughput(_workload(n, s, mean_size, _d))
                for s in search.seeds
            ) >= search.target

        results["Optimal"][deadline] = binary_search_max(
            optimal_ok, hi=search.hi
        )
    cells = run.cell_values(("protocol", "workload.mean_deadline"), None)
    for (protocol, deadline), value in cells.items():
        results[protocol][deadline] = value
    return results


# -- panels -----------------------------------------------------------------------


def fig3a_panel(flow_counts: Sequence[int] = (3, 10, 18),
                protocols: Sequence[str] = DEFAULT_PROTOCOLS,
                seeds: Sequence[int] = (1, 2),
                mean_size: float = 100 * KBYTE,
                mean_deadline: float = 20 * MSEC) -> Panel:
    """Application throughput [0..1] per protocol per flow count."""
    return Panel(
        name="fig3a",
        title="application throughput vs number of deadline flows",
        base=_base_spec(flow_counts[0], mean_size, mean_deadline, 2.0),
        axes=(("workload.n_flows", tuple(flow_counts)),
              ("protocol", tuple(protocols)),
              ("seed", tuple(seeds))),
        reducer="fig3.app_tput_table",
        reducer_params={"x": "workload.n_flows"},
    )


def fig3b_panel(mean_sizes: Sequence[float] = (100 * KBYTE, 200 * KBYTE,
                                               300 * KBYTE),
                protocols: Sequence[str] = DEFAULT_PROTOCOLS,
                seeds: Sequence[int] = (1, 2),
                n_flows: int = 3,
                mean_deadline: float = 20 * MSEC) -> Panel:
    """Application throughput per protocol per mean flow size (3 flows)."""
    return Panel(
        name="fig3b",
        title="application throughput vs mean flow size",
        base=_base_spec(n_flows, mean_sizes[0], mean_deadline, 2.0),
        axes=(("workload.mean_size", tuple(mean_sizes)),
              ("protocol", tuple(protocols)),
              ("seed", tuple(seeds))),
        reducer="fig3.app_tput_table",
        reducer_params={"x": "workload.mean_size"},
    )


def fig3c_panel(mean_deadlines: Sequence[float] = (20 * MSEC, 40 * MSEC),
                protocols: Sequence[str] = ("PDQ(Full)", "D3", "RCP", "TCP"),
                seeds: Sequence[int] = (1, 2),
                mean_size: float = 100 * KBYTE,
                target: float = 0.99,
                hi: int = 48) -> Panel:
    """Max number of flows at >= 99 % application throughput."""
    return Panel(
        name="fig3c",
        title="max flows at 99 % application throughput vs mean deadline",
        base=_base_spec(1, mean_size, mean_deadlines[0], 2.0),
        axes=(("workload.mean_deadline", tuple(mean_deadlines)),
              ("protocol", tuple(protocols))),
        search=SearchSpec(axis="workload.n_flows", target=target,
                          metric="application_throughput",
                          seeds=tuple(seeds), hi=hi),
        reducer="fig3.flows_at_target",
    )


def fig3d_panel(flow_counts: Sequence[int] = (1, 5, 10),
                protocols: Sequence[str] = ("PDQ(Full)", "PDQ(ES)",
                                            "PDQ(Basic)", "RCP", "TCP"),
                seeds: Sequence[int] = (1, 2),
                mean_size: float = 100 * KBYTE) -> Panel:
    """Mean FCT normalized to the omniscient optimal, no deadlines."""
    return Panel(
        name="fig3d",
        title="mean FCT normalized to optimal vs number of flows",
        base=_base_spec(flow_counts[0], mean_size, None, 4.0),
        axes=(("workload.n_flows", tuple(flow_counts)),
              ("protocol", tuple(protocols)),
              ("seed", tuple(seeds))),
        reducer="fig3.norm_fct_table",
        reducer_params={"x": "workload.n_flows"},
    )


def fig3e_panel(mean_sizes: Sequence[float] = (100 * KBYTE, 200 * KBYTE,
                                               300 * KBYTE),
                protocols: Sequence[str] = ("PDQ(Full)", "PDQ(ES)",
                                            "PDQ(Basic)", "RCP", "TCP"),
                seeds: Sequence[int] = (1, 2),
                n_flows: int = 3) -> Panel:
    """Mean FCT normalized to optimal vs mean flow size (3 flows)."""
    return Panel(
        name="fig3e",
        title="mean FCT normalized to optimal vs mean flow size",
        base=_base_spec(n_flows, mean_sizes[0], None, 4.0),
        axes=(("workload.mean_size", tuple(mean_sizes)),
              ("protocol", tuple(protocols)),
              ("seed", tuple(seeds))),
        reducer="fig3.norm_fct_table",
        reducer_params={"x": "workload.mean_size"},
    )


register_experiment(Experiment(
    name="fig3",
    title="query aggregation on the default 12-server single-rooted tree",
    panels=(fig3a_panel(), fig3b_panel(), fig3c_panel(), fig3d_panel(),
            fig3e_panel()),
))
