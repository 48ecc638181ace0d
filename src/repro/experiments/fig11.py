"""Fig 11: Multipath PDQ on BCube(2,3) with random permutation traffic.

(a) mean FCT vs load (fraction of sending hosts): PDQ vs M-PDQ(3 subflows)
(b) mean FCT vs number of subflows at full load
(c) max deadline flows at 99 % application throughput vs subflows

The PDQ/M-PDQ choice rides a *labeled* axis (1 subflow means single-path
PDQ, so the protocol and ``n_subflows`` option vary together); all three
panels are declarative grids/searches on the Experiment API.
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
from repro.topology.bcube import BCube
from repro.units import KBYTE, MSEC
from repro.utils.rng import spawn_rng
from repro.workload.deadlines import exponential_deadlines
from repro.workload.flow import FlowSpec
from repro.workload.sizes import uniform_sizes


TOPOLOGY = TopologySpec("bcube", {"n": 2, "k": 3})


def _bcube() -> BCube:
    return BCube(n=2, k=3)  # 16 servers, 4 NICs each (§6)


def _permutation_subset(load: float, seed: int, mean_size: float,
                        mean_deadline=None, topo=None) -> list[FlowSpec]:
    """Random permutation over a ``load`` fraction of hosts."""
    topo = topo if topo is not None else _bcube()
    hosts = list(topo.hosts)
    rng = spawn_rng(seed, "fig11")
    n_senders = max(2, int(round(load * len(hosts))))
    chosen = list(rng.permutation(hosts))[:n_senders]
    # derangement over the chosen hosts
    while True:
        perm = list(rng.permutation(len(chosen)))
        if all(perm[i] != i for i in range(len(chosen))):
            break
    sizes = uniform_sizes(n_senders, mean_size, rng=rng)
    deadlines = None
    if mean_deadline is not None:
        deadlines = exponential_deadlines(n_senders, mean=mean_deadline,
                                          rng=rng)
    return [
        FlowSpec(fid=i, src=chosen[i], dst=chosen[perm[i]],
                 size_bytes=sizes[i],
                 deadline=deadlines[i] if deadlines else None)
        for i in range(n_senders)
    ]


@register_workload("fig11.permutation_subset")
def _build_permutation_subset(topology, seed: int, load: float,
                              mean_size: float,
                              mean_deadline=None) -> list[FlowSpec]:
    return _permutation_subset(load, seed, mean_size, mean_deadline,
                               topo=topology)


@register_workload("fig11.random_pairs")
def _build_random_pairs(topology, seed: int, n_flows: int, mean_size: float,
                        mean_deadline: float) -> list[FlowSpec]:
    hosts = list(topology.hosts)
    rng = spawn_rng(seed, "fig11c")
    sizes = uniform_sizes(n_flows, mean_size, rng=rng)
    deadlines = exponential_deadlines(n_flows, mean=mean_deadline, rng=rng)
    flows = []
    for i in range(n_flows):
        src_i = int(rng.integers(len(hosts)))
        dst_i = int(rng.integers(len(hosts) - 1))
        if dst_i >= src_i:
            dst_i += 1
        flows.append(FlowSpec(fid=i, src=hosts[src_i], dst=hosts[dst_i],
                              size_bytes=sizes[i],
                              deadline=deadlines[i]))
    return flows


def _subflow_axis(counts: Sequence[int]) -> tuple:
    """Labeled axis: 1 subflow = single-path PDQ, more = M-PDQ."""
    return tuple(
        (count, {"protocol": "PDQ(Full)" if count == 1 else "M-PDQ",
                 "options.n_subflows": count})
        for count in counts
    )


def fig11a_panel(loads: Sequence[float] = (0.25, 0.5, 1.0),
                 seeds: Sequence[int] = (1, 2),
                 mean_size: float = 1000 * KBYTE,
                 n_subflows: int = 3) -> Panel:
    """Mean FCT (seconds) vs load for PDQ and M-PDQ."""
    return Panel(
        name="fig11a",
        title="mean FCT vs load: PDQ vs M-PDQ",
        base=ScenarioSpec(
            protocol="PDQ(Full)",
            topology=TOPOLOGY,
            workload=WorkloadSpec("fig11.permutation_subset", {
                "load": loads[0],
                "mean_size": mean_size,
            }),
            engine="packet",
            sim_deadline=4.0,
            options={"n_subflows": n_subflows},
        ),
        axes=(("workload.load", tuple(loads)),
              ("scheme", (("PDQ", {"protocol": "PDQ(Full)"}),
                          ("M-PDQ", {"protocol": "M-PDQ"}))),
              ("seed", tuple(seeds))),
        reducer="series",
        reducer_params={"series": "scheme", "x": "workload.load",
                        "metric": "mean_fct"},
    )


def fig11b_panel(subflow_counts: Sequence[int] = (1, 2, 3, 4, 6, 8),
                 seeds: Sequence[int] = (1, 2),
                 mean_size: float = 1000 * KBYTE) -> Panel:
    """Mean FCT (seconds) vs number of subflows at 100 % load; 1 subflow
    means single-path PDQ."""
    return Panel(
        name="fig11b",
        title="mean FCT vs number of subflows at full load",
        base=ScenarioSpec(
            protocol="PDQ(Full)",
            topology=TOPOLOGY,
            workload=WorkloadSpec("fig11.permutation_subset", {
                "load": 1.0,
                "mean_size": mean_size,
            }),
            engine="packet",
            sim_deadline=4.0,
            options={"n_subflows": subflow_counts[0]},
        ),
        axes=(("subflows", _subflow_axis(subflow_counts)),
              ("seed", tuple(seeds))),
        reducer="series",
        reducer_params={"x": "subflows", "metric": "mean_fct"},
    )


def fig11c_panel(subflow_counts: Sequence[int] = (1, 2, 4),
                 seeds: Sequence[int] = (1,),
                 mean_size: float = 1000 * KBYTE,
                 mean_deadline: float = 30 * MSEC,
                 target: float = 0.99,
                 hi: int = 32) -> Panel:
    """Max deadline flows at 99 % application throughput vs subflows."""
    # the flow count is swept by running multiple permutation rounds over
    # a random host subset (more flows than hosts reuse senders)
    return Panel(
        name="fig11c",
        title="max deadline flows at 99 % throughput vs subflows",
        base=ScenarioSpec(
            protocol="PDQ(Full)",
            topology=TOPOLOGY,
            workload=WorkloadSpec("fig11.random_pairs", {
                "n_flows": 1,
                "mean_size": mean_size,
                "mean_deadline": mean_deadline,
            }),
            engine="packet",
            sim_deadline=2.0,
            options={"n_subflows": subflow_counts[0]},
        ),
        axes=(("subflows", _subflow_axis(subflow_counts)),),
        search=SearchSpec(axis="workload.n_flows", target=target,
                          metric="application_throughput",
                          seeds=tuple(seeds), hi=hi),
        reducer="series",
        reducer_params={"x": "subflows"},
    )


register_experiment(Experiment(
    name="fig11",
    title="multipath PDQ on BCube(2,3)",
    panels=(fig11a_panel(), fig11b_panel(), fig11c_panel()),
))
