"""Fig 8: network scale, topology generality, and the packet-level vs
flow-level cross-validation.

(a) fat-tree, deadline flows: max flows at 99 % application throughput vs
    network size (packet and flow level)
(b) fat-tree, no deadlines: mean FCT vs network size
(c,d) BCube / Jellyfish: mean FCT vs network size
(e) per-flow CDF of RCP FCT / PDQ FCT (flow level, ~128 servers)

Every panel is a declarative grid or search on the Experiment API (the
engine is just another axis, and the ``exclude`` rule expresses "TCP has
no flow-level model"); (e)'s reducer pairs each seed's PDQ and RCP runs
flow by flow.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.campaign import (
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    register_workload,
)
from repro.errors import ExperimentError
from repro.experiments.api import (
    Experiment,
    Panel,
    SearchSpec,
    register_experiment,
)
from repro.experiments.reducers import register_reducer
from repro.topology.base import Topology
from repro.units import KBYTE, MSEC
from repro.utils.rng import spawn_rng
from repro.utils.stats import cdf_points, fraction_at_most
from repro.workload.deadlines import exponential_deadlines
from repro.workload.flow import FlowSpec
from repro.workload.patterns import random_permutation_flows
from repro.workload.sizes import uniform_sizes


FAMILIES = ("fattree", "bcube", "jellyfish")
_FAMILY_PANELS = {"fattree": "fig8b", "bcube": "fig8c", "jellyfish": "fig8d"}


def _topo_spec(family: str, n_servers: int) -> TopologySpec:
    if family not in FAMILIES:
        raise ExperimentError(f"unknown topology family {family!r}")
    return TopologySpec(family, {"n_servers": n_servers})


def permutation_workload(topology: Topology, flows_per_server: int,
                         seed: int, mean_size: float = 100 * KBYTE,
                         mean_deadline=None) -> list[FlowSpec]:
    hosts = topology.hosts
    n = len(hosts) * flows_per_server
    rng = spawn_rng(seed, "fig8")
    sizes = uniform_sizes(n, mean_size, rng=rng)
    deadlines = None
    if mean_deadline is not None:
        deadlines = exponential_deadlines(n, mean=mean_deadline, rng=rng)
    return random_permutation_flows(hosts, sizes, deadlines=deadlines,
                                    rng=rng)


def _subset_deadline_workload(topology: Topology, n_flows: int,
                              seed: int, mean_deadline: float) -> list[FlowSpec]:
    """n random src->dst deadline flows (for the 99 %-throughput search)."""
    hosts = topology.hosts
    rng = spawn_rng(seed, "fig8a")
    sizes = uniform_sizes(n_flows, 100 * KBYTE, rng=rng)
    deadlines = exponential_deadlines(n_flows, mean=mean_deadline, rng=rng)
    flows = []
    for i in range(n_flows):
        src_i = int(rng.integers(len(hosts)))
        dst_i = int(rng.integers(len(hosts) - 1))
        if dst_i >= src_i:
            dst_i += 1
        flows.append(FlowSpec(fid=i, src=hosts[src_i], dst=hosts[dst_i],
                              size_bytes=sizes[i], deadline=deadlines[i]))
    return flows


@register_workload("fig8.permutation")
def _build_permutation(topology, seed: int, flows_per_server: int,
                       mean_size: float = 100 * KBYTE,
                       mean_deadline=None) -> list[FlowSpec]:
    return permutation_workload(topology, flows_per_server, seed, mean_size,
                                mean_deadline)


@register_workload("fig8.random_pairs")
def _build_random_pairs(topology, seed: int, n_flows: int,
                        mean_deadline: float) -> list[FlowSpec]:
    return _subset_deadline_workload(topology, n_flows, seed, mean_deadline)


@register_reducer("fig8.per_level")
def _reduce_per_level(run, metric: str = "mean_fct") -> dict:
    """{'<protocol>/<level>': {n_servers: value}} — searched maxima or
    the mean of ``metric`` over seeds."""
    cells = run.cell_values(
        ("topology.n_servers", "engine", "protocol"),
        metric,
    )
    results: dict[str, dict[int, float]] = {}
    for (n_servers, level, protocol), value in cells.items():
        results.setdefault(f"{protocol}/{level}", {})[n_servers] = value
    return results


def fig8a_panel(sizes: Sequence[int] = (16, 54),
                protocols: Sequence[str] = ("PDQ(Full)", "D3", "RCP"),
                levels: Sequence[str] = ("packet", "flow"),
                seeds: Sequence[int] = (1,),
                mean_deadline: float = 20 * MSEC,
                target: float = 0.99,
                hi: int = 64) -> Panel:
    """Max deadline flows at 99 % app throughput; keys are
    '<protocol>/<level>'."""
    return Panel(
        name="fig8a",
        title="max deadline flows at 99 % throughput vs fat-tree size",
        base=ScenarioSpec(
            protocol=protocols[0],
            topology=_topo_spec("fattree", sizes[0]),
            workload=WorkloadSpec("fig8.random_pairs", {
                "n_flows": 1,
                "mean_deadline": mean_deadline,
            }),
            engine=levels[0],
            sim_deadline=2.0,
        ),
        axes=(("topology.n_servers", tuple(sizes)),
              ("engine", tuple(levels)),
              ("protocol", tuple(protocols))),
        search=SearchSpec(axis="workload.n_flows", target=target,
                          metric="application_throughput",
                          seeds=tuple(seeds), hi=hi),
        reducer="fig8.per_level",
    )


def fct_vs_size_panel(family: str,
                      sizes: Sequence[int] = (16, 54),
                      protocols: Sequence[str] = ("PDQ(Full)", "RCP"),
                      levels: Sequence[str] = ("packet", "flow"),
                      seeds: Sequence[int] = (1,),
                      flows_per_server: int = 2) -> Panel:
    """Fig 8b/c/d: mean FCT (seconds) vs network size for one topology
    family; keys are '<protocol>/<level>'. TCP only exists at packet
    level."""
    return Panel(
        name=_FAMILY_PANELS.get(family, f"fig8-{family}"),
        title=f"mean FCT vs network size ({family})",
        base=ScenarioSpec(
            protocol=protocols[0],
            topology=_topo_spec(family, sizes[0]),
            workload=WorkloadSpec("fig8.permutation", {
                "flows_per_server": flows_per_server,
            }),
            engine=levels[0],
            sim_deadline=4.0,
        ),
        axes=(("topology.n_servers", tuple(sizes)),
              ("engine", tuple(levels)),
              ("protocol", tuple(protocols)),
              ("seed", tuple(seeds))),
        # TCP only exists at packet level
        exclude=({"engine": "flow", "protocol": "TCP"},),
        reducer="fig8.per_level",
        reducer_params={"metric": "mean_fct"},
    )


@register_reducer("fig8.rcp_pdq_cdf")
def _reduce_rcp_pdq_cdf(run) -> dict[str, object]:
    """CDF of per-flow RCP FCT / PDQ FCT, pairing each seed's two runs."""
    by_seed: dict[int, dict] = {}
    for combo, _spec, collector in run.rows:
        by_seed.setdefault(combo["seed"], {})[combo["protocol"]] = collector
    ratios: list[float] = []
    for runs in by_seed.values():
        pdq = runs["PDQ(Full)"].fct_by_fid()
        rcp = runs["RCP"].fct_by_fid()
        for fid, pdq_fct in pdq.items():
            rcp_fct = rcp.get(fid)
            if rcp_fct is not None and pdq_fct > 0:
                ratios.append(rcp_fct / pdq_fct)
    if not ratios:
        raise ExperimentError("no comparable flows")
    return {
        "cdf": cdf_points(ratios),
        "fraction_pdq_2x_faster": 1.0 - fraction_at_most(ratios, 2.0),
        "fraction_pdq_slower": fraction_at_most(ratios, 1.0),
        "worst_inflation": 1.0 / min(ratios),
        "paper": {
            "fraction_pdq_2x_faster": "~40%",
            "fraction_pdq_slower": "5-15%",
            "worst_inflation": 2.57,
        },
    }


def fig8e_panel(n_servers: int = 128, flows_per_server: int = 2,
                seeds: Sequence[int] = (1,)) -> Panel:
    """CDF of per-flow RCP FCT / PDQ FCT ratios (flow level)."""
    return Panel(
        name="fig8e",
        title="CDF of per-flow RCP FCT / PDQ FCT (flow level)",
        base=ScenarioSpec(
            protocol="PDQ(Full)",
            topology=_topo_spec("fattree", n_servers),
            workload=WorkloadSpec("fig8.permutation", {
                "flows_per_server": flows_per_server,
            }),
            engine="flow",
            sim_deadline=10.0,
        ),
        axes=(("seed", tuple(seeds)),
              ("protocol", ("PDQ(Full)", "RCP"))),
        reducer="fig8.rcp_pdq_cdf",
    )


register_experiment(Experiment(
    name="fig8",
    title="network scale, topology generality, cross-validation",
    panels=(fig8a_panel(), fct_vs_size_panel("fattree"),
            fct_vs_size_panel("bcube"), fct_vs_size_panel("jellyfish"),
            fig8e_panel()),
))
