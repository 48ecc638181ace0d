"""Fig 5: realistic datacenter workloads.

(a) VL2-like workload: sustainable short-flow arrival rate at 99 %
    application throughput vs mean deadline
(b) VL2-like workload: long-flow FCT normalized to PDQ(Full)
(c) EDU1-like workload (synthetic trace -> Bro-like summaries): FCT
    normalized to PDQ(Full)

All three panels are declared through the Experiment API:
``run_panel(fig5a_panel(...))`` runs one.
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
from repro.experiments.reducers import normalize, register_reducer
from repro.topology.single_rooted import SingleRootedTree
from repro.units import KBYTE, MSEC
from repro.utils.rng import spawn_rng
from repro.utils.stats import mean
from repro.workload.arrivals import poisson_arrivals
from repro.workload.deadlines import exponential_deadlines
from repro.workload.edu import edu1_flow_summaries
from repro.workload.flow import FlowSpec
from repro.workload.vl2 import SHORT_FLOW_CUTOFF, vl2_flow_sizes

DEFAULT_PROTOCOLS = ("PDQ(Full)", "PDQ(ES)", "PDQ(Basic)", "D3", "RCP", "TCP")
TOPOLOGY = TopologySpec("single_rooted")


def vl2_workload(rate_per_sec: float, duration: float, seed: int,
                 mean_deadline: float = 20 * MSEC,
                 size_scale: float = 1.0,
                 cap_bytes: int = 1_000_000) -> list[FlowSpec]:
    """Poisson flow arrivals with VL2-like sizes between random host pairs;
    short flows (< 40 KB) carry deadlines. ``cap_bytes`` truncates the
    elephant tail so packet-level runs stay tractable (the deadline metric
    only concerns the short flows; elephants are background load)."""
    tree = SingleRootedTree()
    hosts = [f"h{i}" for i in range(tree.n_servers)]
    rng = spawn_rng(seed, "fig5:vl2")
    arrivals = poisson_arrivals(rate_per_sec, duration, rng=rng)
    sizes = vl2_flow_sizes(len(arrivals), rng=rng, scale=size_scale,
                           cap_bytes=cap_bytes)
    deadlines = exponential_deadlines(len(arrivals), mean=mean_deadline,
                                      rng=rng)
    flows = []
    for i, (t, size) in enumerate(zip(arrivals, sizes, strict=True)):
        src_i = int(rng.integers(len(hosts)))
        dst_i = int(rng.integers(len(hosts) - 1))
        if dst_i >= src_i:
            dst_i += 1
        deadline = (deadlines[i]
                    if size < SHORT_FLOW_CUTOFF * size_scale else None)
        flows.append(FlowSpec(fid=i, src=hosts[src_i], dst=hosts[dst_i],
                              size_bytes=size, arrival=t, deadline=deadline))
    return flows


@register_workload("fig5.vl2")
def _build_vl2(topology, seed: int, rate_per_sec: float, duration: float,
               mean_deadline: float = 20 * MSEC, size_scale: float = 1.0,
               cap_bytes: int = 1_000_000) -> list[FlowSpec]:
    return vl2_workload(rate_per_sec, duration, seed, mean_deadline,
                        size_scale, cap_bytes)


@register_workload("fig5.edu1")
def _build_edu1(topology, seed: int, duration: float,
                flows_per_second: float) -> list[FlowSpec]:
    hosts = [f"h{i}" for i in range(topology.n_servers)]
    return edu1_flow_summaries(hosts, duration, flows_per_second, rng=seed)


def _vl2_base(rate_per_sec: float, duration: float, mean_deadline: float,
              sim_deadline: float) -> ScenarioSpec:
    return ScenarioSpec(
        protocol=DEFAULT_PROTOCOLS[0],
        topology=TOPOLOGY,
        workload=WorkloadSpec("fig5.vl2", {
            "rate_per_sec": rate_per_sec,
            "duration": duration,
            "mean_deadline": mean_deadline,
        }),
        engine="packet",
        sim_deadline=sim_deadline,
    )


@register_reducer("fig5.long_fct")
def _reduce_long_fct(run, long_cutoff: int = 100 * KBYTE,
                     reference: str = "PDQ(Full)") -> dict:
    """Long-flow mean FCT per protocol, normalized to the reference.

    The collector carries each FlowSpec, so the long-flow subset needs
    no driver-side workload rebuild."""
    by_protocol = {}
    for combo, _spec, metrics in run.rows:
        long_fids = [
            r.spec.fid for r in metrics.all_records()
            if r.spec.size_bytes >= long_cutoff
        ]
        by_protocol.setdefault(combo["protocol"], []).append(
            metrics.mean_fct(only=long_fids)
        )
    absolute = {p: mean(values) for p, values in by_protocol.items()}
    return normalize(absolute, reference)


def fig5a_panel(mean_deadlines: Sequence[float] = (20 * MSEC, 40 * MSEC),
                protocols: Sequence[str] = ("PDQ(Full)", "D3", "RCP", "TCP"),
                seeds: Sequence[int] = (1,),
                duration: float = 0.04,
                rate_step: float = 1000.0,
                hi_steps: int = 10,
                target: float = 0.99) -> Panel:
    """Sustainable arrival rate (flows/sec) at 99 % application
    throughput of the deadline-constrained short flows."""
    # the search is capped at hi_steps * rate_step (grow=False): the
    # offered load already far exceeds the fabric there. A probe whose
    # workload draws no deadline flow passes trivially
    # (require_deadlines), keeping the no-deadline early exit
    # driver-side where building the workload is cheap.
    return Panel(
        name="fig5a",
        title="sustainable arrival rate at 99 % application throughput",
        base=_vl2_base(rate_step, duration, mean_deadlines[0],
                       duration + 1.0),
        axes=(("workload.mean_deadline", tuple(mean_deadlines)),
              ("protocol", tuple(protocols))),
        search=SearchSpec(axis="workload.rate_per_sec", target=target,
                          metric="application_throughput",
                          seeds=tuple(seeds), hi=hi_steps, grow=False,
                          scale=rate_step, require_deadlines=True),
        reducer="series",
        reducer_params={"series": "protocol",
                        "x": "workload.mean_deadline"},
    )


def fig5b_panel(protocols: Sequence[str] = DEFAULT_PROTOCOLS,
                seeds: Sequence[int] = (1, 2),
                rate_per_sec: float = 2000.0,
                duration: float = 0.03,
                long_cutoff: int = 100 * KBYTE) -> Panel:
    """Long-flow mean FCT normalized to PDQ(Full) under the VL2 mix."""
    return Panel(
        name="fig5b",
        title="long-flow FCT normalized to PDQ(Full) under the VL2 mix",
        base=_vl2_base(rate_per_sec, duration, 20 * MSEC, duration + 2.0),
        axes=(("protocol", tuple(protocols)), ("seed", tuple(seeds))),
        reducer="fig5.long_fct",
        reducer_params={"long_cutoff": long_cutoff},
    )


def fig5c_panel(protocols: Sequence[str] = DEFAULT_PROTOCOLS,
                seeds: Sequence[int] = (1, 2),
                duration: float = 0.05,
                flows_per_second: float = 2000.0) -> Panel:
    """EDU1-like trace-driven workload: mean FCT normalized to PDQ(Full)."""
    return Panel(
        name="fig5c",
        title="EDU1-like trace workload: FCT normalized to PDQ(Full)",
        base=ScenarioSpec(
            protocol=DEFAULT_PROTOCOLS[0],
            topology=TOPOLOGY,
            workload=WorkloadSpec("fig5.edu1", {
                "duration": duration,
                "flows_per_second": flows_per_second,
            }),
            engine="packet",
            sim_deadline=duration + 2.0,
        ),
        axes=(("protocol", tuple(protocols)), ("seed", tuple(seeds))),
        reducer="series",
        reducer_params={"x": "protocol", "metric": "mean_fct",
                        "normalize_to": "PDQ(Full)"},
    )


register_experiment(Experiment(
    name="fig5",
    title="realistic datacenter workloads (VL2 mix, EDU1 trace)",
    panels=(fig5a_panel(), fig5b_panel(), fig5c_panel()),
))
