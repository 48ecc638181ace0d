"""Fig 12: flow aging prevents starvation (flow level).

Fat-tree, deadline-unconstrained flows under a sustained high-load Poisson
stream of random-pair flows: fresh short flows keep preempting the large
ones, so without aging the largest flows starve (SRPT's known tail
behaviour). The PDQ sender inflates criticality by reducing T_H by
2^(alpha * t) with t the flow's waiting time; sweeping alpha should cut the
worst-case FCT substantially (paper: ~48 % at the knee) while leaving the
mean nearly untouched (paper: +1.7 %). RCP's max/mean are the fairness
reference.

The paper measures t in units of 100 ms against ~100 ms worst-case FCTs;
reduced-scale runs have ~10x smaller FCTs, so ``aging_time_unit`` defaults
to 10 ms to preserve the dimensionless shape.

The RCP reference and the PDQ aging sweep are one *labeled* axis — a
non-cartesian grid (RCP takes no aging options) the Experiment API
expresses directly.
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
    register_experiment,
)
from repro.experiments.reducers import register_reducer
from repro.units import GBPS, KBYTE
from repro.utils.rng import spawn_rng
from repro.utils.stats import mean
from repro.workload.arrivals import poisson_arrivals
from repro.workload.flow import FlowSpec
from repro.workload.sizes import uniform_sizes


def _poisson_pair_flows(hosts, duration: float, load: float, seed: int,
                        mean_size: float) -> list[FlowSpec]:
    rng = spawn_rng(seed, "fig12")
    per_host_rate = load * (1 * GBPS) / (mean_size * 8.0)
    arrivals = poisson_arrivals(per_host_rate * len(hosts), duration, rng=rng)
    sizes = uniform_sizes(len(arrivals), mean_size, rng=rng)
    flows = []
    for i, (t, size) in enumerate(zip(arrivals, sizes, strict=True)):
        src_i = int(rng.integers(len(hosts)))
        dst_i = int(rng.integers(len(hosts) - 1))
        if dst_i >= src_i:
            dst_i += 1
        flows.append(FlowSpec(fid=i, src=hosts[src_i], dst=hosts[dst_i],
                              size_bytes=size, arrival=t))
    return flows


@register_workload("fig12.poisson_pairs")
def _build_workload(topology, seed: int, duration: float,
                    load: float, mean_size: float) -> list[FlowSpec]:
    return _poisson_pair_flows(topology.hosts, duration, load, seed,
                               mean_size)


@register_reducer("fig12.aging_table")
def _reduce_aging(run) -> dict:
    """Max/mean FCT per aging rate plus the flat RCP reference rows."""
    aging_rates = [v for v in run.axis_values("variant") if v != "RCP"]
    by_variant: dict[object, list] = {}
    for combo, _spec, metrics in run.rows:
        by_variant.setdefault(combo["variant"], []).append(metrics)
    rcp_max = mean(m.max_fct() for m in by_variant["RCP"])
    rcp_mean = mean(m.mean_fct() for m in by_variant["RCP"])
    results: dict[str, dict[float, float]] = {
        "PDQ max": {}, "PDQ mean": {}, "RCP max": {}, "RCP mean": {},
    }
    for alpha in aging_rates:
        runs = by_variant[alpha]
        results["PDQ max"][alpha] = mean(m.max_fct() for m in runs)
        results["PDQ mean"][alpha] = mean(m.mean_fct() for m in runs)
        results["RCP max"][alpha] = rcp_max
        results["RCP mean"][alpha] = rcp_mean
    return results


def fig12_panel(aging_rates: Sequence[float] = (0.0, 2.0, 6.0, 10.0),
                seeds: Sequence[int] = (1, 2),
                n_servers: int = 16,
                duration: float = 0.04,
                load: float = 0.85,
                mean_size: float = 100 * KBYTE,
                aging_time_unit: float = 0.01) -> Panel:
    """Max and mean FCT (seconds) vs aging rate, plus RCP references."""
    variant_axis = (("RCP", {"protocol": "RCP"}),) + tuple(
        (alpha, {"protocol": "PDQ(Full)",
                 "options.aging_rate": alpha,
                 "options.aging_time_unit": aging_time_unit})
        for alpha in aging_rates
    )
    return Panel(
        name="fig12",
        title="flow aging prevents starvation",
        base=ScenarioSpec(
            protocol="RCP",
            topology=TopologySpec("fattree", {"n_servers": n_servers}),
            workload=WorkloadSpec("fig12.poisson_pairs", {
                "duration": duration,
                "load": load,
                "mean_size": mean_size,
            }),
            engine="flow",
            sim_deadline=20.0,
        ),
        axes=(("variant", variant_axis), ("seed", tuple(seeds))),
        reducer="fig12.aging_table",
    )


register_experiment(Experiment(
    name="fig12",
    title="flow aging prevents starvation",
    panels=(fig12_panel(),),
))
