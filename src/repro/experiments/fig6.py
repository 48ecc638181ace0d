"""Fig 6: convergence dynamics (seamless flow switching).

Five ~1 MB flows start together; PDQ should complete them serially in SJF
order, finish around 42 ms (raw 40 ms + ~3 % header overhead + 2-RTT
initialization), keep the bottleneck ~100 % utilized at switchovers, hold
only a few packets of queue, and drop nothing.

The panel is one packet-level scenario whose ``options.probes`` sample
the bottleneck link and per-flow throughput inside the run
(:mod:`repro.obs.probes`); the ``fig6.convergence`` reducer turns those
series, the flow records and the drop counter into the figure's values.
"""

from __future__ import annotations

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
    register_experiment,
)
from repro.experiments.reducers import register_reducer
from repro.obs.probes import probe_series
from repro.units import MBYTE, MSEC
from repro.utils.stats import mean
from repro.workload.flow import FlowSpec


def dynamics_spec(workload: WorkloadSpec, n_senders: int, seed: int,
                  sample_interval: float,
                  sim_deadline: float) -> ScenarioSpec:
    """PDQ(Full) on a single bottleneck, with a probe on the ``sw0 ->
    recv`` link and a per-flow throughput probe (Fig 6 and Fig 7)."""
    return ScenarioSpec(
        protocol="PDQ(Full)",
        topology=TopologySpec("single_bottleneck", {"n_senders": n_senders}),
        workload=workload,
        engine="packet",
        seed=seed,
        sim_deadline=sim_deadline,
        options={"probes": {
            "bottleneck": {"kind": "link", "link": ["sw0", "recv"],
                           "interval": sample_interval},
            "rates": {"kind": "flow_rates", "interval": sample_interval},
        }},
    )


def dynamics_probes(collector) -> tuple[dict, dict]:
    """The ``bottleneck`` and ``rates`` probes :func:`dynamics_spec`
    declares, as the run materialized them."""
    missing = {"bottleneck", "rates"} - set(collector.probes)
    if missing:
        raise ExperimentError(
            f"the scenario declares no {sorted(missing)} probe(s); "
            "see dynamics_spec()")
    return collector.probes["bottleneck"], collector.probes["rates"]


@register_workload("fig6.convergence")
def _build_workload(topology, seed: int, n_flows: int = 5,
                    flow_size: int = 1 * MBYTE) -> list[FlowSpec]:
    return [
        # slight size perturbation: lower fid = slightly smaller = more
        # critical (paper's setup)
        FlowSpec(fid=i, src=f"send{i}", dst="recv",
                 size_bytes=flow_size + i * 1_000)
        for i in range(n_flows)
    ]


@register_reducer("fig6.convergence")
def _reduce_convergence(run) -> dict[str, object]:
    _spec, collector = run.single_cell()
    link, rates_probe = dynamics_probes(collector)
    fids = sorted(collector.records)
    # the probe's first sample has no earlier one to difference against
    # in the figure's series, so the series starts one interval later
    throughput_series = [
        (t, [rates.get(str(fid), 0.0) for fid in fids])
        for t, rates in probe_series(rates_probe, "rates_bps")[1:]
    ]
    completions = sorted(
        r.fct for r in collector.all_records() if r.completed
    )
    last = completions[-1] if completions else 0.0
    busy = probe_series(link, "utilization", 2 * MSEC,
                        max(last - 2e-3, 1e-3))
    queue = probe_series(link, "queue_packets")
    return {
        "completions": completions,
        "total_time": last,
        "mean_utilization": mean(u for _, u in busy) if busy else 0.0,
        "max_queue_packets": max((q for _, q in queue), default=0),
        # the fluid engine has no queues to drop from
        "drops": collector.stats.get("net.packets_dropped", 0),
        "throughput_series": throughput_series,
        "utilization_series": probe_series(link, "utilization"),
        "queue_series": queue,
        "paper": {
            "total_time": 42 * MSEC,
            "utilization": "~100%",
            "queue": "a few packets",
            "drops": 0,
        },
    }


def fig6_panel(n_flows: int = 5, flow_size: int = 1 * MBYTE,
               sample_interval: float = 1 * MSEC,
               sim_deadline: float = 0.2) -> Panel:
    """Per-flow throughput series, utilization/queue series and the
    headline summary values."""
    return Panel(
        name="fig6",
        title="convergence dynamics: seamless flow switching",
        base=dynamics_spec(
            WorkloadSpec("fig6.convergence",
                         {"n_flows": n_flows, "flow_size": flow_size}),
            n_senders=n_flows, seed=1, sample_interval=sample_interval,
            sim_deadline=sim_deadline,
        ),
        reducer="fig6.convergence",
    )


register_experiment(Experiment(
    name="fig6",
    title="convergence dynamics (seamless flow switching)",
    panels=(fig6_panel(),),
))
