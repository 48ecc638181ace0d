"""Fig 7: robustness to bursty traffic.

A long-lived flow starts at t=0; 50 short (20 KB) flows all start at
t=10 ms. PDQ should preempt the long flow, serve the burst with high
utilization (paper: 91.7 % average during the preemption period), keep the
queue around 5-10 packets, and resume the long flow afterwards.

Like fig 6, the panel is one packet-level scenario with the bottleneck
link and per-flow throughput probes attached; the ``fig7.burst``
reducer reads the preemption period off the short flows' records.
"""

from __future__ import annotations

from repro.campaign import WorkloadSpec, register_workload
from repro.experiments.api import (
    Experiment,
    Panel,
    register_experiment,
    run_panel,
)
from repro.experiments.fig6 import dynamics_probes, dynamics_spec
from repro.experiments.reducers import register_reducer
from repro.obs.probes import probe_series
from repro.units import KBYTE, MBYTE, MSEC
from repro.utils.rng import spawn_rng
from repro.utils.stats import mean
from repro.workload.flow import FlowSpec

BURST_AT = 10 * MSEC


@register_workload("fig7.burst")
def _build_workload(topology, seed: int, n_short: int = 50,
                    short_size: int = 20 * KBYTE, long_size: int = 6 * MBYTE,
                    burst_at: float = BURST_AT) -> list[FlowSpec]:
    rng = spawn_rng(seed, "fig7")
    flows = [FlowSpec(fid=0, src="send0", dst="recv", size_bytes=long_size)]
    for i in range(n_short):
        # small random perturbation, as in the paper
        size = short_size + int(rng.integers(0, 512))
        flows.append(FlowSpec(fid=i + 1, src=f"send{i + 1}", dst="recv",
                              size_bytes=size, arrival=burst_at))
    return flows


@register_reducer("fig7.burst")
def _reduce_burst(run) -> dict[str, object]:
    spec, collector = run.single_cell()
    link, rates_probe = dynamics_probes(collector)
    burst_at = spec.workload.params.get("burst_at", BURST_AT)
    short_records = [r for fid, r in sorted(collector.records.items())
                     if fid != 0]
    short_completions = sorted(
        r.completion_time for r in short_records if r.completed
    )
    preemption_end = short_completions[-1] if short_completions else burst_at

    def max_queue(start: float) -> int:
        return max((q for _, q in probe_series(link, "queue_packets", start,
                                               preemption_end)), default=0)

    busy = probe_series(link, "utilization", burst_at, preemption_end)
    return {
        "long_flow_fct": collector.record(0).fct,
        "short_completed": sum(1 for r in short_records if r.completed),
        "preemption_period": (burst_at, preemption_end),
        "utilization_during_preemption": (
            mean(u for _, u in busy) if busy else 0.0),
        "max_queue_packets_during_preemption": max_queue(burst_at),
        # the 50-SYN arrival instant itself causes a brief admission
        # transient; the steady preemption-period queue is the paper's
        # 5-10 packet figure
        "max_queue_packets_steady": max_queue(burst_at + 2e-3),
        "drops": collector.stats.get("net.packets_dropped", 0),
        # as in fig 6, the series starts at the probe's second sample
        "long_throughput_series": [
            (t, rates.get("0", 0.0))
            for t, rates in probe_series(rates_probe, "rates_bps")[1:]
        ],
        "utilization_series": probe_series(link, "utilization"),
        "queue_series": probe_series(link, "queue_packets"),
        "paper": {
            "utilization_during_preemption": 0.917,
            "queue_packets": "5-10",
        },
    }


def fig7_panel(n_short: int = 50, short_size: int = 20 * KBYTE,
               long_size: int = 6 * MBYTE, burst_at: float = BURST_AT,
               sample_interval: float = 1 * MSEC, sim_deadline: float = 0.3,
               seed: int = 1) -> Panel:
    return Panel(
        name="fig7",
        title="robustness to bursty traffic",
        base=dynamics_spec(
            WorkloadSpec("fig7.burst", {
                "n_short": n_short, "short_size": short_size,
                "long_size": long_size, "burst_at": burst_at,
            }),
            n_senders=n_short + 1, seed=seed,
            sample_interval=sample_interval, sim_deadline=sim_deadline,
        ),
        reducer="fig7.burst",
        wraps="repro.experiments.fig7:run_fig7",
    )


def run_fig7(*args, **params) -> dict[str, object]:
    return run_panel(fig7_panel(*args, **params))


register_experiment(Experiment(
    name="fig7",
    title="robustness to bursty traffic",
    panels=(fig7_panel(),),
))
