"""Fig 9: resilience to packet loss.

Random wire loss at the bottleneck link, both directions, 0-3 %.

(a) deadline flows: max flows at 99 % application throughput vs loss rate
(b) no deadlines: mean FCT (normalized to PDQ without loss) vs loss rate

PDQ's explicit rate control should degrade mildly (paper: +11.4 % FCT at
3 % loss) while TCP suffers (+44.7 %).

Both panels are declarative: each loss rate is a labelled axis cell
carrying one exact-name ``faults.loss`` rule on the ``sw0``--``recv``
link. The rule names no seed, so it draws from the scenario seed and
every seed replica sees its own loss pattern.
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
from repro.experiments.reducers import register_reducer, series_reducer
from repro.units import KBYTE, MSEC
from repro.utils.rng import spawn_rng
from repro.workload.deadlines import exponential_deadlines
from repro.workload.flow import FlowSpec
from repro.workload.patterns import aggregation_flows
from repro.workload.sizes import uniform_sizes

N_SENDERS = 12
TOPOLOGY = TopologySpec("single_bottleneck", {"n_senders": N_SENDERS})


def _workload(n_flows: int, seed: int, deadline_constrained: bool,
              mean_size: float = 100 * KBYTE,
              mean_deadline: float = 20 * MSEC) -> list[FlowSpec]:
    topo_senders = [f"send{i}" for i in range(N_SENDERS)]
    rng = spawn_rng(seed, "fig9")
    sizes = uniform_sizes(n_flows, mean_size, rng=rng)
    deadlines = None
    if deadline_constrained:
        deadlines = exponential_deadlines(n_flows, mean=mean_deadline, rng=rng)
    return aggregation_flows(topo_senders, "recv", sizes,
                             deadlines=deadlines, rng=rng)


@register_workload("fig9.aggregation")
def _build_workload(topology, seed: int, n_flows: int,
                    deadline_constrained: bool,
                    mean_size: float = 100 * KBYTE,
                    mean_deadline: float = 20 * MSEC) -> list[FlowSpec]:
    return _workload(n_flows, seed, deadline_constrained, mean_size,
                     mean_deadline)


def _base(n_flows: int, deadline_constrained: bool) -> ScenarioSpec:
    return ScenarioSpec(
        protocol="PDQ(Full)",
        topology=TOPOLOGY,
        workload=WorkloadSpec("fig9.aggregation", {
            "n_flows": n_flows,
            "deadline_constrained": deadline_constrained,
        }),
        engine="packet",
        sim_deadline=4.0,
    )


def _loss_axis(loss_rates: Sequence[float]) -> tuple:
    """``loss_rate`` cells: an unseeded bottleneck-link rule per nonzero
    rate, no faults at all for a lossless cell."""
    return tuple(
        (rate, {"faults": {"loss": [
            {"src": "sw0", "dst": "recv", "rate": rate},
        ]}} if rate > 0 else {})
        for rate in loss_rates
    )


@register_reducer("fig9.fct_vs_loss")
def _reduce_fct_vs_loss(run) -> dict:
    """{protocol: {loss rate: mean FCT / PDQ(Full)'s lossless mean FCT}}."""
    raw = series_reducer(run, x="loss_rate", series="protocol",
                         metric="mean_fct")
    base = raw.get("PDQ(Full)", {}).get(0.0)
    if base is None:
        raise ExperimentError(
            "fig9b normalizes to PDQ(Full) at loss 0.0; the grid lacks it"
        )
    return {
        p: {loss: v / base for loss, v in series.items()}
        for p, series in raw.items()
    }


def fig9a_panel(loss_rates: Sequence[float] = (0.0, 0.01, 0.03),
                protocols: Sequence[str] = ("PDQ(Full)", "TCP"),
                seeds: Sequence[int] = (1, 2),
                target: float = 0.99,
                hi: int = 32) -> Panel:
    """Max deadline flows at 99 % application throughput vs loss rate."""
    return Panel(
        name="fig9a",
        title="max deadline flows at 99 % throughput vs loss rate",
        base=_base(1, True),
        axes=(("loss_rate", _loss_axis(loss_rates)),
              ("protocol", tuple(protocols))),
        search=SearchSpec(axis="workload.n_flows", target=target,
                          metric="application_throughput",
                          seeds=tuple(seeds), hi=hi),
        reducer="series",
        reducer_params={"x": "loss_rate", "series": "protocol"},
    )


def fig9b_panel(loss_rates: Sequence[float] = (0.0, 0.01, 0.03),
                protocols: Sequence[str] = ("PDQ(Full)", "TCP"),
                seeds: Sequence[int] = (1, 2),
                n_flows: int = 8) -> Panel:
    """Mean FCT normalized to PDQ(Full) at zero loss."""
    return Panel(
        name="fig9b",
        title="mean FCT normalized to lossless PDQ vs loss rate",
        base=_base(n_flows, False),
        axes=(("loss_rate", _loss_axis(loss_rates)),
              ("protocol", tuple(protocols)),
              ("seed", tuple(seeds))),
        reducer="fig9.fct_vs_loss",
    )


register_experiment(Experiment(
    name="fig9",
    title="resilience to packet loss",
    panels=(fig9a_panel(), fig9b_panel()),
))
