"""Fig 10: resilience to inaccurate flow information (flow level).

Query aggregation, 10 deadline-unconstrained flows, mean size 100 KB,
uniform and Pareto(1.1) size distributions. Schemes:

* PDQ with perfect flow information (the default comparator),
* PDQ with Random criticality (chosen at flow start, kept consistent),
* PDQ with Flow Size Estimation (criticality = bytes sent, updated every
  50 KB),
* RCP as the fair-sharing reference.

The scheme axis is a *labeled* grid axis (each label bundles a protocol
with its engine options), reduced by the generic ``series`` reducer.
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
from repro.units import KBYTE
from repro.utils.rng import spawn_rng
from repro.workload.flow import FlowSpec
from repro.workload.patterns import aggregation_flows
from repro.workload.sizes import pareto_sizes, uniform_sizes

SCHEMES = ("PDQ perfect", "PDQ random", "PDQ estimation", "RCP")
N_SENDERS = 10
TOPOLOGY = TopologySpec("single_bottleneck", {"n_senders": N_SENDERS})

#: scheme name -> spec-axis assignments (protocol + engine options)
_SCHEME_AXES = {
    "PDQ perfect": {"protocol": "PDQ(Full)"},
    "PDQ random": {"protocol": "PDQ(Full)",
                   "options.criticality_mode": "random"},
    "PDQ estimation": {"protocol": "PDQ(Full)",
                       "options.criticality_mode": "estimate"},
    "RCP": {"protocol": "RCP"},
}


def _workload(dist: str, n_flows: int, seed: int,
              mean_size: float) -> list[FlowSpec]:
    rng = spawn_rng(seed, f"fig10:{dist}")
    if dist == "uniform":
        sizes = uniform_sizes(n_flows, mean_size, rng=rng)
    elif dist == "pareto":
        sizes = pareto_sizes(n_flows, mean_size, rng=rng, tail_index=1.1)
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    senders = [f"send{i}" for i in range(N_SENDERS)]
    return aggregation_flows(senders, "recv", sizes, rng=rng)


@register_workload("fig10.aggregation")
def _build_workload(topology, seed: int, dist: str, n_flows: int,
                    mean_size: float) -> list[FlowSpec]:
    return _workload(dist, n_flows, seed, mean_size)


def _scheme_axis(schemes: Sequence[str]) -> tuple:
    cells = []
    for scheme in schemes:
        try:
            cells.append((scheme, _SCHEME_AXES[scheme]))
        except KeyError:
            raise ValueError(f"unknown scheme {scheme!r}") from None
    return tuple(cells)


def fig10_panel(distributions: Sequence[str] = ("uniform", "pareto"),
                schemes: Sequence[str] = SCHEMES,
                seeds: Sequence[int] = tuple(range(1, 9)),
                n_flows: int = 10,
                mean_size: float = 100 * KBYTE) -> Panel:
    """Mean FCT (seconds) per scheme per size distribution."""
    return Panel(
        name="fig10",
        title="mean FCT per scheme under inaccurate flow information",
        base=ScenarioSpec(
            protocol="PDQ(Full)",
            topology=TOPOLOGY,
            workload=WorkloadSpec("fig10.aggregation", {
                "dist": distributions[0],
                "n_flows": n_flows,
                "mean_size": mean_size,
            }),
            engine="flow",
        ),
        axes=(("workload.dist", tuple(distributions)),
              ("scheme", _scheme_axis(schemes)),
              ("seed", tuple(seeds))),
        reducer="series",
        reducer_params={"series": "workload.dist", "x": "scheme",
                        "metric": "mean_fct"},
    )


register_experiment(Experiment(
    name="fig10",
    title="resilience to inaccurate flow information",
    panels=(fig10_panel(),),
))
