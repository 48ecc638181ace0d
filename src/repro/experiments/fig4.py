"""Fig 4: sending patterns on the 12-server tree.

(a) deadline flows: max flows at 99 % application throughput, normalized
    to PDQ(Full)
(b) no deadlines: mean FCT normalized to PDQ(Full)

Patterns: Aggregation, Stride(1), Stride(N/2), Staggered Prob(0.7),
Staggered Prob(0.3), Random Permutation. Both panels are declared
through the Experiment API; ``run_fig4a``/``run_fig4b`` are thin
wrappers kept for their historical signatures.
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
    run_panel,
)
from repro.experiments.reducers import normalize, register_reducer
from repro.topology.single_rooted import SingleRootedTree
from repro.units import KBYTE, MSEC
from repro.utils.rng import spawn_rng
from repro.workload.deadlines import exponential_deadlines
from repro.workload.flow import FlowSpec
from repro.workload.patterns import (
    aggregation_flows,
    random_permutation_flows,
    staggered_flows,
    stride_flows,
)
from repro.workload.sizes import uniform_sizes

PATTERNS = ("Aggregation", "Stride(1)", "Stride(N/2)", "Staggered(0.7)",
            "Staggered(0.3)", "RandomPermutation")
DEFAULT_PROTOCOLS = ("PDQ(Full)", "PDQ(ES)", "PDQ(Basic)", "D3", "RCP", "TCP")
TOPOLOGY = TopologySpec("single_rooted")


def pattern_flows(pattern: str, n_flows: int, seed: int,
                  mean_size: float = 100 * KBYTE,
                  mean_deadline: float | None = None) -> list[FlowSpec]:
    """Build ``n_flows`` flows for a named pattern on the default tree."""
    tree = SingleRootedTree()
    hosts = [f"h{i}" for i in range(tree.n_servers)]
    rng = spawn_rng(seed, f"fig4:{pattern}")
    sizes = uniform_sizes(n_flows, mean_size, rng=rng)
    deadlines = None
    if mean_deadline is not None:
        deadlines = exponential_deadlines(n_flows, mean=mean_deadline, rng=rng)
    if pattern == "Aggregation":
        return aggregation_flows(hosts[1:], hosts[0], sizes,
                                 deadlines=deadlines, rng=rng)
    if pattern == "Stride(1)":
        reps = -(-n_flows // len(hosts))
        pairs = stride_flows(hosts, 1, sizes[: len(hosts)] * reps,
                             deadlines=None)
        specs = pairs[:n_flows]
    elif pattern == "Stride(N/2)":
        reps = -(-n_flows // len(hosts))
        pairs = stride_flows(hosts, len(hosts) // 2,
                             sizes[: len(hosts)] * reps, deadlines=None)
        specs = pairs[:n_flows]
    elif pattern == "Staggered(0.7)":
        specs = staggered_flows(tree, sizes, p_local=0.7, rng=rng)
    elif pattern == "Staggered(0.3)":
        specs = staggered_flows(tree, sizes, p_local=0.3, rng=rng)
    elif pattern == "RandomPermutation":
        rounds = -(-n_flows // len(hosts))
        needed = rounds * len(hosts)
        all_sizes = (sizes * (needed // len(sizes) + 1))[:needed]
        specs = random_permutation_flows(hosts, all_sizes, rng=rng)[:n_flows]
    else:
        raise ExperimentError(f"unknown pattern {pattern!r}")
    # attach sizes/deadlines uniformly for the sliced patterns
    out = []
    for i, spec in enumerate(specs[:n_flows]):
        out.append(spec.with_(
            fid=i, size_bytes=sizes[i],
            deadline=deadlines[i] if deadlines else None,
        ))
    return out


@register_workload("fig4.pattern")
def _build_pattern(topology, seed: int, pattern: str, n_flows: int,
                   mean_size: float = 100 * KBYTE,
                   mean_deadline: float | None = None) -> list[FlowSpec]:
    return pattern_flows(pattern, n_flows, seed, mean_size, mean_deadline)


def _base_spec(pattern: str, n_flows: int,
               mean_deadline: float | None,
               sim_deadline: float) -> ScenarioSpec:
    return ScenarioSpec(
        protocol=DEFAULT_PROTOCOLS[0],
        topology=TOPOLOGY,
        workload=WorkloadSpec("fig4.pattern", {
            "pattern": pattern,
            "n_flows": n_flows,
            "mean_deadline": mean_deadline,
        }),
        engine="packet",
        sim_deadline=sim_deadline,
    )


@register_reducer("fig4.normalized")
def _reduce_normalized(run, metric: str = "mean_fct",
                       reference: str = "PDQ(Full)") -> dict:
    """{pattern: {protocol: value normalized to the reference protocol}};
    grid panels reduce ``metric``, search panels the found maxima."""
    cells = run.cell_values(("workload.pattern", "protocol"), metric)
    results = {}
    for pattern in run.axis_values("workload.pattern"):
        absolute = {
            protocol: cells[(pattern, protocol)]
            for protocol in run.axis_values("protocol")
        }
        results[pattern] = normalize(absolute, reference)
    return results


def fig4a_panel(patterns: Sequence[str] = PATTERNS,
                protocols: Sequence[str] = DEFAULT_PROTOCOLS,
                seeds: Sequence[int] = (1,),
                mean_deadline: float = 20 * MSEC,
                target: float = 0.99,
                hi: int = 32) -> Panel:
    return Panel(
        name="fig4a",
        title="normalized max flows at 99 % application throughput",
        base=_base_spec(patterns[0], 1, mean_deadline, 2.0),
        axes=(("workload.pattern", tuple(patterns)),
              ("protocol", tuple(protocols))),
        search=SearchSpec(axis="workload.n_flows", target=target,
                          metric="application_throughput",
                          seeds=tuple(seeds), hi=hi),
        reducer="fig4.normalized",
        wraps="repro.experiments.fig4:run_fig4a",
    )


def fig4b_panel(patterns: Sequence[str] = PATTERNS,
                protocols: Sequence[str] = DEFAULT_PROTOCOLS,
                seeds: Sequence[int] = (1, 2),
                n_flows: int = 12) -> Panel:
    return Panel(
        name="fig4b",
        title="mean FCT normalized to PDQ(Full), no deadlines",
        base=_base_spec(patterns[0], n_flows, None, 4.0),
        axes=(("workload.pattern", tuple(patterns)),
              ("protocol", tuple(protocols)),
              ("seed", tuple(seeds))),
        reducer="fig4.normalized",
        reducer_params={"metric": "mean_fct"},
        wraps="repro.experiments.fig4:run_fig4b",
    )


def run_fig4a(*args, **kwargs):
    """Normalized max flows at 99 % application throughput."""
    return run_panel(fig4a_panel(*args, **kwargs))


def run_fig4b(*args, **kwargs):
    """Mean FCT normalized to PDQ(Full), deadline-unconstrained."""
    return run_panel(fig4b_panel(*args, **kwargs))


register_experiment(Experiment(
    name="fig4",
    title="sending patterns on the 12-server tree",
    panels=(fig4a_panel(), fig4b_panel()),
))
