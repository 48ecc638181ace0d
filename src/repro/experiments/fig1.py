"""Fig 1: the motivating example.

Three flows (sizes 1/2/3, deadlines 1/4/6) on a unit bottleneck under fair
sharing, SJF/EDF and D3 with every arrival order. Pure fluid arithmetic,
so the panel is a grid of zero scenarios and its ``fig1.motivation``
reducer computes every number.
"""

from __future__ import annotations

import itertools

from repro.experiments.api import (
    Experiment,
    Panel,
    register_experiment,
)
from repro.experiments.reducers import register_reducer
from repro.sched.fluid import (
    d3_fluid_schedule,
    deadline_misses,
    fair_sharing_completions,
    serial_completions,
)

SIZES = [1.0, 2.0, 3.0]
DEADLINES = [1.0, 4.0, 6.0]


@register_reducer("fig1.motivation")
def _reduce_motivation(run) -> dict[str, object]:
    fair = fair_sharing_completions(SIZES)
    sjf = serial_completions(SIZES, [0, 1, 2])
    fair_misses = deadline_misses(dict(enumerate(fair)), DEADLINES)
    edf_misses = deadline_misses(dict(enumerate(sjf)), DEADLINES)

    d3_results: list[dict[str, object]] = []
    failing_orders = 0
    flows = list(zip(SIZES, DEADLINES, strict=True))
    for order in itertools.permutations(range(3)):
        completions = d3_fluid_schedule(flows, order)
        misses = deadline_misses(completions, DEADLINES)
        if misses > 0:
            failing_orders += 1
        d3_results.append({"order": order, "misses": misses})

    return {
        "fair_sharing_completions": fair,
        "fair_sharing_mean": sum(fair) / len(fair),
        "sjf_completions": sjf,
        "sjf_mean": sum(sjf) / len(sjf),
        "fair_sharing_deadline_misses": fair_misses,
        "edf_deadline_misses": edf_misses,
        "d3_orders": d3_results,
        "d3_failing_orders": failing_orders,
        "paper": {
            "fair_sharing_completions": [3.0, 5.0, 6.0],
            "fair_sharing_mean": 4.67,
            "sjf_completions": [1.0, 3.0, 6.0],
            "sjf_mean": 3.33,
            "edf_deadline_misses": 0,
            "d3_failing_orders": 5,
        },
    }


def fig1_panel() -> Panel:
    """Regenerate every number quoted in §2.1."""
    return Panel(
        name="fig1",
        title="the motivating example (fluid arithmetic, no simulation)",
        specs=(),
        reducer="fig1.motivation",
    )


register_experiment(Experiment(
    name="fig1",
    title="the motivating example",
    panels=(fig1_panel(),),
))
