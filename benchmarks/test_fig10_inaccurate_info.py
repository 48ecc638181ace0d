"""Fig 10 bench: resilience to inaccurate flow information (flow level)."""

from benchmarks.conftest import report
from repro.experiments.api import run_panel
from repro.experiments.fig10 import SCHEMES, fig10_panel
from repro.experiments.tables import format_table


def test_fig10_inaccurate_flow_information(benchmark, capsys):
    result = benchmark.pedantic(
        lambda: run_panel(fig10_panel(seeds=tuple(range(1, 11)))),
        rounds=1, iterations=1,
    )
    rows = []
    for dist in result:
        for scheme in SCHEMES:
            rows.append([dist, scheme, f"{result[dist][scheme] * 1e3:.2f} ms"])
    report(capsys, format_table(
        ["distribution", "scheme", "mean FCT"], rows,
        title="Fig 10 -- PDQ with perfect / random / estimated flow "
              "information vs RCP",
    ))

    for dist in ("uniform", "pareto"):
        row = result[dist]
        # perfect information is best
        assert row["PDQ perfect"] <= min(row.values()) * 1.001
        # estimation stays competitive with RCP (paper: "compares
        # favorably against RCP in both distributions")
        assert row["PDQ estimation"] <= row["RCP"] * 1.10
    # random criticality hurts most under heavy tails (paper's point (i))
    uniform_penalty = (result["uniform"]["PDQ random"]
                       / result["uniform"]["PDQ perfect"])
    pareto_penalty = (result["pareto"]["PDQ random"]
                      / result["pareto"]["PDQ perfect"])
    assert pareto_penalty > uniform_penalty
