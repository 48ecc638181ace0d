"""Fig 1 bench: the motivating example on the fluid engine."""

from benchmarks.conftest import report
from repro.experiments.api import run_panel
from repro.experiments.fig1 import fig1_panel
from repro.experiments.tables import format_table


def test_fig1_motivation(capsys):
    result = run_panel(fig1_panel())
    paper = result["paper"]
    completions = result["completions"]
    misses = result["deadline_misses"]

    def units(values):
        return str([round(v, 3) for v in values])

    rows = []
    for protocol, scheme in (("RCP", "fair sharing"),
                             ("PDQ(Full)", "SJF/EDF")):
        rows.append([f"{scheme} ({protocol}) completions",
                     str(paper[protocol]["completions"]),
                     units(completions[protocol]["ABC"])])
        rows.append([f"{scheme} ({protocol}) deadline misses",
                     paper[protocol]["deadline_misses"],
                     max(misses[protocol].values())])
    rows.append(["D3 failing arrival orders (of 6)",
                 paper["D3"]["failing_orders"],
                 len(result["d3_failing_orders"])])
    report(capsys, format_table(
        ["quantity", "paper", "measured"], rows,
        title="Fig 1 -- motivating example (fluid engine, units of 8 ms)",
    ))

    assert set(misses["RCP"].values()) == {2}
    assert set(misses["PDQ(Full)"].values()) == {0}
    assert len(result["d3_failing_orders"]) == 5
