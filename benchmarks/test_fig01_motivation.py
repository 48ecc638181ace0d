"""Fig 1 bench: the motivating example's exact numbers."""

import pytest

from benchmarks.conftest import report
from repro.experiments.api import run_panel
from repro.experiments.fig1 import fig1_panel
from repro.experiments.tables import format_table


def test_fig1_motivation(benchmark, capsys):
    result = benchmark.pedantic(lambda: run_panel(fig1_panel()),
                                rounds=1, iterations=1)

    rows = [
        ["fair sharing completions", str(result["paper"]["fair_sharing_completions"]),
         str(result["fair_sharing_completions"])],
        ["fair sharing mean FCT", result["paper"]["fair_sharing_mean"],
         result["fair_sharing_mean"]],
        ["SJF completions", str(result["paper"]["sjf_completions"]),
         str(result["sjf_completions"])],
        ["SJF mean FCT", result["paper"]["sjf_mean"], result["sjf_mean"]],
        ["EDF deadline misses", result["paper"]["edf_deadline_misses"],
         result["edf_deadline_misses"]],
        ["D3 failing arrival orders (of 6)",
         result["paper"]["d3_failing_orders"], result["d3_failing_orders"]],
    ]
    report(capsys, format_table(
        ["quantity", "paper", "measured"], rows,
        title="Fig 1 -- motivating example (fluid models)",
    ))

    assert result["fair_sharing_completions"] == [3.0, 5.0, 6.0]
    assert result["sjf_completions"] == [1.0, 3.0, 6.0]
    assert result["sjf_mean"] == pytest.approx(3.33, abs=0.01)
    assert result["edf_deadline_misses"] == 0
    assert result["d3_failing_orders"] == 5
