"""Fig 6 bench: convergence dynamics (seamless flow switching)."""

import pytest

from benchmarks.conftest import report
from repro.experiments.api import run_panel
from repro.experiments.fig6 import fig6_panel
from repro.experiments.tables import format_table


def test_fig6_seamless_switching(benchmark, capsys):
    result = benchmark.pedantic(lambda: run_panel(fig6_panel()),
                                rounds=1, iterations=1)

    rows = [
        ["total completion time", "~42 ms",
         f"{result['total_time'] * 1e3:.2f} ms"],
        ["bottleneck utilization", "~100 %",
         f"{result['mean_utilization'] * 100:.1f} %"],
        ["max queue", "a few packets",
         f"{result['max_queue_packets']} packets"],
        ["packet drops", "0", str(result["drops"])],
        ["completions (ms)", "~[8.4, 16.8, 25.2, 33.6, 42]",
         str([round(c * 1e3, 1) for c in result["completions"]])],
    ]
    report(capsys, format_table(
        ["quantity", "paper", "measured"], rows,
        title="Fig 6 -- five 1MB flows, serial SJF schedule",
    ))

    assert len(result["completions"]) == 5
    assert result["total_time"] == pytest.approx(42e-3, rel=0.05)
    assert result["mean_utilization"] > 0.95
    assert result["max_queue_packets"] < 40
    assert result["drops"] == 0
    gaps = [b - a for a, b in zip(result["completions"],
                                  result["completions"][1:], strict=False)]
    for gap in gaps:  # serial switching, one flow at a time
        assert 7e-3 < gap < 10e-3
