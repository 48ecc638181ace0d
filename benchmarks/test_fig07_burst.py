"""Fig 7 bench: robustness to bursty traffic."""

from benchmarks.conftest import report
from repro.experiments.api import run_panel
from repro.experiments.fig7 import fig7_panel
from repro.experiments.tables import format_table


def test_fig7_burst_preemption(benchmark, capsys):
    result = benchmark.pedantic(lambda: run_panel(fig7_panel()),
                                rounds=1, iterations=1)

    start, end = result["preemption_period"]
    rows = [
        ["short flows completed", "50", result["short_completed"]],
        ["utilization during preemption", "91.7 %",
         f"{result['utilization_during_preemption'] * 100:.1f} %"],
        ["steady queue during preemption", "5-10 packets",
         f"{result['max_queue_packets_steady']} packets"],
        ["peak queue (incl. 50-SYN transient)", "--",
         f"{result['max_queue_packets_during_preemption']} packets"],
        ["preemption period", "10 ms .. ~19 ms",
         f"{start * 1e3:.1f} ms .. {end * 1e3:.1f} ms"],
        ["drops", "0", result["drops"]],
    ]
    report(capsys, format_table(
        ["quantity", "paper", "measured"], rows,
        title="Fig 7 -- 50-short-flow burst preempting a long flow",
    ))

    assert result["short_completed"] == 50
    assert result["utilization_during_preemption"] > 0.85
    assert result["max_queue_packets_steady"] <= 20
    assert result["drops"] == 0
    # the long flow finishes after the burst (it was preempted, not
    # starved): long flow alone needs ~50ms for 6MB, plus the ~10ms burst
    assert 0.045 < result["long_flow_fct"] < 0.09
