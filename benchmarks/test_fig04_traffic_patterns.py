"""Fig 4 bench: traffic patterns (reduced scale).

Paper: six patterns x seven protocols with many seeds; here a protocol
subset and one seed per search probe. Shape target: PDQ(Full) is best (or
tied) on every pattern, for both the deadline metric and mean FCT.
"""

from benchmarks.conftest import report
from repro.experiments.api import run_panel
from repro.experiments.fig4 import PATTERNS, fig4a_panel, fig4b_panel
from repro.experiments.tables import format_table

PROTOCOLS_A = ("PDQ(Full)", "D3", "RCP")
PROTOCOLS_B = ("PDQ(Full)", "PDQ(Basic)", "RCP", "TCP")


def test_fig4a_flows_at_99pct_by_pattern(capsys):
    patterns = ("Aggregation", "Staggered(0.7)", "RandomPermutation")
    result = run_panel(fig4a_panel(patterns=patterns,
                                   protocols=PROTOCOLS_A, seeds=(1,),
                                   hi=24))
    rows = [
        [pattern] + [result[pattern][p] for p in PROTOCOLS_A]
        for pattern in patterns
    ]
    report(capsys, format_table(
        ["pattern"] + list(PROTOCOLS_A), rows,
        title="Fig 4a -- max flows at 99% app throughput, normalized to "
              "PDQ(Full)",
    ))
    for pattern in patterns:
        assert result[pattern]["PDQ(Full)"] == 1.0
        assert result[pattern]["D3"] <= 1.0
        assert result[pattern]["RCP"] <= 1.0


def test_fig4b_fct_by_pattern(capsys):
    result = run_panel(fig4b_panel(patterns=PATTERNS,
                                   protocols=PROTOCOLS_B, seeds=(1,),
                                   n_flows=12))
    rows = [
        [pattern] + [result[pattern][p] for p in PROTOCOLS_B]
        for pattern in PATTERNS
    ]
    report(capsys, format_table(
        ["pattern"] + list(PROTOCOLS_B), rows,
        title="Fig 4b -- mean FCT normalized to PDQ(Full), no deadlines",
    ))
    # PDQ(Full) is best or within 8% of the best protocol on every
    # pattern, and clearly best where contention is real (Aggregation)
    for pattern in PATTERNS:
        best = min(result[pattern].values())
        assert best >= 1.0 / 1.08, (pattern, result[pattern])
    # paper: ~30% mean-FCT savings vs fair sharing on aggregation-style
    # workloads
    assert result["Aggregation"]["RCP"] >= 1.2
    assert result["Aggregation"]["TCP"] >= 1.1
