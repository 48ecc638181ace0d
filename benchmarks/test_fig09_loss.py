"""Fig 9 bench: resilience to packet loss.

Shape targets: PDQ sustains its deadline capacity and its FCT grows mildly
under 3 % bidirectional loss (paper: +11.4 %), while TCP degrades much
more (paper: +44.7 %).
"""

from benchmarks.conftest import report
from repro.experiments.api import run_panel
from repro.experiments.fig9 import fig9a_panel, fig9b_panel
from repro.experiments.tables import format_table

LOSSES = (0.0, 0.01, 0.03)


def test_fig9a_deadline_capacity_under_loss(capsys):
    result = run_panel(fig9a_panel(loss_rates=LOSSES, seeds=(1,), hi=24))
    rows = [
        [p] + [result[p][l] for l in LOSSES] for p in result
    ]
    report(capsys, format_table(
        ["protocol"] + [f"loss={l:.0%}" for l in LOSSES], rows,
        title="Fig 9a -- max deadline flows at 99% app throughput vs loss",
    ))
    for loss in LOSSES:
        assert result["PDQ(Full)"][loss] >= result["TCP"][loss]
    # PDQ keeps most of its capacity at 3% loss
    assert result["PDQ(Full)"][0.03] >= 0.5 * max(1, result["PDQ(Full)"][0.0])


def test_fig9b_fct_under_loss(capsys):
    result = run_panel(fig9b_panel(loss_rates=LOSSES, seeds=(1, 2),
                                   n_flows=8))
    rows = [[p] + [result[p][l] for l in LOSSES] for p in result]
    report(capsys, format_table(
        ["protocol"] + [f"loss={l:.0%}" for l in LOSSES], rows,
        title="Fig 9b -- mean FCT normalized to lossless PDQ "
              "(paper at 3%: PDQ 1.11, TCP ~1.45 over its own baseline)",
    ))
    pdq_inflation = result["PDQ(Full)"][0.03] / result["PDQ(Full)"][0.0]
    assert pdq_inflation < 1.5  # paper: +11%; generous slack for our RTOs
    # PDQ's absolute FCT stays below TCP's at every loss rate (our TCP --
    # NewReno, 2 ms RTOmin, 4 MB buffers -- is more loss-tolerant than the
    # paper's in relative terms)
    for loss in LOSSES:
        assert result["PDQ(Full)"][loss] < result["TCP"][loss]
