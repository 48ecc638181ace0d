"""Fig 12 bench: flow aging prevents starvation (flow level).

Shape targets: raising the aging rate cuts PDQ's max FCT substantially
(paper: ~48 % at the knee) at a small mean-FCT cost (paper: +1.7 %),
approaching RCP's max-FCT fairness while keeping most of PDQ's mean-FCT
advantage.
"""

from benchmarks.conftest import report
from repro.experiments.api import run_panel
from repro.experiments.fig12 import fig12_panel
from repro.experiments.tables import format_table

RATES = (0.0, 2.0, 6.0, 10.0)


def test_fig12_aging(capsys):
    result = run_panel(fig12_panel(aging_rates=RATES, seeds=(1,)))
    rows = [
        [f"alpha={a:g}",
         f"{result['PDQ max'][a] * 1e3:.2f}",
         f"{result['PDQ mean'][a] * 1e3:.2f}",
         f"{result['RCP max'][a] * 1e3:.2f}",
         f"{result['RCP mean'][a] * 1e3:.2f}"]
        for a in RATES
    ]
    report(capsys, format_table(
        ["aging rate", "PDQ max (ms)", "PDQ mean (ms)", "RCP max (ms)",
         "RCP mean (ms)"], rows,
        title="Fig 12 -- flow aging: max/mean FCT vs aging rate",
    ))

    no_aging_max = result["PDQ max"][0.0]
    best_aged_max = min(result["PDQ max"][a] for a in RATES if a > 0)
    assert best_aged_max < no_aging_max * 0.75  # max FCT drops sharply
    # the mean pays a bounded price and stays below fair sharing's
    no_aging_mean = result["PDQ mean"][0.0]
    worst_aged_mean = max(result["PDQ mean"][a] for a in RATES if a > 0)
    assert worst_aged_mean < no_aging_mean * 1.5
    assert worst_aged_mean < result["RCP mean"][0.0]
