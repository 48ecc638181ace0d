"""Fig 11 bench: Multipath PDQ on BCube(2,3).

Shape targets: M-PDQ beats single-path PDQ, most at light load; the gain
saturates around 3-4 subflows (paper: 4 subflows reach ~97 % of the full
potential); more subflows also help the deadline metric.
"""

from benchmarks.conftest import report
from repro.experiments.api import run_panel
from repro.experiments.fig11 import fig11a_panel, fig11b_panel, fig11c_panel
from repro.experiments.tables import format_table


def test_fig11a_load_sweep(benchmark, capsys):
    loads = (0.25, 1.0)
    result = benchmark.pedantic(
        lambda: run_panel(fig11a_panel(loads=loads, seeds=(1, 2))),
        rounds=1, iterations=1,
    )
    rows = [
        [name] + [f"{result[name][l] * 1e3:.2f} ms" for l in loads]
        for name in ("PDQ", "M-PDQ")
    ]
    report(capsys, format_table(
        ["protocol"] + [f"load={l:.0%}" for l in loads], rows,
        title="Fig 11a -- mean FCT vs load (M-PDQ: 3 subflows)",
    ))
    for load in loads:
        assert result["M-PDQ"][load] < result["PDQ"][load]
    # the multipath advantage is largest at light load
    gain = {l: result["PDQ"][l] / result["M-PDQ"][l] for l in loads}
    assert gain[0.25] >= gain[1.0] * 0.8


def test_fig11b_subflow_sweep(benchmark, capsys):
    counts = (1, 2, 3, 4, 8)
    result = benchmark.pedantic(
        lambda: run_panel(fig11b_panel(subflow_counts=counts, seeds=(1,))),
        rounds=1, iterations=1,
    )
    rows = [[k, f"{result[k] * 1e3:.2f} ms"] for k in counts]
    report(capsys, format_table(
        ["subflows", "mean FCT"], rows,
        title="Fig 11b -- mean FCT vs subflow count at full load "
              "(paper: ~4 subflows reach full potential)",
    ))
    assert result[3] < result[1]
    best = min(result.values())
    assert result[4] <= best * 1.25  # saturation by ~4 subflows


def test_fig11c_deadline_vs_subflows(benchmark, capsys):
    counts = (1, 4)
    result = benchmark.pedantic(
        lambda: run_panel(fig11c_panel(subflow_counts=counts, seeds=(1,),
                                       hi=24)),
        rounds=1, iterations=1,
    )
    rows = [[k, result[k]] for k in counts]
    report(capsys, format_table(
        ["subflows", "flows@99%"], rows,
        title="Fig 11c -- max deadline flows at 99% app throughput",
    ))
    assert result[4] >= result[1]
