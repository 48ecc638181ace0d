"""Fig 3 bench: query aggregation (reduced scale).

Paper scale: up to 25 flows, deadlines 20-60 ms, many seeds. Reduced here:
three flow counts, 1-2 seeds, a subset of protocols per panel. Shape
targets: PDQ(Full) tracks Optimal; the variant order Full >= ES+ET >= ES
>= Basic; D3/RCP/TCP degrade with load; PDQ sustains ~3x D3's flow count
at 99 % application throughput.
"""

import pytest

from benchmarks.conftest import report
from repro.experiments.api import run_panel
from repro.experiments.fig3 import (
    fig3a_panel,
    fig3b_panel,
    fig3c_panel,
    fig3d_panel,
    fig3e_panel,
)
from repro.experiments.tables import format_table
from repro.units import KBYTE, MSEC


def test_fig3a_app_throughput_vs_flows(benchmark, capsys):
    result = benchmark.pedantic(
        lambda: run_panel(fig3a_panel(flow_counts=(3, 10, 18), seeds=(1, 2))),
        rounds=1, iterations=1,
    )
    counts = sorted(next(iter(result.values())).keys())
    rows = [
        [name] + [f"{result[name][n] * 100:.1f}%" for n in counts]
        for name in result
    ]
    report(capsys, format_table(
        ["protocol"] + [f"n={n}" for n in counts], rows,
        title="Fig 3a -- application throughput vs #flows (deadline case)",
    ))
    heavy = counts[-1]
    assert result["PDQ(Full)"][heavy] >= result["Optimal"][heavy] - 0.20
    assert result["PDQ(Full)"][heavy] >= result["PDQ(Basic)"][heavy] - 0.02
    assert result["PDQ(Full)"][heavy] > result["RCP"][heavy]
    assert result["PDQ(Full)"][heavy] > result["D3"][heavy]
    assert result["PDQ(Full)"][heavy] > result["TCP"][heavy]


def test_fig3b_app_throughput_vs_size(benchmark, capsys):
    sizes = (100 * KBYTE, 250 * KBYTE)
    result = benchmark.pedantic(
        lambda: run_panel(fig3b_panel(mean_sizes=sizes, seeds=(1, 2))),
        rounds=1, iterations=1,
    )
    rows = [
        [name] + [f"{result[name][s] * 100:.1f}%" for s in sizes]
        for name in result
    ]
    report(capsys, format_table(
        ["protocol"] + [f"{int(s / KBYTE)}KB" for s in sizes], rows,
        title="Fig 3b -- application throughput vs mean flow size (3 flows)",
    ))
    big = sizes[-1]
    assert result["PDQ(Full)"][big] >= result["Optimal"][big] - 0.15
    assert result["PDQ(Full)"][big] >= result["RCP"][big]


def test_fig3c_flows_at_99pct_vs_deadline(benchmark, capsys):
    deadlines = (20 * MSEC, 40 * MSEC)
    result = benchmark.pedantic(
        lambda: run_panel(fig3c_panel(mean_deadlines=deadlines, seeds=(1,),
                                      hi=48)),
        rounds=1, iterations=1,
    )
    rows = [
        [name] + [result[name][d] for d in deadlines] for name in result
    ]
    report(capsys, format_table(
        ["protocol"] + [f"{d * 1e3:.0f}ms" for d in deadlines], rows,
        title="Fig 3c -- max flows at 99% application throughput "
              "(paper: PDQ >= 3x D3)",
    ))
    # PDQ sustains more flows everywhere; the multiple grows with the mean
    # deadline (paper: >3x overall, larger at longer deadlines -- at short
    # deadlines the 3 ms floor compresses every protocol)
    for d in deadlines:
        assert result["PDQ(Full)"][d] >= result["D3"][d]
        assert result["PDQ(Full)"][d] >= result["RCP"][d]
    last = deadlines[-1]
    assert result["PDQ(Full)"][last] >= 2.5 * max(1, result["D3"][last])
    ratio = {d: result["PDQ(Full)"][d] / max(1, result["D3"][d])
             for d in deadlines}
    assert ratio[deadlines[-1]] >= ratio[deadlines[0]]


def test_fig3d_fct_vs_flows(benchmark, capsys):
    result = benchmark.pedantic(
        lambda: run_panel(fig3d_panel(flow_counts=(1, 5, 10), seeds=(1, 2))),
        rounds=1, iterations=1,
    )
    counts = sorted(next(iter(result.values())).keys())
    rows = [[name] + [result[name][n] for n in counts] for name in result]
    report(capsys, format_table(
        ["protocol"] + [f"n={n}" for n in counts], rows,
        title="Fig 3d -- mean FCT normalized to optimal (no deadlines)",
    ))
    for n in counts:
        assert result["PDQ(Full)"][n] >= 0.99  # optimal is a lower bound
        assert result["PDQ(Full)"][n] <= result["RCP"][n] + 0.05
    assert result["PDQ(Full)"][10] < result["TCP"][10]
    # paper: PDQ saves ~30% mean FCT vs fair sharing at load
    assert result["PDQ(Full)"][10] < 0.85 * result["RCP"][10]


def test_fig3e_fct_vs_size(benchmark, capsys):
    sizes = (100 * KBYTE, 300 * KBYTE)
    result = benchmark.pedantic(
        lambda: run_panel(fig3e_panel(mean_sizes=sizes, seeds=(1, 2))),
        rounds=1, iterations=1,
    )
    rows = [[name] + [result[name][s] for s in sizes] for name in result]
    report(capsys, format_table(
        ["protocol"] + [f"{int(s / KBYTE)}KB" for s in sizes], rows,
        title="Fig 3e -- mean FCT normalized to optimal vs flow size",
    ))
    # PDQ approaches optimal as sizes grow (init overhead amortizes)
    assert result["PDQ(Full)"][sizes[-1]] <= result["PDQ(Full)"][sizes[0]] + 0.05
    assert result["PDQ(Full)"][sizes[-1]] < result["RCP"][sizes[-1]]
