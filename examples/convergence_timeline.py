#!/usr/bin/env python
"""Seamless flow switching, rendered as an ASCII timeline (paper Fig 6).

Five ~1 MB flows start together. PDQ runs them one at a time in SJF order
with Early Start overlapping each handover, so the bottleneck never idles:
the whole batch finishes in ~42 ms (40 ms of raw data + ~3 % header
overhead + two-RTT initialization), with only a few packets ever queued.

Run:  python examples/convergence_timeline.py
"""

from repro.experiments.api import run_panel
from repro.experiments.fig6 import fig6_panel
from repro.units import MSEC


def bar(value: float, scale: float, width: int = 40) -> str:
    filled = int(round(min(1.0, value / scale) * width))
    return "#" * filled + "." * (width - filled)


def main() -> None:
    result = run_panel(fig6_panel())

    print("Per-flow throughput over time (each row = 1 ms):\n")
    print("time    flow1 flow2 flow3 flow4 flow5   bottleneck utilization")
    # the throughput series starts at the rate probe's second sample
    for (t, rates), (_, util) in zip(
        result["throughput_series"], result["utilization_series"][1:],
        strict=True,
    ):
        cells = " ".join(
            f"{rate / 1e9:5.2f}" if rate > 1e6 else "  .  " for rate in rates
        )
        print(f"{t * 1e3:5.1f}ms {cells}   |{bar(util, 1.0)}|")

    print("\ncompletions:",
          " ".join(f"{c * 1e3:.1f}ms" for c in result["completions"]))
    print(f"total: {result['total_time'] * 1e3:.2f} ms "
          f"(paper: ~42 ms)  "
          f"utilization: {result['mean_utilization']:.1%}  "
          f"max queue: {result['max_queue_packets']} packets  "
          f"drops: {result['drops']}")


if __name__ == "__main__":
    main()
