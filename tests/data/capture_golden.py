#!/usr/bin/env python
"""Capture golden figure-panel outputs at reduced scale.

The fixture was frozen from the imperative experiment harness that
preceded the declarative Experiment API; ``tests/test_experiment_api.py``
replays every call as ``run_panel(builder(**kwargs))`` and pins
byte-identical outputs (after a canonicalizing JSON round-trip, which
stringifies dict keys). Re-running this script rewrites the fixture
from the current panels, so do it only to re-baseline on purpose.

Usage:  PYTHONPATH=src python tests/data/capture_golden.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.units import KBYTE, MSEC

#: golden id -> ("module:panel builder", kwargs). Scales are chosen so the
#: whole capture stays within a couple of minutes; the point is pinning
#: the reduction arithmetic and output shape, not paper-scale numbers.
GOLDEN_CALLS = {
    "fig1": ("repro.experiments.fig1:fig1_panel", {}),
    "fig3a": ("repro.experiments.fig3:fig3a_panel", {
        "flow_counts": (2,), "protocols": ("RCP", "TCP"), "seeds": (1,),
    }),
    "fig3b": ("repro.experiments.fig3:fig3b_panel", {
        "mean_sizes": (50 * KBYTE,), "protocols": ("RCP",), "seeds": (1,),
        "n_flows": 2,
    }),
    "fig3c": ("repro.experiments.fig3:fig3c_panel", {
        "mean_deadlines": (3 * MSEC,), "protocols": ("RCP",), "seeds": (1,),
        "hi": 2,
    }),
    "fig3d": ("repro.experiments.fig3:fig3d_panel", {
        "flow_counts": (2,), "protocols": ("RCP", "TCP"), "seeds": (1,),
    }),
    "fig3e": ("repro.experiments.fig3:fig3e_panel", {
        "mean_sizes": (50 * KBYTE,), "protocols": ("RCP",), "seeds": (1,),
        "n_flows": 2,
    }),
    "fig4a": ("repro.experiments.fig4:fig4a_panel", {
        "patterns": ("Aggregation",), "protocols": ("PDQ(Full)", "RCP"),
        "seeds": (1,), "mean_deadline": 3 * MSEC, "hi": 2,
    }),
    "fig4b": ("repro.experiments.fig4:fig4b_panel", {
        "patterns": ("Stride(1)",), "protocols": ("PDQ(Full)", "RCP"),
        "seeds": (1,), "n_flows": 3,
    }),
    "fig5a": ("repro.experiments.fig5:fig5a_panel", {
        "mean_deadlines": (20 * MSEC,), "protocols": ("RCP",), "seeds": (1,),
        "duration": 0.01, "rate_step": 500.0, "hi_steps": 2,
    }),
    "fig5b": ("repro.experiments.fig5:fig5b_panel", {
        "protocols": ("PDQ(Full)", "RCP"), "seeds": (1,),
        "rate_per_sec": 2000.0, "duration": 0.02,
    }),
    "fig5c": ("repro.experiments.fig5:fig5c_panel", {
        "protocols": ("PDQ(Full)", "RCP"), "seeds": (1,),
        "duration": 0.02, "flows_per_second": 1000.0,
    }),
    # fig 6 and fig 7 are one-cell probe panels: their throughput series
    # start at the flow_rates probe's second sample
    "fig6": ("repro.experiments.fig6:fig6_panel", {
        "n_flows": 2, "flow_size": 100 * KBYTE, "sim_deadline": 0.05,
    }),
    "fig7": ("repro.experiments.fig7:fig7_panel", {
        "n_short": 3, "short_size": 10 * KBYTE, "long_size": 200 * KBYTE,
        "sim_deadline": 0.1,
    }),
    "fig8a": ("repro.experiments.fig8:fig8a_panel", {
        "sizes": (16,), "protocols": ("RCP",), "levels": ("flow",),
        "seeds": (1,), "mean_deadline": 3 * MSEC, "hi": 2,
    }),
    "fig8b": ("repro.experiments.fig8:fct_vs_size_panel", {
        "family": "fattree", "sizes": (16,), "protocols": ("RCP",),
        "levels": ("flow",), "seeds": (1,), "flows_per_server": 1,
    }),
    "fig8c": ("repro.experiments.fig8:fct_vs_size_panel", {
        "family": "bcube", "sizes": (16,), "protocols": ("RCP",),
        "levels": ("flow",), "seeds": (1,), "flows_per_server": 1,
    }),
    "fig8e": ("repro.experiments.fig8:fig8e_panel", {
        "n_servers": 16, "flows_per_server": 1, "seeds": (1,),
    }),
    "fig9a": ("repro.experiments.fig9:fig9a_panel", {
        "loss_rates": (0.0,), "protocols": ("PDQ(Full)",), "seeds": (1,),
        "target": 2.0, "hi": 2,
    }),
    "fig9b": ("repro.experiments.fig9:fig9b_panel", {
        "loss_rates": (0.0, 0.01), "protocols": ("PDQ(Full)",),
        "seeds": (1,), "n_flows": 2,
    }),
    "fig10": ("repro.experiments.fig10:fig10_panel", {
        "distributions": ("uniform",), "schemes": ("PDQ perfect", "RCP"),
        "seeds": (1,), "n_flows": 3,
    }),
    "fig11a": ("repro.experiments.fig11:fig11a_panel", {
        "loads": (0.25,), "seeds": (1,), "mean_size": 100 * KBYTE,
        "n_subflows": 2,
    }),
    "fig11b": ("repro.experiments.fig11:fig11b_panel", {
        "subflow_counts": (1, 2), "seeds": (1,), "mean_size": 100 * KBYTE,
    }),
    "fig11c": ("repro.experiments.fig11:fig11c_panel", {
        "subflow_counts": (1,), "seeds": (1,), "mean_size": 1000 * KBYTE,
        "mean_deadline": 3 * MSEC, "hi": 2,
    }),
    "fig12": ("repro.experiments.fig12:fig12_panel", {
        "aging_rates": (0.0,), "seeds": (1,), "n_servers": 16,
        "duration": 0.01, "load": 0.5,
    }),
}


def canonicalize(value):
    """JSON round-trip: stringifies dict keys, tuples become lists."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def main() -> None:
    import importlib

    from repro.experiments.api import run_panel

    out = {}
    for name, (target, kwargs) in GOLDEN_CALLS.items():
        module_name, _, attr = target.partition(":")
        builder = getattr(importlib.import_module(module_name), attr)
        started = time.perf_counter()
        result = run_panel(builder(**kwargs))
        elapsed = time.perf_counter() - started
        out[name] = canonicalize(result)
        print(f"{name}: {elapsed:.2f}s")
    path = Path(__file__).with_name("experiment_golden.json")
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
