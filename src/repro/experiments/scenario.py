"""Scenario helpers shared by the figure experiments.

The simulator entry points (protocol factories, the packet/flow runners
and declarative-spec execution) live in :mod:`repro.campaign.engines`
since the engine layer became part of the campaign subsystem; they are
re-exported here so experiment code and downstream users keep their
historical imports. This module adds the experiment-side
normalization helper on top.
"""

from __future__ import annotations

from repro.campaign.engines import (  # noqa: F401 - re-exports
    PROTOCOLS,
    available_protocols,
    execute_spec,
    make_model,
    make_stack,
    run_flow_level,
    run_packet_level,
)
from repro.errors import ExperimentError

__all__ = [
    "PROTOCOLS",
    "available_protocols",
    "execute_spec",
    "make_model",
    "make_stack",
    "normalize",
    "run_flow_level",
    "run_packet_level",
]


def normalize(series: dict[str, float], reference: str) -> dict[str, float]:
    """Normalize a {label: value} series to one entry (Fig 4/5 style)."""
    base = series.get(reference)
    if base is None or base <= 0:
        raise ExperimentError(f"bad normalization reference {reference!r}")
    return {k: v / base for k, v in series.items()}
