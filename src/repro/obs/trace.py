"""Flow-lifecycle traces: the paper's preemption dynamics as event logs.

PDQ's core behavior is *temporal* — a critical arrival pauses running
flows mid-flight, they resume when it departs (paper §2, Fig 1). The
:class:`FlowTracer` records that story for any scenario: attach one to a
``MetricsCollector`` (``collector.tracer = FlowTracer()``) before the
run and every lifecycle transition lands in ``tracer.events`` as a
JSON-safe dict::

    {"t": 0.0012, "flow": 3, "event": "pause", "rate": 0.0}

Event kinds: ``arrival``, ``rate`` (a rate change while sending),
``pause`` (rate drops to zero — preemption), ``resume`` (paused flow
granted rate again), ``complete``, ``terminated`` (with ``reason``).

The tracer classifies pause/resume itself from the rate transitions the
engines report, so both the packet stack (``RateBasedSender.set_rate``)
and the fluid engine (``_apply_rates``) produce identical event shapes.
Tracing is opt-in per scenario (the ``trace`` option); a collector
without a tracer pays one ``is None`` check per lifecycle transition and
nothing per packet.
"""

from __future__ import annotations

import json
from pathlib import Path


class FlowTracer:
    """Collects flow-lifecycle events in simulated-time order."""

    __slots__ = ("events", "_rates")

    def __init__(self) -> None:
        self.events: list[dict] = []
        #: last reported rate per flow (absent = never granted a rate)
        self._rates: dict[int, float] = {}

    # -- hooks (called by collector / engines) ---------------------------------

    def on_arrival(self, fid: int, t: float) -> None:
        self.events.append({"t": t, "flow": fid, "event": "arrival"})

    def on_rate(self, fid: int, t: float, rate: float) -> None:
        """Classify a rate change into rate/pause/resume and record it.

        No-op transitions (same rate, or zero-to-zero before the flow
        ever sent) are dropped so traces stay readable.
        """
        last = self._rates.get(fid)
        if rate <= 0:
            if last is None or last <= 0:
                return  # still never sending; not a preemption
            kind = "pause"
        elif last is not None and last <= 0:
            kind = "resume"
        elif last == rate:
            return
        else:
            kind = "rate"
        self._rates[fid] = rate
        self.events.append(
            {"t": t, "flow": fid, "event": kind, "rate": rate}
        )

    def on_complete(self, fid: int, t: float) -> None:
        self.events.append({"t": t, "flow": fid, "event": "complete"})

    def on_terminated(self, fid: int, t: float, reason: str) -> None:
        self.events.append(
            {"t": t, "flow": fid, "event": "terminated", "reason": reason}
        )

    def __len__(self) -> int:
        return len(self.events)


def write_trace_jsonl(path: str | Path, events: list[dict],
                      header: dict | None = None) -> Path:
    """Write one trace as JSON Lines (optionally preceded by a header
    line carrying provenance, e.g. the scenario key)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({"header": header}) + "\n")
        for event in events:
            fh.write(json.dumps(event) + "\n")
    return path


def read_trace_jsonl(path: str | Path) -> list[dict]:
    """Read back the events of a trace that ``--trace-dir`` (the
    runner's ``trace_dir``) wrote as ``<key>.jsonl``; header lines are
    skipped."""
    out: list[dict] = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if "header" in payload and "event" not in payload:
                continue
            out.append(payload)
    return out
