"""Per-flow progress state inside the fluid engine."""

from __future__ import annotations

from collections.abc import Sequence

from repro.workload.flow import FlowSpec

#: an edge token: a dense directed-edge id (optimized engine) or a
#: ``(src, dst)`` name tuple (hand-built tests). Rate
#: models only require that ``capacities[token]`` yields a capacity, so
#: both representations work against list- and dict-shaped capacity maps.
EdgeToken = int | tuple


class FlowProgress:
    """One in-flight flow in the flow-level simulator.

    ``remaining_wire`` counts wire bytes (payload plus per-packet header
    overhead), matching the packet-level simulator's notion of work.

    ``path`` is a tuple of edge tokens (see :data:`EdgeToken`).
    ``abs_deadline`` caches ``spec.absolute_deadline`` so hot loops skip
    the property recomputation. ``eta_version`` and ``departed`` are
    engine bookkeeping for the lazy completion-ETA heap: the version is
    bumped whenever the flow's rate changes (invalidating queued ETA
    entries) and ``departed`` marks completion/termination. ``seq`` is
    the engine's admission sequence number (orders same-epoch
    completions and trace events).

    Paused time is counted once, as in the packet-level ``PdqSender``:
    ``waited`` holds the closed pause spans and the open one is
    ``now - paused_since``; advancing a paused flow changes nothing.
    """

    __slots__ = (
        "spec", "fid", "path", "max_rate", "rtt", "wire_size",
        "remaining_wire", "transfer_start", "rate", "waited", "paused_since",
        "criticality", "abs_deadline", "eta_version", "departed", "seq",
    )

    def __init__(self, spec: FlowSpec, path: Sequence[EdgeToken],
                 max_rate: float, rtt: float, wire_size: float,
                 transfer_start: float):
        self.spec = spec
        self.fid = spec.fid  # plain attribute: hot loops read it constantly
        self.path = tuple(path)
        self.max_rate = max_rate
        self.rtt = rtt
        self.wire_size = wire_size
        self.remaining_wire = wire_size
        self.transfer_start = transfer_start
        self.rate = 0.0
        self.waited = 0.0          # closed pause spans (aging, §7)
        self.paused_since: float | None = None
        self.criticality: float | None = spec.criticality
        self.abs_deadline: float | None = spec.absolute_deadline
        self.eta_version = 0
        self.departed = False
        self.seq = 0

    @property
    def sent_wire(self) -> float:
        return self.wire_size - self.remaining_wire

    def expected_tx(self) -> float:
        """T: remaining transmission time at the flow's maximal rate."""
        return self.remaining_wire * 8.0 / self.max_rate
