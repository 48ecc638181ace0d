"""Lazy flow sources for open-system (streaming) workloads.

Closed-batch workload builders return a materialized ``list[FlowSpec]``;
an arrival *process* has no natural flow count, so open-system builders
return a :class:`FlowStream` instead — a one-item-lookahead wrapper over
a generator of arrival-ordered :class:`~repro.workload.flow.FlowSpec`.
Both engines pull from it incrementally (``take_until`` per admission
window), so at no point does the whole workload exist in memory. The
fluid engine admits every input this way: it wraps a materialised list
in a stream over its arrival-sorted copy and runs the same loop, except
that list flows arriving after the run's deadline are still registered
(a lazy stream is only read up to the deadline).

A stream carries its own simulated-time ``horizon`` (last possible
arrival plus a drain margin). The campaign layer uses it as the default
``sim_deadline``, which is what keeps duration-bounded open-system runs
terminating cleanly under :class:`~repro.campaign.runner.CampaignRunner`
wall-clock budgets instead of running the engines open-ended.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import WorkloadError
from repro.workload.flow import FlowSpec


class FlowStream:
    """Arrival-ordered, single-pass source of :class:`FlowSpec`.

    ``horizon`` is the absolute simulated time by which every flow has
    arrived (plus any drain margin the builder added); ``expected_flows``
    is an a-priori estimate for reporting only — the true count is
    whatever the generator yields (``emitted`` tracks it). An arrival
    below the one before it, or a NaN one, raises :class:`WorkloadError`.
    """

    __slots__ = ("horizon", "expected_flows", "emitted", "_it", "_next",
                 "_last_arrival")

    def __init__(self, flows: Iterable[FlowSpec],
                 horizon: float | None = None,
                 expected_flows: int | None = None):
        self.horizon = horizon
        self.expected_flows = expected_flows
        self.emitted = 0
        self._it: Iterator[FlowSpec] = iter(flows)
        self._next: FlowSpec | None = None
        self._last_arrival = float("-inf")
        self._advance()

    def _advance(self) -> None:
        try:
            spec = next(self._it)
        except StopIteration:
            self._next = None
            return
        if not spec.arrival >= self._last_arrival:
            raise WorkloadError(
                f"flow stream arrivals must be non-decreasing: flow "
                f"{spec.fid} arrives at {spec.arrival} after "
                f"{self._last_arrival}"
            )
        self._last_arrival = spec.arrival
        self._next = spec

    @property
    def exhausted(self) -> bool:
        return self._next is None

    def peek_arrival(self) -> float | None:
        """Arrival time of the next flow, or None when exhausted."""
        spec = self._next
        return None if spec is None else spec.arrival

    def take_until(self, cutoff: float) -> list[FlowSpec]:
        """Pop every flow arriving at or before ``cutoff`` (engine
        admission windows call this each tick).

        If the arrival-order check or the generator raises, the flows
        popped so far are not counted and the last one handed out is
        still the next one."""
        out = []
        spec = self._next
        while spec is not None and spec.arrival <= cutoff:
            out.append(spec)
            self._advance()
            spec = self._next
        self.emitted += len(out)
        return out

    def materialize(self) -> list[FlowSpec]:
        """Drain the remaining flows into a list (tests and closed-batch
        comparisons only — this defeats the memory bound)."""
        return self.take_until(float("inf"))
