"""Collects per-flow records during a simulation run."""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.errors import ExperimentError
from repro.metrics.records import FlowRecord
from repro.workload.flow import FlowSpec


class MetricsCollector:
    """Registry of flow outcomes; endpoints report into it.

    The collector also tracks how many registered flows are still
    *unresolved* (neither completed nor terminated) and notifies
    completion observers the moment the count hits zero — the packet
    engine's :meth:`~repro.net.network.Network.run_until_quiet` hooks
    ``sim.stop`` in there so a run ends on the event that resolved the
    last flow instead of polling in chunks.
    """

    def __init__(self) -> None:
        self.records: dict[int, FlowRecord] = {}
        self._unresolved = 0
        self._observers: list[Callable[[], None]] = []
        #: called with each new record (the packet engine's flow-rate
        #: probes take their records here, repro.obs.probes)
        self.register_observers: list[Callable[[FlowRecord], None]] = []
        #: run counters harvested from the engines (repro.obs.stats)
        self.stats: dict[str, int] = {}
        #: declarative probe series keyed by probe name (repro.obs.probes)
        self.probes: dict[str, dict] = {}
        #: flow-lifecycle events when tracing was requested (repro.obs.trace)
        self.trace: list[dict] = []
        #: live FlowTracer during a traced run; engines check for None on
        #: every lifecycle transition, so un-traced runs pay one test
        self.tracer = None

    # -- completion observers ----------------------------------------------------

    def add_completion_observer(
        self, callback: Callable[[], None]
    ) -> Callable[[], None]:
        """Call ``callback()`` whenever the unresolved-flow count reaches
        zero; returns a zero-argument unsubscribe function."""
        self._observers.append(callback)

        def unsubscribe() -> None:
            if callback in self._observers:
                self._observers.remove(callback)

        return unsubscribe

    def unfinished_count(self) -> int:
        """Number of registered flows neither completed nor terminated.

        O(1): maintained incrementally by the event hooks."""
        return self._unresolved

    def _fold(self, record: FlowRecord) -> None:
        """Hook run on a flow's record the moment it resolves, before
        observers fire; the streaming collector accumulates and evicts
        the record here."""

    def _missing(self, fid: int) -> None:
        """An event hook named a flow with no record: a caller bug here;
        the streaming collector, which evicts resolved flows, counts a
        late event instead."""
        raise KeyError(fid)

    def _resolve_one(self) -> None:
        self._unresolved -= 1
        if self._unresolved == 0:
            for callback in list(self._observers):
                callback()

    # -- event hooks (called by simulators/endpoints) ---------------------------

    def register(self, spec: FlowSpec) -> FlowRecord:
        if spec.fid in self.records:
            raise ExperimentError(f"flow {spec.fid} registered twice")
        record = FlowRecord(spec=spec)
        self.records[spec.fid] = record
        self._unresolved += 1
        for observe in self.register_observers:
            observe(record)
        if self.tracer is not None:
            self.tracer.on_arrival(spec.fid, spec.arrival)
        return record

    def on_start(self, fid: int, time: float) -> None:
        record = self.records.get(fid)
        if record is None:
            return self._missing(fid)
        record.start_time = time

    def on_bytes(self, fid: int, n: int) -> None:
        record = self.records.get(fid)
        if record is None:
            return self._missing(fid)
        record.bytes_delivered += n

    def on_complete(self, fid: int, time: float) -> None:
        record = self.records.get(fid)
        if record is None:
            return self._missing(fid)
        if record.completion_time is None:
            record.completion_time = time
            if self.tracer is not None:
                self.tracer.on_complete(fid, time)
            if not record.terminated:
                self._fold(record)
                self._resolve_one()

    def on_terminated(self, fid: int, time: float, reason: str) -> None:
        record = self.records.get(fid)
        if record is None:
            return self._missing(fid)
        if not record.completed:
            newly_resolved = not record.terminated
            record.terminated = True
            record.termination_time = time
            record.termination_reason = reason
            if self.tracer is not None and newly_resolved:
                self.tracer.on_terminated(fid, time, reason)
            if newly_resolved:
                self._fold(record)
                self._resolve_one()

    def on_retransmit(self, fid: int) -> None:
        record = self.records.get(fid)
        if record is None:
            return self._missing(fid)
        record.retransmissions += 1

    def on_probe(self, fid: int) -> None:
        record = self.records.get(fid)
        if record is None:
            return self._missing(fid)
        record.probes_sent += 1

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe), inverse of :meth:`from_dict`.

        Round-tripping preserves every per-flow record exactly, so any
        paper metric can be recomputed from a restored collector.
        Telemetry keys (``stats``, ``probes``, ``trace``) are emitted
        only when non-empty, so pre-telemetry payload shapes — and the
        digests pinned on them — are unchanged."""
        out: dict = {
            "records": [
                self.records[fid].to_dict() for fid in sorted(self.records)
            ],
        }
        if self.stats:
            out["stats"] = {k: self.stats[k] for k in sorted(self.stats)}
        if self.probes:
            out["probes"] = self.probes
        if self.trace:
            out["trace"] = self.trace
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsCollector":
        if "streaming" in data and cls is MetricsCollector:
            # payloads written by the memory-bounded streaming mode carry
            # their accumulators in a "streaming" block; restore through
            # the subclass so paper-metric queries read the accumulators
            from repro.metrics.streaming import StreamingMetricsCollector

            return StreamingMetricsCollector.from_dict(data)
        collector = cls()
        for item in data["records"]:
            record = FlowRecord.from_dict(item)
            collector.records[record.spec.fid] = record
        collector._unresolved = sum(
            1 for r in collector.records.values()
            if not r.completed and not r.terminated
        )
        collector.stats = dict(data.get("stats", {}))
        collector.probes = dict(data.get("probes", {}))
        collector.trace = list(data.get("trace", []))
        return collector

    # -- queries ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def record(self, fid: int) -> FlowRecord:
        return self.records[fid]

    def all_records(self) -> list[FlowRecord]:
        return list(self.records.values())

    def completed_records(self) -> list[FlowRecord]:
        return [r for r in self.records.values() if r.completed]

    def completed_count(self) -> int:
        """Number of completed flows; the streaming collector answers
        from its accumulator, where ``completed_records()`` would only
        see the reservoir sample."""
        return len(self.completed_records())

    def deadline_records(self) -> list[FlowRecord]:
        return [r for r in self.records.values() if r.spec.has_deadline]

    # -- paper metrics ---------------------------------------------------------------

    def application_throughput(self) -> float:
        """Fraction of deadline-constrained flows that met their deadline
        (paper §5.1). Terminated and unfinished flows count as misses."""
        deadline_flows = self.deadline_records()
        if not deadline_flows:
            raise ExperimentError("no deadline-constrained flows to score")
        met = sum(1 for r in deadline_flows if r.met_deadline)
        return met / len(deadline_flows)

    def mean_fct(self, only: Iterable[int] | None = None) -> float:
        """Mean flow completion time over completed flows (optionally
        restricted to the given fids)."""
        wanted = set(only) if only is not None else None
        fcts = [
            r.fct
            for r in self.records.values()
            if r.completed and (wanted is None or r.spec.fid in wanted)
        ]
        if not fcts:
            raise ExperimentError("no completed flows to average")
        return sum(fcts) / len(fcts)

    def max_fct(self) -> float:
        fcts = [r.fct for r in self.records.values() if r.completed]
        if not fcts:
            raise ExperimentError("no completed flows")
        return max(fcts)

    def fct_percentile(self, q: float) -> float:
        """Exact FCT percentile over completed flows (``q`` in [0, 100]);
        the streaming collector answers the same query from its sketch."""
        from repro.utils.stats import percentile

        fcts = [r.fct for r in self.records.values() if r.completed]
        if not fcts:
            raise ExperimentError("no completed flows")
        return percentile(fcts, q)

    def fct_by_fid(self) -> dict[int, float]:
        return {
            fid: r.fct for fid, r in self.records.items() if r.completed
        }

    def unfinished(self) -> list[FlowRecord]:
        return [
            r for r in self.records.values()
            if not r.completed and not r.terminated
        ]
