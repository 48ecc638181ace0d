"""Memory-bounded metrics for open-system (streaming) runs.

The base :class:`~repro.metrics.collector.MetricsCollector` keeps one
:class:`~repro.metrics.records.FlowRecord` per registered flow — the
right trade for closed-batch figures, and a hard ceiling for the
million-flow arrival processes of :mod:`repro.workload.open_system`.
:class:`StreamingMetricsCollector` keeps records only while a flow is
*live* (registered but unresolved); the moment a flow completes or is
terminated, its record is folded into constant-space accumulators —
counts, FCT sum/max, :class:`~repro.utils.sketch.QuantileSketch`
ladders for FCT and slowdown — plus a reservoir of full
records, sampled by Algorithm L (Li 1994, "Reservoir-sampling algorithms
of time complexity O(n(1+log(N/n)))") with an RNG pinned by the spec
seed, and then evicted. Peak memory tracks the number of *concurrent*
flows, not the number of admitted ones.

Serialization rides the existing collector schema: ``to_dict()`` emits
the surviving records (reservoir sample plus any still-unresolved tail)
under the usual ``"records"`` key and adds one ``"streaming"`` block, so
:class:`~repro.campaign.store.ResultStore`, the reducers, and ``repro
report`` consume streaming payloads unchanged.
:meth:`MetricsCollector.from_dict` dispatches on that block, so restored
collectors answer the paper-metric queries from the accumulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Any

from repro.errors import ExperimentError
from repro.metrics.collector import MetricsCollector
from repro.metrics.records import FlowRecord
from repro.metrics.summary import SummaryStats
from repro.schema import POSITIVE, JsonSpec, _nested, _PathError, at_least
from repro.units import GBPS
from repro.utils.rng import spawn_rng
from repro.utils.sketch import QuantileSketch
from repro.workload.flow import FlowSpec

#: serialization version of the "streaming" block
STREAMING_SCHEMA = 1


@dataclass(frozen=True)
class StreamingOptions(JsonSpec):
    """A ``streaming_metrics`` options mapping: the reservoir size, the
    slowdown reference rate and the quantile sketches' ``k``."""

    reservoir: int = field(default=1000, metadata=at_least(0))
    reference_rate_bps: float = field(default=1 * GBPS, metadata=POSITIVE)
    sketch_k: int = field(default=200, metadata=at_least(8))


def read_streaming(value: Any, path: tuple[str, ...]) -> StreamingOptions:
    """The ``streaming_metrics`` option: ``true`` for the defaults, or a
    :class:`StreamingOptions` mapping. ``{}`` is refused:
    :func:`~repro.campaign.engines.execute_spec` reads a falsy value as
    "off"."""
    if value is True:
        return StreamingOptions()
    if not isinstance(value, Mapping):
        raise _PathError(path, f"must be true or a mapping, got {value!r}")
    if not value:
        raise _PathError(path, "{} turns nothing on; give true for the "
                               "defaults")
    return _nested(StreamingOptions, value, path)


def streaming_collector(options, seed: int = 0) -> "StreamingMetricsCollector":
    """Build a streaming collector from a spec's ``streaming_metrics``
    option value (:func:`read_streaming`)."""
    options = read_streaming(options, ("streaming_metrics",))
    return StreamingMetricsCollector(
        reservoir_size=options.reservoir,
        seed=seed,
        reference_rate_bps=options.reference_rate_bps,
        sketch_k=options.sketch_k,
    )


class StreamingMetricsCollector(MetricsCollector):
    """Collector whose memory is O(concurrent flows), not O(flows).

    Slowdown is each completed flow's FCT divided by its ideal transfer
    time at ``reference_rate_bps`` (the paper's access-link rate by
    default), a scale-free tail statistic for load sweeps.

    Late hooks are tolerated: packet transports can report stray bytes,
    retransmissions or a redundant termination for a flow that already
    resolved and was evicted; those land in ``late_events`` instead of
    raising. Duplicate-fid detection only covers *live* flows — streams
    hand out monotonically increasing fids, so that is not a loss.
    """

    def __init__(self, reservoir_size: int = 1000, seed: int = 0,
                 reference_rate_bps: float = 1 * GBPS,
                 sketch_k: int = 200) -> None:
        super().__init__()
        if reservoir_size < 0:
            raise ExperimentError(
                f"reservoir_size must be >= 0, got {reservoir_size}"
            )
        self.reservoir_size = reservoir_size
        self.seed = seed
        self.reference_rate_bps = reference_rate_bps
        self._rng = spawn_rng(seed, "metrics:reservoir")
        self.fct_sketch = QuantileSketch(k=sketch_k)
        self.slowdown_sketch = QuantileSketch(k=sketch_k)
        #: resolved-flow accumulators (live flows are in ``records``)
        self.n_registered = 0
        self.n_completed = 0
        self.n_terminated = 0
        self.n_deadline = 0
        self.n_deadline_met = 0
        self.fct_sum = 0.0
        self.fct_max = 0.0
        self.bytes_total = 0
        self.retransmissions_total = 0
        self.probes_total = 0
        #: hook calls that arrived after their flow was folded + evicted
        self.late_events = 0
        #: Algorithm-L uniform sample of resolved FlowRecords
        self.reservoir: list[FlowRecord] = []
        self._resolved_seen = 0
        #: Algorithm L state: the sampling threshold W, and the index of
        #: the next resolved record to keep (-1: none, the reservoir is
        #: still filling or has no slots)
        self._w = 1.0
        self._next_keep = -1

    # -- event hooks (a hook for an evicted fid lands in _missing) -------------

    def register(self, spec: FlowSpec) -> FlowRecord:
        """The base hook and the registration counters, in one frame."""
        fid = spec.fid
        records = self.records
        if fid in records:
            raise ExperimentError(f"flow {fid} registered twice")
        record = records[fid] = FlowRecord(spec=spec)
        self._unresolved += 1
        for observe in self.register_observers:
            observe(record)
        if self.tracer is not None:
            self.tracer.on_arrival(fid, spec.arrival)
        self.n_registered += 1
        if spec.deadline is not None:
            self.n_deadline += 1
        return record

    def on_complete(self, fid: int, time: float) -> None:
        """The base hook with the completed-flow fold inline: FCT and
        slowdown accumulators, then :meth:`_retire`."""
        record = self.records.get(fid)
        if record is None:
            return self._missing(fid)
        if record.completion_time is None:
            record.completion_time = time
            if self.tracer is not None:
                self.tracer.on_complete(fid, time)
            if not record.terminated:
                spec = record.spec
                self.n_completed += 1
                fct = time - spec.arrival
                self.fct_sum += fct
                if fct > self.fct_max:
                    self.fct_max = fct
                self.fct_sketch.add(fct)
                ideal = spec.size_bytes * 8.0 / self.reference_rate_bps
                if ideal > 0:
                    self.slowdown_sketch.add(fct / ideal)
                if spec.deadline is not None \
                        and time <= spec.arrival + spec.deadline + 1e-12:
                    self.n_deadline_met += 1
                self._retire(record)
                self._resolve_one()

    def _missing(self, fid: int) -> None:
        """Any event hook for an evicted flow."""
        self.late_events += 1

    # -- folding -----------------------------------------------------------------

    def _fold(self, record: FlowRecord) -> None:
        """Accumulate a flow resolved by termination and evict its
        record (completions fold in :meth:`on_complete`)."""
        self.n_terminated += 1
        self._retire(record)

    def _retire(self, record: FlowRecord) -> None:
        """Fold what every resolved flow contributes, offer its record to
        the reservoir and evict it.

        Algorithm L (Li 1994): the first ``reservoir_size`` records fill
        the sample, then a geometric skip names the next record to keep;
        each keep replaces a uniform slot and draws the next skip. Every
        resolved record has equal probability ``reservoir_size /
        resolved_seen`` of being in the sample, for about
        ``k * (1 + ln(n / k))`` draws instead of one per record."""
        self.bytes_total += record.bytes_delivered
        self.retransmissions_total += record.retransmissions
        self.probes_total += record.probes_sent
        i = self._resolved_seen
        self._resolved_seen = i + 1
        if i == self._next_keep:
            slot = int(self._rng.integers(self.reservoir_size))
            self.reservoir[slot] = record
            self._skip()
        elif i < self.reservoir_size:
            self.reservoir.append(record)
            if i + 1 == self.reservoir_size:
                self._skip()
        del self.records[record.spec.fid]

    def _skip(self) -> None:
        """Shrink the sampling threshold ``W`` by a Beta(k, 1) factor
        and set the index of the next record to keep one geometric skip
        ahead. ``1.0 - random()`` lies in (0, 1], so no log sees 0."""
        rng = self._rng
        w = self._w * math.exp(
            math.log(1.0 - rng.random()) / self.reservoir_size)
        self._w = w
        # W rounds to 1.0 only when the draw is within k ulps of 1:
        # then the next record is kept
        gap = (math.floor(math.log(1.0 - rng.random()) / math.log1p(-w))
               if w < 1.0 else 0)
        self._next_keep = self._resolved_seen + gap

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Base schema plus one ``"streaming"`` block. ``"records"``
        holds the reservoir sample and any still-unresolved tail, sorted
        by fid like the base collector's output."""
        survivors = {r.spec.fid: r for r in self.reservoir}
        survivors.update(self.records)
        out: dict = {
            "records": [
                survivors[fid].to_dict() for fid in sorted(survivors)
            ],
            "streaming": {
                "schema": STREAMING_SCHEMA,
                "seed": self.seed,
                "reservoir_size": self.reservoir_size,
                "reference_rate_bps": self.reference_rate_bps,
                "n_registered": self.n_registered,
                "n_completed": self.n_completed,
                "n_terminated": self.n_terminated,
                "n_deadline": self.n_deadline,
                "n_deadline_met": self.n_deadline_met,
                "n_unresolved": self._unresolved,
                "n_sampled": len(self.reservoir),
                "resolved_seen": self._resolved_seen,
                "fct_sum": self.fct_sum,
                "fct_max": self.fct_max,
                "bytes_total": self.bytes_total,
                "retransmissions_total": self.retransmissions_total,
                "probes_total": self.probes_total,
                "late_events": self.late_events,
                "fct_sketch": self.fct_sketch.to_dict(),
                "slowdown_sketch": self.slowdown_sketch.to_dict(),
            },
        }
        if self.stats:
            out["stats"] = {k: self.stats[k] for k in sorted(self.stats)}
        if self.probes:
            out["probes"] = self.probes
        if self.trace:
            out["trace"] = self.trace
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "StreamingMetricsCollector":
        block = data["streaming"]
        collector = cls(
            reservoir_size=block["reservoir_size"],
            seed=block["seed"],
            reference_rate_bps=block["reference_rate_bps"],
        )
        # the restored RNG has consumed no draws; a restored collector is
        # a read-only artifact, not a resumable sampler
        for item in data["records"]:
            record = FlowRecord.from_dict(item)
            if record.completed or record.terminated:
                collector.reservoir.append(record)
            else:
                collector.records[record.spec.fid] = record
        collector._unresolved = block["n_unresolved"]
        collector.n_registered = block["n_registered"]
        collector.n_completed = block["n_completed"]
        collector.n_terminated = block["n_terminated"]
        collector.n_deadline = block["n_deadline"]
        collector.n_deadline_met = block["n_deadline_met"]
        collector._resolved_seen = block["resolved_seen"]
        collector.fct_sum = block["fct_sum"]
        collector.fct_max = block["fct_max"]
        collector.bytes_total = block["bytes_total"]
        collector.retransmissions_total = block["retransmissions_total"]
        collector.probes_total = block["probes_total"]
        collector.late_events = block.get("late_events", 0)
        collector.fct_sketch = QuantileSketch.from_dict(block["fct_sketch"])
        collector.slowdown_sketch = QuantileSketch.from_dict(
            block["slowdown_sketch"]
        )
        collector.stats = dict(data.get("stats", {}))
        collector.probes = dict(data.get("probes", {}))
        collector.trace = list(data.get("trace", []))
        return collector

    # -- queries (accumulator-backed) ---------------------------------------------

    def __len__(self) -> int:
        return self.n_registered

    def completed_count(self) -> int:
        return self.n_completed

    def summarize(self) -> SummaryStats:
        """Accumulator-backed :class:`SummaryStats` (what
        ``SummaryStats.from_collector`` returns for this collector)."""
        completed = self.n_completed
        return SummaryStats(
            n_flows=self.n_registered,
            n_completed=completed,
            n_terminated=self.n_terminated,
            mean_fct=self.fct_sum / completed if completed else None,
            p95_fct=self.fct_sketch.quantile(0.95) if completed else None,
            max_fct=self.fct_max if completed else None,
            application_throughput=(
                self.n_deadline_met / self.n_deadline
                if self.n_deadline else None
            ),
            total_retransmissions=self.retransmissions_total,
        )

    def application_throughput(self) -> float:
        if not self.n_deadline:
            raise ExperimentError("no deadline-constrained flows to score")
        return self.n_deadline_met / self.n_deadline

    def mean_fct(self, only=None) -> float:
        if only is not None:
            raise ExperimentError(
                "streaming collectors keep no per-fid FCTs; "
                "mean_fct(only=...) needs a closed-batch collector"
            )
        if not self.n_completed:
            raise ExperimentError("no completed flows to average")
        return self.fct_sum / self.n_completed

    def max_fct(self) -> float:
        if not self.n_completed:
            raise ExperimentError("no completed flows")
        return self.fct_max

    def fct_percentile(self, q: float) -> float:
        """Sketch-backed FCT percentile (``q`` in [0, 100])."""
        return self.fct_sketch.quantile(q / 100.0)
