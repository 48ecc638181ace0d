"""Time-series monitors for the packet engine.

:class:`LinkMonitor` samples link utilization and queue occupancy;
:class:`FlowRateMonitor` samples per-flow goodput. They are the
packet-engine half of the declarative probe layer
(:mod:`repro.obs.probes`), which makes both series available to any
scenario through the ``probes`` spec option (Fig 6 and Fig 7 use it).
"""

from __future__ import annotations

from repro.events.simulator import Simulator
from repro.events.timers import PeriodicTimer
from repro.net.link import Link


class LinkMonitor:
    """Samples a link every ``interval`` seconds.

    Each sample is ``(t, utilization, queue_packets, queue_bytes)``:
    the fraction of the interval the link was transmitting, then the
    instantaneous queue occupancy at the sample instant.
    """

    def __init__(self, sim: Simulator, link: Link, interval: float):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.link = link
        self.interval = interval
        self.samples: list[tuple[float, float, int, int]] = []
        self._last_busy = link.busy_time
        self._last_time = sim.now
        self._timer = PeriodicTimer(sim, interval, self._sample)

    def start(self) -> None:
        self._last_busy = self.link.busy_time
        self._last_time = self.sim.now
        self._timer.start()

    def _sample(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_time
        if elapsed <= 0:
            return
        busy = self.link.busy_time - self._last_busy
        utilization = min(1.0, busy / elapsed)
        self.samples.append(
            (now, utilization, len(self.link.queue), self.link.queue.bytes)
        )
        self._last_busy = self.link.busy_time
        self._last_time = now


class FlowRateMonitor:
    """Samples per-flow goodput every ``interval`` seconds.

    Rates are delivered-byte deltas over the interval (bits/s), read
    from the run's :class:`~repro.metrics.collector.MetricsCollector`
    records — the receiver-side view, which is what "rate" means once
    queues and losses are in play. Flows with no progress in an interval
    are omitted from that sample, so long runs stay compact.
    """

    def __init__(self, sim: Simulator, collector, interval: float):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.collector = collector
        self.interval = interval
        #: (time, {fid (as str, JSON-stable): rate_bps})
        self.samples: list[tuple[float, dict[str, float]]] = []
        self._delivered: dict[int, int] = {}
        self._timer = PeriodicTimer(sim, interval, self._sample)

    def start(self) -> None:
        self._delivered = {
            fid: record.bytes_delivered
            for fid, record in self.collector.records.items()
        }
        self._timer.start()

    def _sample(self) -> None:
        rates: dict[str, float] = {}
        seen = self._delivered
        for fid, record in self.collector.records.items():
            delta = record.bytes_delivered - seen.get(fid, 0)
            if delta > 0:
                rates[str(fid)] = delta * 8.0 / self.interval
            seen[fid] = record.bytes_delivered
        self.samples.append((self.sim.now, rates))
