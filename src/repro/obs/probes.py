"""Declarative probes: spec-addressable time-series sampling.

A scenario opts into probes through its ``options``::

    "options": {
        "probes": {
            "bottleneck": {"kind": "link", "link": ["sw0", "recv"],
                           "interval": 0.001},
            "rates": {"kind": "flow_rates", "interval": 0.002}
        }
    }

Probe kinds:

``link``
    Utilization and queue occupancy of the named directed link, sampled
    every ``interval`` seconds (Fig 6 and Fig 7 read their bottleneck
    series from this probe). On the fluid engine utilization is the
    allocated-rate sum crossing the edge over its capacity and queues
    are identically zero (the fluid model has no queues).

``flow_rates``
    Per-flow throughput. Packet engine: delivered-byte deltas per
    interval (goodput), the same with or without ``streaming_metrics``.
    Fluid engine: the allocated rates — which is what "rate" means in
    that model.

On the packet engine each probe samples on its own
:class:`~repro.events.timers.PeriodicTimer` (:class:`PacketLinkProbe`,
:class:`PacketFlowRateProbe`); the fluid engine has no timers, so its
probes sample at event boundaries (:class:`FluidLinkProbe`,
:class:`FluidFlowRateProbe`).

Each probe kind is a :class:`~repro.schema.JsonSpec` dataclass
(:class:`LinkProbe`, :class:`FlowRatesProbe`), picked by ``kind``: the
spec schema reads the option (:func:`read_probes`) when a cell's options
are checked, and a malformed probe is a :class:`~repro.errors.
CampaignError` naming its path (``options probes bottleneck interval:
must be positive, got 0``). A link probe on a link the topology lacks
fails :func:`check_probe_links`, in the dry run and in both engines.

Each probe materializes as ``{"kind", "params", "columns", "samples"}``
under ``collector.probes[name]`` — already JSON-plain, so it round-trips
through the result store byte-identically; :func:`probe_series` reads
one column back as ``(t, value)`` pairs. Probes cost nothing unless
requested: the engines only consult them when the option is present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Any

from repro.events.timers import PeriodicTimer
from repro.schema import (
    POSITIVE,
    JsonSpec,
    _nested,
    _PathError,
    _READERS,
    unknown_names,
)

LINK_COLUMNS = ["t", "utilization", "queue_packets", "queue_bytes"]
FLOW_RATE_COLUMNS = ["t", "rates_bps"]


@dataclass(frozen=True)
class Probe(JsonSpec):
    """A probe's sampling ``interval`` in seconds; the probe's ``kind``
    names its class (:data:`PROBE_KINDS`)."""

    KIND = ""

    interval: float = field(metadata=POSITIVE)


@dataclass(frozen=True)
class LinkProbe(Probe):
    """``link``: utilization and queue occupancy of the directed
    ``[src, dst]`` link."""

    KIND = "link"

    link: tuple[str, ...]

    def _check(self) -> None:
        if len(self.link) != 2:
            raise _PathError(("link",), "must be a [src, dst] pair, got "
                                        f"{list(self.link)!r}")


@dataclass(frozen=True)
class FlowRatesProbe(Probe):
    """``flow_rates``: per-flow throughput."""

    KIND = "flow_rates"


#: probe kind -> its schema
PROBE_KINDS = {cls.KIND: cls for cls in (LinkProbe, FlowRatesProbe)}


def read_probes(value: Any, path: tuple[str, ...]) -> dict[str, Probe]:
    """The ``probes`` option: probe names mapped to probes, each read as
    the schema of its ``kind`` says."""
    out = {}
    for name, probe in _READERS[Mapping](value, path).items():
        where = path + (str(name),)
        params = _READERS[Mapping](probe, where)
        kind = _READERS[str](params.pop("kind", None), where + ("kind",))
        if kind not in PROBE_KINDS:
            raise _PathError(where, "unknown kind "
                             + unknown_names([kind], PROBE_KINDS))
        out[name] = _nested(PROBE_KINDS[kind], params, where)
    return out


def check_probe_links(probes: Any, topology) -> list[tuple[str, Probe]]:
    """The ``probes`` option read (:func:`read_probes`) and sorted by
    name, once every link probe names a link of ``topology``: the one
    check of the dry run and both engines."""
    path = ("options", "probes")
    read = sorted(read_probes(probes, path).items())
    for name, probe in read:
        if isinstance(probe, LinkProbe) \
                and not topology.graph.has_edge(*probe.link):
            raise _PathError(path + (str(name), "link"), "no link "
                             f"{probe.link[0]} -> {probe.link[1]} in the "
                             "topology")
    return read


def probe_series(probe: Mapping[str, Any], column: str, start: float = 0.0,
                 end: float = math.inf) -> list[tuple[float, Any]]:
    """``(t, value)`` pairs of one column of a materialized probe, for
    the samples with ``start <= t <= end``."""
    i = probe["columns"].index(column)
    return [(row[0], row[i]) for row in probe["samples"]
            if start <= row[0] <= end]


def _result(probe: Probe, columns: list[str], samples: list[list]) -> dict:
    return {
        "kind": probe.KIND,
        "params": dict(sorted(probe.canonical().items())),
        "columns": list(columns),
        "samples": samples,
    }


# -- packet-engine probes -----------------------------------------------------------


class PacketLinkProbe:
    """Samples one link every ``interval`` seconds: the fraction of the
    interval it spent transmitting (``busy_time`` deltas), then its
    queue occupancy at the sample instant."""

    def __init__(self, net, name: str, probe: LinkProbe):
        self.name = name
        self.probe = probe
        self.sim = net.sim
        self.link = net.link_between(*probe.link)
        self.samples: list[list] = []
        self._busy = self.link.busy_time
        self._since = self.sim.now
        PeriodicTimer(self.sim, probe.interval, self._sample).start()

    def _sample(self) -> None:
        link, now = self.link, self.sim.now
        busy = link.busy_time
        utilization = min(1.0, (busy - self._busy) / (now - self._since))
        self.samples.append(
            [now, utilization, len(link.queue), link.queue.bytes])
        self._busy = busy
        self._since = now

    def result(self) -> dict:
        return _result(self.probe, LINK_COLUMNS, self.samples)


class PacketFlowRateProbe:
    """Samples per-flow goodput every ``interval`` seconds: delivered-byte
    deltas over the interval (bits/s), read from the run's flow records,
    the receiver-side view. A flow with no progress in an interval is
    left out of that sample.

    The probe holds each flow's record from its registration to the
    first sample after the flow resolves. So a flow's last interval
    counts when the streaming collector has already evicted its record,
    and the probe's memory follows the live flows.
    """

    def __init__(self, net, name: str, probe: FlowRatesProbe):
        self.name = name
        self.probe = probe
        self.sim = net.sim
        self.samples: list[list] = []
        #: fid -> (record, bytes delivered at the last sample)
        self._held: dict[int, tuple] = {}
        net.metrics.register_observers.append(self._admit)
        PeriodicTimer(self.sim, probe.interval, self._sample).start()

    def _admit(self, record) -> None:
        self._held[record.spec.fid] = (record, 0)

    def _sample(self) -> None:
        held = self._held
        interval = self.probe.interval
        rates: dict[str, float] = {}
        for fid, (record, seen) in list(held.items()):
            delivered = record.bytes_delivered
            if delivered > seen:
                rates[str(fid)] = (delivered - seen) * 8.0 / interval
            if record.completed or record.terminated:
                del held[fid]
            else:
                held[fid] = (record, delivered)
        self.samples.append([self.sim.now, rates])

    def result(self) -> dict:
        return _result(self.probe, FLOW_RATE_COLUMNS, self.samples)


def attach_packet_probes(net, probes: Any) -> list:
    """Instantiate every declared probe on a built Network, before its
    flows launch: the flow-rate probe takes each record as it registers."""
    return [(PacketLinkProbe if isinstance(probe, LinkProbe)
             else PacketFlowRateProbe)(net, name, probe)
            for name, probe in check_probe_links(probes, net.topology)]


# -- fluid-engine probes ------------------------------------------------------------


class _FluidProbe:
    """Samples at the first event boundary >= interval past the last
    sample (the fluid engine has no timers; event boundaries are the
    only instants at which rates are defined)."""

    def __init__(self, name: str, probe: Probe):
        self.name = name
        self.probe = probe
        self.interval = probe.interval
        self._next = self.interval
        self.samples: list[list] = []

    def on_step(self, sim, active) -> None:
        now = sim.now
        if now < self._next or not math.isfinite(now):
            return
        self.samples.append(self._sample(now, active))
        self._next = now + self.interval

    def _sample(self, now: float, active) -> list:
        raise NotImplementedError


class FluidLinkProbe(_FluidProbe):
    """Allocated-rate utilization of one directed edge; queues are zero
    by construction in the fluid model."""

    def __init__(self, sim, name: str, probe: LinkProbe):
        super().__init__(name, probe)
        self.eid = sim.router.edge_index[tuple(probe.link)]
        self.capacity = sim.capacities[self.eid]

    def _sample(self, now: float, active) -> list:
        eid = self.eid
        load = sum(f.rate for f in active if f.rate > 0 and eid in f.path)
        utilization = min(1.0, load / self.capacity) if self.capacity else 0.0
        return [now, utilization, 0, 0]

    def result(self) -> dict:
        return _result(self.probe, LINK_COLUMNS, self.samples)


class FluidFlowRateProbe(_FluidProbe):
    """Allocated per-flow rates (string fids for JSON stability)."""

    def _sample(self, now: float, active) -> list:
        return [now, {str(f.fid): f.rate for f in active if f.rate > 0}]

    def result(self) -> dict:
        return _result(self.probe, FLOW_RATE_COLUMNS, self.samples)


def attach_fluid_probes(sim, probes: Any) -> list:
    """Instantiate declared probes on a FlowLevelSimulation and register
    them as per-event-boundary samplers."""
    attached = [FluidLinkProbe(sim, name, probe)
                if isinstance(probe, LinkProbe)
                else FluidFlowRateProbe(name, probe)
                for name, probe in check_probe_links(probes, sim.topology)]
    sim.samplers.extend(attached)
    return attached


def collect_probes(collector, attached: list) -> None:
    """Fold finished probes into ``collector.probes``."""
    for probe in attached:
        collector.probes[probe.name] = probe.result()
