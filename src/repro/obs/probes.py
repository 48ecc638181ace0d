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
    interval (goodput). Fluid engine: the allocated rates — which is
    what "rate" means in that model.

Each probe materializes as ``{"kind", "params", "columns", "samples"}``
under ``collector.probes[name]`` — already JSON-plain, so it round-trips
through the result store byte-identically; :func:`probe_series` reads
one column back as ``(t, value)`` pairs. Probes cost nothing unless
requested: the engines only consult them when the option is present.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Any

from repro.errors import CampaignError, ExperimentError

PROBE_KINDS = ("link", "flow_rates")

LINK_COLUMNS = ["t", "utilization", "queue_packets", "queue_bytes"]
FLOW_RATE_COLUMNS = ["t", "rates_bps"]


def validate_probes_option(probes: Any) -> dict[str, dict]:
    """Check the ``probes`` option shape; returns it as a plain dict. A
    malformed option is an invalid spec (:class:`CampaignError`)."""
    if not isinstance(probes, Mapping):
        raise CampaignError(
            "the 'probes' option must map probe names to probe specs, "
            f"got {type(probes).__name__}"
        )
    out: dict[str, dict] = {}
    for name, params in probes.items():
        if not isinstance(params, Mapping):
            raise CampaignError(
                f"probe {name!r}: spec must be a mapping, "
                f"got {type(params).__name__}"
            )
        kind = params.get("kind")
        if kind not in PROBE_KINDS:
            raise CampaignError(
                f"probe {name!r}: unknown kind {kind!r} "
                f"(known: {', '.join(PROBE_KINDS)})"
            )
        interval = params.get("interval")
        if (isinstance(interval, bool)
                or not isinstance(interval, (int, float))
                or not 0 < interval < math.inf):
            raise CampaignError(
                f"probe {name!r}: 'interval' must be a positive finite "
                f"number, got {interval!r}"
            )
        if kind == "link":
            link = params.get("link")
            if (not isinstance(link, (list, tuple)) or len(link) != 2
                    or not all(isinstance(n, str) for n in link)):
                raise CampaignError(
                    f"probe {name!r}: 'link' must be a [src, dst] "
                    "node-name pair"
                )
        out[name] = dict(params)
    return out


def probe_series(probe: Mapping[str, Any], column: str, start: float = 0.0,
                 end: float = math.inf) -> list[tuple[float, Any]]:
    """``(t, value)`` pairs of one column of a materialized probe, for
    the samples with ``start <= t <= end``."""
    i = probe["columns"].index(column)
    return [(row[0], row[i]) for row in probe["samples"]
            if start <= row[0] <= end]


def _result(kind: str, params: Mapping[str, Any], columns: list[str],
            samples: list[list]) -> dict:
    return {
        "kind": kind,
        "params": {k: v for k, v in sorted(params.items()) if k != "kind"},
        "columns": list(columns),
        "samples": samples,
    }


# -- packet-engine probes -----------------------------------------------------------


class PacketLinkProbe:
    """Wraps a :class:`~repro.net.monitors.LinkMonitor` on the named link."""

    def __init__(self, net, name: str, params: Mapping[str, Any]):
        from repro.net.monitors import LinkMonitor

        self.name = name
        self.params = params
        self.monitor = LinkMonitor(net.sim, net.link_between(*params["link"]),
                                   params["interval"])
        self.monitor.start()

    def result(self) -> dict:
        return _result("link", self.params, LINK_COLUMNS,
                       [list(row) for row in self.monitor.samples])


class PacketFlowRateProbe:
    """Wraps a :class:`~repro.net.monitors.FlowRateMonitor` (goodput)."""

    def __init__(self, net, name: str, params: Mapping[str, Any]):
        from repro.net.monitors import FlowRateMonitor

        self.name = name
        self.params = params
        self.monitor = FlowRateMonitor(
            net.sim, net.metrics, params["interval"]
        )
        self.monitor.start()

    def result(self) -> dict:
        return _result("flow_rates", self.params, FLOW_RATE_COLUMNS,
                       [[t, rates] for t, rates in self.monitor.samples])


def attach_packet_probes(net, probes: Any) -> list:
    """Instantiate every declared probe on a built (unrun) Network."""
    attached = []
    for name, params in sorted(validate_probes_option(probes).items()):
        if params["kind"] == "link":
            attached.append(PacketLinkProbe(net, name, params))
        else:
            attached.append(PacketFlowRateProbe(net, name, params))
    return attached


# -- fluid-engine probes ------------------------------------------------------------


class _FluidProbe:
    """Samples at the first event boundary >= interval past the last
    sample (the fluid engine has no timers; event boundaries are the
    only instants at which rates are defined)."""

    def __init__(self, name: str, params: Mapping[str, Any]):
        self.name = name
        self.params = params
        self.interval = params["interval"]
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

    def __init__(self, sim, name: str, params: Mapping[str, Any]):
        super().__init__(name, params)
        a, b = params["link"]
        try:
            self.eid = sim.router.edge_index[(a, b)]
        except KeyError:
            raise ExperimentError(
                f"probe {name!r}: no link {a} -> {b} in the topology"
            ) from None
        self.capacity = sim.capacities[self.eid]

    def _sample(self, now: float, active) -> list:
        eid = self.eid
        load = sum(f.rate for f in active if f.rate > 0 and eid in f.path)
        utilization = min(1.0, load / self.capacity) if self.capacity else 0.0
        return [now, utilization, 0, 0]

    def result(self) -> dict:
        return _result("link", self.params, LINK_COLUMNS, self.samples)


class FluidFlowRateProbe(_FluidProbe):
    """Allocated per-flow rates (string fids for JSON stability)."""

    def _sample(self, now: float, active) -> list:
        return [now, {str(f.fid): f.rate for f in active if f.rate > 0}]

    def result(self) -> dict:
        return _result("flow_rates", self.params, FLOW_RATE_COLUMNS,
                       self.samples)


def attach_fluid_probes(sim, probes: Any) -> list:
    """Instantiate declared probes on a FlowLevelSimulation and register
    them as per-event-boundary samplers."""
    attached = []
    for name, params in sorted(validate_probes_option(probes).items()):
        probe = (FluidLinkProbe(sim, name, params)
                 if params["kind"] == "link"
                 else FluidFlowRateProbe(name, params))
        attached.append(probe)
        sim.samplers.append(probe)
    return attached


def collect_probes(collector, attached: list) -> None:
    """Fold finished probes into ``collector.probes``."""
    for probe in attached:
        collector.probes[probe.name] = probe.result()
