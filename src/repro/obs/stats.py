"""Run counters: cheap monotonic telemetry both engines feed.

The engines keep plain integer attributes on their own objects (the
event simulator, links, nodes, the fluid engine, the PDQ rate model) —
incrementing an int is the only per-event cost, and nothing here runs
inside a hot loop. At the end of a scenario the engine runners call
:func:`harvest_packet_run` / :func:`harvest_fluid_run` to fold those
attributes into one flat ``{counter_name: int}`` dict stored on
``MetricsCollector.stats``, which serializes through
``to_dict``/``from_dict`` and therefore persists in the
:class:`~repro.campaign.store.ResultStore` like any other metric.

Counter names are dotted (``sim.events``, ``net.packets_dropped``,
``fluid.allocate_calls``) and sorted on serialization, so stored
payloads are byte-stable and ``repro report`` can aggregate across
scenarios without a schema.
"""

from __future__ import annotations

from collections.abc import Mapping


class RunStats:
    """A registry of named monotonic counters for one run."""

    __slots__ = ("counters",)

    def __init__(self, counters: Mapping[str, int] | None = None):
        self.counters: dict[str, int] = dict(counters or {})

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def set(self, name: str, value: int) -> None:
        self.counters[name] = int(value)

    def get(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def __bool__(self) -> bool:
        return bool(self.counters)

    def __len__(self) -> int:
        return len(self.counters)

    def to_dict(self) -> dict[str, int]:
        return {name: self.counters[name] for name in sorted(self.counters)}

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "RunStats":
        return cls(data)


# -- harvesting --------------------------------------------------------------------


def harvest_packet_run(net) -> RunStats:
    """Fold a finished packet-level run's engine counters into RunStats.

    ``net`` is a :class:`~repro.net.network.Network` whose simulation has
    run; every value is a plain attribute read, so harvesting costs
    nothing measurable relative to the run itself.
    """
    sim = net.sim
    stats = RunStats()
    c = stats.counters
    c["sim.events"] = sim.processed_events
    c["sim.compactions"] = sim.compactions
    c["sim.pending_at_exit"] = sim.pending()
    c["net.packets_sent"] = sum(link.packets_sent for link in net.links)
    c["net.bytes_sent"] = sum(link.bytes_sent for link in net.links)
    c["net.packets_forwarded"] = sum(node.forwarded for node in net.nodes)
    c["net.packets_dropped"] = net.total_drops()
    c["net.wire_losses"] = net.total_wire_losses()
    c["net.stray_packets"] = sum(
        node.stray_packets for node in net.nodes
        if hasattr(node, "stray_packets")
    )
    c["flows.pauses"] = net.flow_pauses
    c["flows.resumes"] = net.flow_resumes
    c["net.stream_batches"] = getattr(net, "stream_batches", 0)
    controller = getattr(net, "fault_controller", None)
    if controller is not None:
        # only under fault injection, so fault-free stored payloads are
        # byte-identical to what they were before the subsystem existed
        c["faults.events_applied"] = controller.events_applied
        c["faults.reroutes"] = controller.reroutes
        c["faults.flows_rejected"] = (controller.flows_rejected
                                      + net.flows_unroutable)
        c["faults.packets_dropped"] = controller.packets_dropped()
    return stats


def harvest_fluid_run(sim) -> RunStats:
    """Fold a finished fluid run's engine counters into RunStats.

    ``sim`` is a :class:`~repro.flowsim.engine.FlowLevelSimulation`; the
    comparator-key cache counters exist only on models that keep one
    (PDQ), so they are read tolerantly.
    """
    stats = RunStats()
    c = stats.counters
    c["fluid.iterations"] = sim.iterations
    c["fluid.allocate_calls"] = sim.recomputations
    c["flows.pauses"] = sim.pauses
    c["flows.resumes"] = sim.resumes
    c["fluid.stream_batches"] = getattr(sim, "stream_batches", 0)
    model = sim.model
    hits = getattr(model, "cache_hits", None)
    if hits is not None:
        c["fluid.comparator_cache_hits"] = hits
        c["fluid.comparator_cache_misses"] = model.cache_misses
    if getattr(sim, "fault_events", ()):
        # same conditional-emission rule as the packet harvest: the
        # counters appear only when the scenario declared faults
        c["faults.events_applied"] = sim.fault_events_applied
        c["faults.reroutes"] = sim.fault_reroutes
        c["faults.flows_rejected"] = sim.flows_rejected
    return stats
