"""Network assembly: topology + protocol stack -> runnable simulation.

Builds hosts/switches/links from a :class:`~repro.topology.base.Topology`,
wires per-switch protocol state, pins flow paths, and launches flows from
:class:`~repro.workload.flow.FlowSpec` lists into the event simulator.

Link ``i`` is directed edge ``i`` of the topology's
:meth:`~repro.topology.base.Topology.directed_edge_index`, so the
:class:`~repro.net.routing.Router` the fluid engine uses pins packet
flows too: :meth:`Network.flow_path` maps its edge ids through
:attr:`Network.links`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.errors import RoutingError, TopologyError
from repro.events.simulator import Simulator
from repro.metrics.collector import MetricsCollector
from repro.net.link import Link
from repro.net.node import Host, Node, Switch
from repro.net.routing import Router
from repro.topology.base import Topology
from repro.units import MBYTE, MSEC, USEC, tx_time
from repro.workload.flow import FlowSpec
from repro.workload.stream import FlowStream


@dataclass(frozen=True)
class NetworkConfig:
    """Paper §5.1 defaults: 4 MB switch buffers, 0.1 us propagation and
    25 us per-hop processing delay, FIFO tail-drop queues."""

    buffer_bytes: int = 4 * MBYTE
    prop_delay: float = 0.1 * USEC
    processing_delay: float = 25 * USEC
    rto_min: float = 2e-3  # small RTOmin per §5.1 (alleviates incast)
    receiver_rate_limits: dict[str, float] | None = None


class Network:
    """One simulated network running one protocol stack."""

    def __init__(
        self,
        topology: Topology,
        stack,
        sim: Simulator | None = None,
        config: NetworkConfig | None = None,
        metrics: MetricsCollector | None = None,
    ):
        self.topology = topology
        self.stack = stack
        self.sim = sim or Simulator()
        self.config = config or NetworkConfig()
        # explicit None test: an injected-but-empty collector is falsy
        self.metrics = MetricsCollector() if metrics is None else metrics

        #: preemption counters (senders report pause/resume transitions)
        self.flow_pauses = 0
        self.flow_resumes = 0

        #: fault injection (repro.faults): set by FaultController when a
        #: scenario declares scheduled failures; None in normal runs
        self.fault_controller = None
        #: flows refused at start because a fault partitioned their
        #: endpoints (counted here; mid-run rejections count on the
        #: controller)
        self.flows_unroutable = 0

        #: open-system streaming state: admission window width, streams
        #: still yielding flows, and a count of non-empty admission pulls
        self.stream_window = 1 * MSEC
        self.stream_batches = 0
        self._pending_streams = 0
        self._quiet_active = False

        self.nodes: list[Node] = []
        self._by_name: dict[str, Node] = {}
        self.router = Router(topology)
        #: indexed by link id, which is the router's directed-edge id
        self.links: list[Link] = []
        self._build_nodes_and_links()
        self._attach_switch_protocols()

    # -- construction -------------------------------------------------------------

    def _build_nodes_and_links(self) -> None:
        graph = self.topology.graph
        for node_id, name in enumerate(sorted(graph.nodes())):
            kind = graph.nodes[name]["kind"]
            cls = Host if kind == "host" else Switch
            node = cls(self.sim, node_id, name, self.config.processing_delay)
            self.nodes.append(node)
            self._by_name[name] = node
        links = self.links
        for link_id, (a, b) in enumerate(self.router.edges):
            links.append(Link(self.sim, self._by_name[a], self._by_name[b],
                              graph.edges[a, b]["rate_bps"],
                              self.config.prop_delay,
                              self.config.buffer_bytes, link_id))
        for link in links:
            # a cable's two directions differ only in the low id bit
            link.reverse = links[link.link_id ^ 1]

    def _attach_switch_protocols(self) -> None:
        # every node runs the protocol's forwarding-plane logic: switches
        # always, hosts because server-centric topologies (BCube) relay
        # through them and their NICs need flow control too
        for node in self.nodes:
            node.protocol = self.stack.make_switch_protocol(self, node)

    # -- lookups --------------------------------------------------------------------

    def node(self, name: str) -> Node:
        try:
            return self._by_name[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def host(self, name: str) -> Host:
        node = self.node(name)
        if not isinstance(node, Host):
            raise TopologyError(f"{name!r} is not a host")
        return node

    def link_between(self, a: str, b: str) -> Link:
        eid = self.router.edge_index.get((a, b))
        if eid is None:
            # an unknown name fails as such, a missing cable after it
            self.node(a)
            self.node(b)
            raise TopologyError(f"no link {a} -> {b}")
        return self.links[eid]

    def flow_path(self, fid: int, src: str, dst: str) -> tuple[Link, ...]:
        """Pinned forward path of flow ``fid`` between two hosts."""
        links = self.links
        return tuple([links[eid]
                      for eid in self.router.flow_path_ids(fid, src, dst)])

    def reverse_path(self, forward: Sequence[Link]) -> tuple[Link, ...]:
        """The exact reverse of a pinned forward path."""
        links = self.links
        return tuple([links[link.link_id ^ 1] for link in reversed(forward)])

    def links_for_path(self, names: Sequence[str]) -> tuple[Link, ...]:
        """Turn a node-name walk into the Link sequence along it (used for
        source-routed paths, e.g. BCube address-based routing)."""
        if len(names) < 2:
            raise TopologyError("path needs at least two nodes")
        return tuple(
            self.link_between(a, b) for a, b in zip(names, names[1:], strict=False)
        )

    def receiver_rate_limit(self, host_name: str) -> float:
        limits = self.config.receiver_rate_limits
        if limits and host_name in limits:
            return limits[host_name]
        return float("inf")

    # -- configuration helpers ----------------------------------------------------------

    def estimate_rtt(self, fwd_path: tuple[Link, ...],
                     control_bytes: int | None = None) -> float:
        """Unloaded round-trip estimate along a pinned path (control-sized
        packets both ways), used to seed sender RTT estimators."""
        size = control_bytes or self.stack.header_bytes
        total = 0.0
        for link in fwd_path:
            total += (tx_time(size, link.rate_bps) + link.prop_delay
                      + link.dst.processing_delay)
            rev = link.reverse
            total += (tx_time(size, rev.rate_bps) + rev.prop_delay
                      + rev.dst.processing_delay)
        return total

    # -- flow launching ---------------------------------------------------------------------

    def launch(self, flows: Iterable[FlowSpec] | FlowStream) -> None:
        """Register flows and schedule their starts.

        A :class:`FlowStream` is admitted incrementally (see
        :meth:`_admit_stream`); a plain iterable is registered up front.
        Arrivals are batched: one dispatcher event per distinct arrival
        time, not one event per flow. Flows sharing a timestamp start in
        launch order, exactly as per-flow events would have fired."""
        if isinstance(flows, FlowStream):
            self._pending_streams += 1
            self._admit_stream(flows)
            return
        batches: dict[float, list] = {}
        for spec in flows:
            record = self.metrics.register(spec)
            batch = batches.get(spec.arrival)
            if batch is None:
                batch = batches[spec.arrival] = []
            batch.append((spec, record))
        for arrival in sorted(batches):
            self.sim.call_at(arrival, self._start_flow_batch, batches[arrival])

    def _start_flow_batch(self, batch) -> None:
        for spec, record in batch:
            self._start_flow(spec, record)

    def _admit_stream(self, stream: FlowStream) -> None:
        """Admission step for an open-system stream (vLLM-scheduler
        style): register and schedule every flow arriving inside the next
        ``stream_window``, then re-arm at the window end — or directly at
        the next arrival when the stream goes quiet, so idle stretches
        cost zero events. Memory stays O(flows in the window), not
        O(flows in the run)."""
        window_end = self.sim.now + self.stream_window
        batch = stream.take_until(window_end)
        register = self.metrics.register
        call_at = self.sim.call_at
        start_flow = self._start_flow
        for spec in batch:
            record = register(spec)
            call_at(spec.arrival, start_flow, spec, record)
        if batch:
            self.stream_batches += 1
        if not stream.exhausted:
            next_arrival = stream.peek_arrival()
            rearm = window_end
            if next_arrival is not None and next_arrival > window_end:
                rearm = next_arrival
            call_at(rearm, self._admit_stream, stream)
            return
        self._pending_streams -= 1
        if (self._pending_streams == 0 and self._quiet_active
                and self.metrics.unfinished_count() == 0):
            # the stream drained on an admission tick with nothing in
            # flight: no completion hook will ever fire, so stop here
            self.sim.stop()

    def _start_flow(self, spec: FlowSpec, record) -> None:
        try:
            fwd = self.flow_path(spec.fid, spec.src, spec.dst)
        except RoutingError:
            if self.fault_controller is None:
                raise  # no fault can explain it: a broken scenario
            # under fault injection a flow may arrive while the network
            # is partitioned: reject it (terminate on arrival) instead
            # of crashing the run — the scheduling-with-rejections
            # regime the fault subsystem models
            self.flows_unroutable += 1
            self.metrics.on_terminated(
                spec.fid, self.sim.now, "fault: unroutable at arrival"
            )
            return
        rev = self.reverse_path(fwd)
        sender, receiver = self.stack.make_endpoints(self, spec, record, fwd, rev)
        sender.start()

    # -- execution --------------------------------------------------------------------------

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        self.sim.run(until=until, max_events=max_events)

    def run_until_quiet(self, deadline: float, max_events: int = 50_000_000) -> None:
        """Run until all flows resolved (completed or terminated) or the
        simulated ``deadline`` passes.

        Completion-driven: a completion observer on the collector calls
        ``sim.stop()`` inside the event that resolves the last flow, so
        the loop processes zero further events — no chunked polling, no
        idle spins on short workloads. ``sim.now`` is left at the
        resolving event's timestamp.

        While an open-system stream is still yielding flows the observer
        holds its fire: a quiet gap between arrivals resolves every
        *admitted* flow without ending the run."""
        if not self.metrics.unfinished_count() and not self._pending_streams:
            return
        unsubscribe = self.metrics.add_completion_observer(
            self._stop_if_drained
        )
        self._quiet_active = True
        try:
            self.sim.run(until=deadline, max_events=max_events)
        finally:
            self._quiet_active = False
            unsubscribe()

    def _stop_if_drained(self) -> None:
        if not self._pending_streams:
            self.sim.stop()

    # -- diagnostics ---------------------------------------------------------------------------

    def total_drops(self) -> int:
        return sum(link.queue.drops for link in self.links)

    def total_wire_losses(self) -> int:
        return sum(link.wire_losses for link in self.links)
