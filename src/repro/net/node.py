"""Hosts and switches.

A packet carries its pinned path (list of links). Each node forwards by
taking ``packet.path[packet.hop]``; the destination host consumes it and
dispatches to the right transport endpoint. Every node runs the attached
protocol (PDQ / RCP / D3 flow control) against the egress link before the
packet joins that link's queue -- switches always forward; hosts forward
too in server-centric topologies like BCube, where servers relay traffic
and their NICs are contended links that need flow control just like switch
ports (the PDQ shim layer sits on every node).
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import ProtocolError
from repro.events.simulator import Simulator
from repro.net.link import Link
from repro.net.packet import FORWARD_KINDS, Packet


class NodeProtocol(Protocol):
    """Node-side protocol logic (e.g. the PDQ flow/rate controllers)."""

    def process(self, packet: Packet, out_link: Link) -> None:
        """Inspect/mutate the packet's scheduling header before it is
        queued on ``out_link``."""
        ...  # pragma: no cover - protocol definition


class Endpoint(Protocol):
    """Host-side transport endpoint (sender or receiver half of a flow)."""

    def on_packet(self, packet: Packet) -> None:
        ...  # pragma: no cover - protocol definition


class Node:
    """Common node state: identity, processing delay, optional protocol."""

    def __init__(self, sim: Simulator, node_id: int, name: str,
                 processing_delay: float):
        self.sim = sim
        self.id = node_id
        self.name = name
        self.processing_delay = processing_delay
        self.protocol: NodeProtocol | None = None
        self.forwarded = 0

    def receive(self, packet: Packet, in_link: Link | None) -> None:
        raise NotImplementedError

    def _forward(self, packet: Packet) -> bool:
        """Advance the packet one hop along its pinned path.

        ``Switch.receive`` and ``Host.send`` carry this body inline (one
        frame per hop); a host relaying through-traffic calls it."""
        if packet.hop >= len(packet.path):
            raise ProtocolError(
                f"packet {packet!r} ran out of path at {self.name}"
            )
        out_link = packet.path[packet.hop]
        packet.hop += 1
        if out_link.src is not self:
            raise ProtocolError(
                f"path inconsistency: link {out_link.name} does not leave "
                f"{self.name}"
            )
        if self.protocol is not None:
            self.protocol.process(packet, out_link)
        self.forwarded += 1
        return out_link.enqueue(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class Switch(Node):
    """Forwards packets along their pinned path."""

    def receive(self, packet: Packet, in_link: Link | None) -> None:
        # _forward inlined: switches relay every packet they see, so this
        # is the hottest receive path in the engine (one frame per hop)
        path = packet.path
        hop = packet.hop
        if hop >= len(path):
            raise ProtocolError(
                f"packet {packet!r} ran out of path at {self.name}"
            )
        out_link = path[hop]
        packet.hop = hop + 1
        if out_link.src is not self:
            raise ProtocolError(
                f"path inconsistency: link {out_link.name} does not leave "
                f"{self.name}"
            )
        if self.protocol is not None:
            self.protocol.process(packet, out_link)
        self.forwarded += 1
        out_link.enqueue(packet)


class Host(Node):
    """End host: owns transport endpoints; relays through-traffic."""

    def __init__(self, sim: Simulator, node_id: int, name: str,
                 processing_delay: float):
        super().__init__(sim, node_id, name, processing_delay)
        self.senders: dict[int, Endpoint] = {}
        self.receivers: dict[int, Endpoint] = {}
        self.stray_packets = 0

    # -- outbound ---------------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Inject a locally-originated packet onto its pinned path."""
        # _forward inlined: every packet a transport originates starts here
        path = packet.path
        if not path:
            raise ProtocolError(f"packet {packet!r} has no path")
        packet.sent_time = self.sim.now
        hop = packet.hop
        if hop >= len(path):
            raise ProtocolError(
                f"packet {packet!r} ran out of path at {self.name}"
            )
        out_link = path[hop]
        packet.hop = hop + 1
        if out_link.src is not self:
            raise ProtocolError(
                f"path inconsistency: link {out_link.name} does not leave "
                f"{self.name}"
            )
        if self.protocol is not None:
            self.protocol.process(packet, out_link)
        self.forwarded += 1
        return out_link.enqueue(packet)

    # -- inbound -----------------------------------------------------------------

    def receive(self, packet: Packet, in_link: Link | None) -> None:
        if packet.dst != self.id:
            # through-traffic: this host is a relay on the packet's path
            # (server-centric topologies such as BCube)
            self._forward(packet)
            return
        endpoint = (self.receivers.get(packet.fid)
                    if packet.kind in FORWARD_KINDS
                    else self.senders.get(packet.fid))
        if endpoint is None:
            # late packet for an already-closed flow; harmless
            self.stray_packets += 1
        else:
            endpoint.on_packet(packet)

    # -- endpoint registry ---------------------------------------------------------

    def register_sender(self, fid: int, endpoint: Endpoint) -> None:
        if fid in self.senders:
            raise ProtocolError(f"duplicate sender for flow {fid} on {self.name}")
        self.senders[fid] = endpoint

    def register_receiver(self, fid: int, endpoint: Endpoint) -> None:
        if fid in self.receivers:
            raise ProtocolError(f"duplicate receiver for flow {fid} on {self.name}")
        self.receivers[fid] = endpoint

    def unregister_sender(self, fid: int) -> None:
        self.senders.pop(fid, None)

    def unregister_receiver(self, fid: int) -> None:
        self.receivers.pop(fid, None)
