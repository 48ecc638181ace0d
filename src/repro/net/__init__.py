"""Packet-level network substrate.

Models the paper's evaluation platform (§5.1): store-and-forward links with
transmission / propagation / per-hop processing delay, FIFO tail-drop queues
with byte-bounded buffers, hosts and switches, flow-level ECMP routing with
pinned symmetric paths and random-loss injection. Time series of a run are
probes (:mod:`repro.obs.probes`).
"""

from repro.net.headers import D3Header, PdqHeader, RcpHeader
from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import Host, Node, Switch
from repro.net.packet import Packet, PacketKind
from repro.net.queues import DropTailQueue
from repro.net.routing import Router

__all__ = [
    "D3Header",
    "DropTailQueue",
    "Host",
    "Link",
    "Network",
    "Node",
    "Packet",
    "PacketKind",
    "PdqHeader",
    "RcpHeader",
    "Router",
    "Switch",
]
