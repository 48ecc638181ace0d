"""RCP baseline (paper §5.1).

Rate Control Protocol [Dukkipati & McKeown]: every switch hands all flows on
a link the same explicit fair-share rate. Following the paper, our RCP is
optimized to count the exact number of flows at switches (via SYN/TERM plus
an expiry fallback for lost TERMs) rather than estimating N from C/R, which
converges much faster under flow churn.

Fair share per link, updated every average RTT:

    R = max(0, C - q/(2*RTT)) / N

Senders pace at the minimum R along their path (never fully zero -- a small
floor keeps the feedback loop alive while a standing queue drains).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.events.timers import Timer
from repro.net.headers import RcpHeader
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.transport.base import AckingReceiver, ProtocolStack, RateBasedSender
from repro.units import BITS_PER_BYTE, USEC
from repro.utils.ewma import Ewma

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

#: flows silent this many RTTs are presumed dead (lost TERM safety net)
FLOW_EXPIRY_RTTS = 50.0
#: drain a standing queue over this many RTTs (a one-RTT drain target
#: makes the advertised rate collapse and oscillate)
QUEUE_DRAIN_RTTS = 4.0
#: the advertised rate never drops below one MTU per this many RTTs --
#: explicit-rate senders learn new rates only from ACKs of their own
#: packets, so the floor bounds the feedback-loop latency
FEEDBACK_RTTS = 4.0
DEFAULT_RTT = 150 * USEC


def floor_rate(rtt: float, mtu_bits: float = 1500 * 8) -> float:
    return mtu_bits / (FEEDBACK_RTTS * max(rtt, 1e-6))


class RcpLinkState:
    """Per-egress-link RCP state: exact flow count and the advertised rate."""

    def __init__(self, protocol: "RcpSwitchProtocol", link: Link):
        self.protocol = protocol
        self.link = link
        self.flows: dict[int, float] = {}  # fid -> last seen
        self.rtt_avg = Ewma(alpha=0.1, default=DEFAULT_RTT)
        self.rate = link.rate_bps
        self._timer = Timer(protocol.sim, self._update)

    def observe(self, packet: Packet, now: float) -> None:
        header: RcpHeader = packet.sched
        if header.rtt > 0:
            self.rtt_avg.update(header.rtt)
        if packet.kind == PacketKind.TERM:
            self.flows.pop(packet.fid, None)
            if not self.flows:
                self._timer.cancel()
                self.rate = self.link.rate_bps
            return
        self.flows[packet.fid] = now
        if not self._timer.armed:
            self._timer.start(self.rtt_avg.value_or(DEFAULT_RTT))
        header.rate = min(header.rate, self.rate)

    def _update(self) -> None:
        now = self.protocol.sim.now
        rtt = self.rtt_avg.value_or(DEFAULT_RTT)
        horizon = FLOW_EXPIRY_RTTS * rtt
        self.flows = {f: t for f, t in self.flows.items() if now - t <= horizon}
        n = len(self.flows)
        if n == 0:
            self.rate = self.link.rate_bps
            return
        drain = (self.link.queue.bytes * BITS_PER_BYTE
                 / (QUEUE_DRAIN_RTTS * rtt))
        capacity = max(0.0, self.link.rate_bps - drain)
        # smooth toward the new fair share: all senders react to the same
        # stamped rate one RTT later, so an undamped jump oscillates
        target = max(floor_rate(rtt), capacity / n)
        self.rate = 0.5 * self.rate + 0.5 * target
        self._timer.start(rtt)


class RcpSwitchProtocol:
    """Per-switch RCP: stamps the fair share on forward-path packets."""

    def __init__(self, network: "Network", switch):
        self.net = network
        self.sim = network.sim
        self.switch_id = switch.id
        self._states: dict[int, RcpLinkState] = {}

    def process(self, packet: Packet, out_link: Link) -> None:
        if packet.sched.__class__ is not RcpHeader:
            return
        if packet.kind in (PacketKind.SYN, PacketKind.DATA,
                           PacketKind.PROBE, PacketKind.TERM):
            state = self._states.get(out_link.link_id)
            if state is None:
                state = RcpLinkState(self, out_link)
                self._states[out_link.link_id] = state
            state.observe(packet, self.sim.now)
        # reverse path: the receiver-copied header travels back untouched


class RcpSender(RateBasedSender):
    """RCP sending half: adopt the stamped rate from each ACK."""

    def make_sched_header(self, kind: PacketKind) -> RcpHeader:
        rtt = self.rtt.srtt if self.rtt.srtt is not None else DEFAULT_RTT
        return RcpHeader(self.max_rate, rtt)

    def process_feedback(self, packet: Packet) -> None:
        header = packet.sched
        if not isinstance(header, RcpHeader):
            return
        rtt = self.rtt.srtt if self.rtt.srtt is not None else DEFAULT_RTT
        self.set_rate(min(max(header.rate, floor_rate(rtt)), self.max_rate))


class RcpReceiver(AckingReceiver):
    """RCP receiving half: headers echo back unchanged."""


class RcpStack(ProtocolStack):
    """RCP endpoints plus per-switch rate stamping.

    Wire overhead: 40-byte TCP/IP plus a 4-byte rate/RTT field.
    """

    name = "RCP"
    header_bytes = 44
    ack_bytes = 44

    def make_switch_protocol(self, network, switch) -> RcpSwitchProtocol:
        return RcpSwitchProtocol(network, switch)

    def make_endpoints(self, network, spec, record, fwd_path, rev_path):
        src_host = network.host(spec.src)
        dst_host = network.host(spec.dst)
        sender = RcpSender(network, self, spec, record, fwd_path, src_host)
        receiver = RcpReceiver(network, self, spec, record, rev_path, dst_host)
        src_host.register_sender(spec.fid, sender)
        dst_host.register_receiver(spec.fid, receiver)
        return sender, receiver
