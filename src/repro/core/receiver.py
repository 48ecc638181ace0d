"""PDQ receiver (paper §3.2): copies the scheduling header from each data
packet into the corresponding ACK, clamping the rate to what the receiver
can process."""

from __future__ import annotations

from repro.net.headers import PdqHeader
from repro.net.packet import Packet
from repro.transport.base import AckingReceiver


class PdqReceiver(AckingReceiver):
    """One PDQ flow's receiving half."""

    def __init__(self, network, stack, spec, record, rev_path, host):
        super().__init__(network, stack, spec, record, rev_path, host)
        self.max_rate = network.receiver_rate_limit(spec.dst)

    def make_ack_header(self, packet: Packet) -> PdqHeader:
        header = packet.sched  # every PDQ packet carries a PdqHeader
        if header.rate > self.max_rate:
            header.rate = self.max_rate
        return header
