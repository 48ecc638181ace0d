"""TCP Reno baseline (paper §5.1).

Window-based loss-driven congestion control: slow start, congestion
avoidance, fast retransmit / fast recovery (NewReno-style partial-ACK
handling), and exponential-backoff retransmission timeouts. Per the paper,
RTOmin is set small (the standard mitigation for the incast problem in
data centers, following Vasudevan et al.).

Switches are dumb for TCP: no switch protocol is attached.
"""

from __future__ import annotations


from repro.events.timers import Timer
from repro.net.packet import Packet, PacketKind
from repro.transport.base import AckingReceiver, EndpointBase, ProtocolStack


class TcpSender(EndpointBase):
    """TCP Reno sending half.

    Sequence space is bytes; packets are cut on the payload grid. The
    receiver returns cumulative ACKs (``ack_seq`` = next expected byte).
    """

    INITIAL_WINDOW_PACKETS = 3.0
    MAX_BACKOFF = 64.0
    DUPACK_THRESHOLD = 3

    def __init__(self, network, stack, spec, record, fwd_path, host):
        super().__init__(network, stack, spec, record, fwd_path)
        self.host = host
        self.dst_id = network.node(spec.dst).id
        self.payload = stack.payload_bytes
        self.size = spec.size_bytes

        self.snd_una = 0          # oldest unacknowledged byte
        self.snd_nxt = 0          # next new byte to send
        self.cwnd = self.INITIAL_WINDOW_PACKETS  # in packets
        self.ssthresh = float("inf")
        self.dupacks = 0
        self.in_recovery = False
        self.recover_point = 0
        self._backoff = 1.0
        self.handshake_done = False
        self.term_sent = False

        from repro.utils.ewma import RttEstimator

        self.rtt = RttEstimator(
            rto_min=network.config.rto_min,
            initial_rtt=network.estimate_rtt(fwd_path),
        )
        self._rto_timer = Timer(self.sim, self._on_rto)
        self._close_timer = Timer(self.sim, self._close)

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> None:
        self.record.start_time = self.sim.now
        self._send_control(PacketKind.SYN)
        self._rto_timer.start(self.rtt.rto())

    def _close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._rto_timer.cancel()
        self._close_timer.cancel()
        self.host.unregister_sender(self.spec.fid)

    # -- window math -------------------------------------------------------------------

    @property
    def flight_packets(self) -> float:
        return (self.snd_nxt - self.snd_una) / self.payload

    def _can_send(self) -> bool:
        return (
            self.handshake_done
            and not self.term_sent
            and self.snd_nxt < self.size
            and self.flight_packets < self.cwnd
        )

    # -- emission ------------------------------------------------------------------------

    def _send_control(self, kind: PacketKind) -> None:
        packet = Packet(
            self.spec.fid, self.host.id, self.dst_id,
            kind, self.stack.header_bytes,
            echo_time=self.sim.now, path=self.path,
        )
        self.host.send(packet)

    # repro: hot
    def _send_segment(self, offset: int, retransmit: bool = False) -> None:
        chunk = min(self.payload, self.size - offset)
        if chunk <= 0:
            return
        if retransmit:
            self.net.metrics.on_retransmit(self.spec.fid)
        packet = Packet(
            self.spec.fid, self.host.id, self.dst_id,
            PacketKind.DATA, chunk + self.stack.header_bytes,
            seq=offset, payload=chunk,
            echo_time=-1.0 if retransmit else self.sim.now,  # Karn's rule
            path=self.path,
        )
        self.host.send(packet)
        if not self._rto_timer.armed:
            self._rto_timer.start(self.rtt.rto() * self._backoff)

    # repro: hot
    def _pump(self) -> None:
        """Send as much new data as the window allows."""
        while self._can_send():
            self._send_segment(self.snd_nxt)
            self.snd_nxt = min(self.size, self.snd_nxt + self.payload)

    # -- inbound -----------------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        if self.closed:
            return
        if packet.kind == PacketKind.SYN_ACK:
            if not self.handshake_done:
                self.handshake_done = True
                if packet.echo_time >= 0:
                    self.rtt.update(self.sim.now - packet.echo_time)
                self._backoff = 1.0
                self._rto_timer.cancel()
                self._pump()
        elif packet.kind == PacketKind.ACK:
            self._on_ack(packet)
        elif packet.kind == PacketKind.TERM_ACK:
            self._close()

    def _on_ack(self, packet: Packet) -> None:
        ack = packet.ack_seq
        if packet.echo_time >= 0:
            self.rtt.update(self.sim.now - packet.echo_time)
        if ack > self.snd_una:
            self._on_new_ack(ack)
        elif ack == self.snd_una and self.snd_nxt > self.snd_una:
            self._on_dupack()
        if self.snd_una >= self.size and not self.term_sent:
            self._finish()
        else:
            self._pump()

    def _on_new_ack(self, ack: int) -> None:
        acked_packets = (ack - self.snd_una) / self.payload
        self.snd_una = ack
        self._backoff = 1.0
        self.dupacks = 0
        if self.in_recovery:
            if ack >= self.recover_point:
                self.cwnd = self.ssthresh  # full ACK: deflate
                self.in_recovery = False
            else:
                # NewReno partial ACK: retransmit the next hole
                self._send_segment(self.snd_una, retransmit=True)
                self.cwnd = max(self.cwnd - acked_packets + 1, 1.0)
        elif self.cwnd < self.ssthresh:
            self.cwnd += acked_packets  # slow start
        else:
            self.cwnd += acked_packets / self.cwnd  # congestion avoidance
        # restart-in-place: on almost every new ACK the fresh expiry sits
        # at or past the old one, so the lazy push-back path leaves the
        # event heap untouched (one push per RTO burst, not per ACK)
        if self.snd_nxt > self.snd_una:
            self._rto_timer.start(self.rtt.rto() * self._backoff)
        else:
            self._rto_timer.cancel()

    def _on_dupack(self) -> None:
        self.dupacks += 1
        if self.in_recovery:
            self.cwnd += 1.0  # inflate during recovery
        elif self.dupacks == self.DUPACK_THRESHOLD:
            self.ssthresh = max(self.flight_packets / 2.0, 2.0)
            self.cwnd = self.ssthresh + 3.0
            self.in_recovery = True
            self.recover_point = self.snd_nxt
            self._send_segment(self.snd_una, retransmit=True)

    # -- timeout --------------------------------------------------------------------------------

    def _on_rto(self) -> None:
        if self.closed:
            return
        if not self.handshake_done:
            self._send_control(PacketKind.SYN)
            self._backoff = min(self._backoff * 2.0, self.MAX_BACKOFF)
            self._rto_timer.start(self.rtt.rto() * self._backoff)
            return
        if self.snd_una >= self.size:
            return
        self.ssthresh = max(self.flight_packets / 2.0, 2.0)
        self.cwnd = 1.0
        self.dupacks = 0
        self.in_recovery = False
        self.snd_nxt = self.snd_una  # go-back-N from the hole
        self._backoff = min(self._backoff * 2.0, self.MAX_BACKOFF)
        self._send_segment(self.snd_una, retransmit=True)
        self.snd_nxt = min(self.size, self.snd_una + self.payload)
        self._rto_timer.start(self.rtt.rto() * self._backoff)

    # -- teardown ----------------------------------------------------------------------------------

    def _finish(self) -> None:
        self.term_sent = True
        self._rto_timer.cancel()
        self._send_control(PacketKind.TERM)
        self._close_timer.start(4.0 * self.rtt.rto())


class TcpReceiver(AckingReceiver):
    """Cumulative-ACK receiver."""

    def __init__(self, network, stack, spec, record, rev_path, host):
        super().__init__(network, stack, spec, record, rev_path, host)
        self._got: set[int] = set()
        self._cum = 0  # next expected byte

    # repro: hot
    def _on_data(self, packet: Packet) -> None:
        if packet.seq not in self._got:
            self._got.add(packet.seq)
            self.bytes_received += packet.payload
            self.net.metrics.on_bytes(self.spec.fid, packet.payload)
            if not self.complete and self.bytes_received >= self.spec.size_bytes:
                self.complete = True
                self.net.metrics.on_complete(self.spec.fid, self.sim.now)
        # advance the cumulative pointer over contiguous data (segments are
        # always cut on the payload grid, so offsets line up exactly)
        while self._cum in self._got:
            self._cum += self._payload_at(self._cum)
        self._reply(packet, PacketKind.ACK, ack_range=None)

    def _payload_at(self, offset: int) -> int:
        return min(self.stack.payload_bytes, self.spec.size_bytes - offset)

    # repro: hot
    def _reply(self, packet: Packet, kind: PacketKind, ack_range=None) -> None:
        ack = Packet(
            self.spec.fid, self.host.id, self.src_id,
            kind, self.stack.ack_bytes,
            ack_seq=self._cum, echo_time=packet.echo_time, path=self.path,
        )
        self.host.send(ack)


class TcpStack(ProtocolStack):
    """TCP Reno endpoints; switches need no protocol state."""

    name = "TCP"
    header_bytes = 40
    ack_bytes = 40

    def make_endpoints(self, network, spec, record, fwd_path, rev_path):
        src_host = network.host(spec.src)
        dst_host = network.host(spec.dst)
        sender = TcpSender(network, self, spec, record, fwd_path, src_host)
        receiver = TcpReceiver(network, self, spec, record, rev_path, dst_host)
        src_host.register_sender(spec.fid, sender)
        dst_host.register_receiver(spec.fid, receiver)
        return sender, receiver
