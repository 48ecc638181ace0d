"""TCP Reno baseline (paper §5.1).

Window-based loss-driven congestion control: slow start, congestion
avoidance, fast retransmit / fast recovery (NewReno-style partial-ACK
handling), and exponential-backoff retransmission timeouts. Per the paper,
RTOmin is set small (the standard mitigation for the incast problem in
data centers, following Vasudevan et al.).

Switches are dumb for TCP: no switch protocol is attached.

The per-packet path is flat: an ACK is handled in one frame
(:meth:`TcpSender.on_packet`, with the RFC 6298 update and the RTO
written out), new data leaves through
:meth:`TcpSender._pump` and one :meth:`TcpSender._send_segment` frame per
segment, and a DATA packet is consumed and acknowledged in
:meth:`TcpReceiver.on_packet`. Every float operation keeps the operands
and order of the helpers it replaces, so simulated output is unchanged.
"""

from __future__ import annotations


from repro.events.timers import Timer
from repro.net.packet import Packet, PacketKind
from repro.transport.base import AckingReceiver, EndpointBase, ProtocolStack
from repro.utils.ewma import RttEstimator

# module constants: an enum member read costs a class attribute lookup
_SYN = PacketKind.SYN
_SYN_ACK = PacketKind.SYN_ACK
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK
_PROBE = PacketKind.PROBE
_TERM = PacketKind.TERM
_TERM_ACK = PacketKind.TERM_ACK


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
        self.fid = spec.fid
        self.src_id = host.id
        self.dst_id = network.node(spec.dst).id
        self.header_bytes = stack.header_bytes
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

        self.rtt = RttEstimator(
            rto_min=network.config.rto_min,
            initial_rtt=network.estimate_rtt(fwd_path),
        )
        self._rto_timer = Timer(self.sim, self._on_rto)
        self._close_timer = Timer(self.sim, self._close)

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> None:
        self.record.start_time = self.sim.now
        self._send_control(_SYN)
        self._rto_timer.start(self.rtt.rto())

    def _close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._rto_timer.cancel()
        self._close_timer.cancel()
        self.host.unregister_sender(self.fid)

    # -- window math -------------------------------------------------------------------

    @property
    def flight_packets(self) -> float:
        return (self.snd_nxt - self.snd_una) / self.payload

    # -- emission ------------------------------------------------------------------------

    def _send_control(self, kind: PacketKind) -> None:
        packet = Packet(
            self.fid, self.src_id, self.dst_id,
            kind, self.header_bytes,
            echo_time=self.sim.now, path=self.path,
        )
        self.host.send(packet)

    def _send_segment(self, offset: int, echo_time: float) -> None:
        """Send the segment starting at ``offset``. ``echo_time`` is the
        send time for new data and -1.0 for a retransmission (Karn's
        rule: its ACK carries no RTT sample)."""
        rest = self.size - offset
        payload = self.payload
        chunk = rest if rest < payload else payload  # min(payload, rest)
        if chunk <= 0:
            return
        if echo_time < 0.0:
            self.net.metrics.on_retransmit(self.fid)
        self.host.send(Packet(
            self.fid, self.src_id, self.dst_id, _DATA,
            chunk + self.header_bytes, offset, chunk, None, 0, None,
            echo_time, self.path,
        ))
        timer = self._rto_timer
        if timer.expiry is None:
            timer.start(self.rtt.rto() * self._backoff)

    def _pump(self) -> None:
        """Send as much new data as the window allows."""
        if not self.handshake_done or self.term_sent:
            return
        # nothing a send does reaches back into this sender, so the
        # window test needs only the local cursor
        size = self.size
        payload = self.payload
        snd_una = self.snd_una
        cwnd = self.cwnd
        nxt = self.snd_nxt
        now = self.sim.now
        while nxt < size and (nxt - snd_una) / payload < cwnd:
            self._send_segment(nxt, now)
            end = nxt + payload
            nxt = end if end < size else size  # min(size, end)
            self.snd_nxt = nxt

    # -- inbound -----------------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        if self.closed:
            return
        kind = packet.kind
        if kind == _ACK:
            now = self.sim.now
            ack = packet.ack_seq
            rtt = self.rtt
            echo = packet.echo_time
            if echo >= 0:
                # RFC 6298 update (RttEstimator.update)
                sample = now - echo
                if sample < 0:
                    raise ValueError(f"negative RTT sample {sample}")
                srtt = rtt.srtt
                if srtt is None:
                    rtt.srtt = sample
                    rtt.rttvar = sample / 2.0
                else:
                    diff = srtt - sample
                    if diff < 0:
                        diff = -diff  # abs()
                    rtt.rttvar = 0.75 * rtt.rttvar + 0.25 * diff
                    rtt.srtt = 0.875 * srtt + 0.125 * sample
            snd_una = self.snd_una
            if ack > snd_una:
                acked_packets = (ack - snd_una) / self.payload
                self.snd_una = snd_una = ack
                self._backoff = 1.0
                self.dupacks = 0
                if self.in_recovery:
                    if ack >= self.recover_point:
                        self.cwnd = self.ssthresh  # full ACK: deflate
                        self.in_recovery = False
                    else:
                        # NewReno partial ACK: retransmit the next hole
                        self._send_segment(snd_una, -1.0)
                        self.cwnd = max(self.cwnd - acked_packets + 1, 1.0)
                elif self.cwnd < self.ssthresh:
                    self.cwnd += acked_packets  # slow start
                else:
                    self.cwnd += acked_packets / self.cwnd  # congestion avoidance
                timer = self._rto_timer
                if self.snd_nxt > snd_una:
                    # rtt.rto() * _backoff, and _backoff is 1.0 here; the
                    # min/max are written out in the builtins' operand order
                    srtt = rtt.srtt
                    if srtt is None:
                        delay = rtt.rto_max
                    else:
                        var = 4.0 * rtt.rttvar
                        if 1e-6 > var:
                            var = 1e-6
                        delay = srtt + var
                        if not delay > rtt.rto_min:
                            delay = rtt.rto_min
                        if not delay < rtt.rto_max:
                            delay = rtt.rto_max
                    timer.start(delay)
                else:
                    timer.cancel()
            elif ack == snd_una and self.snd_nxt > snd_una:
                self._on_dupack()
            if self.snd_una >= self.size and not self.term_sent:
                self._finish()
            else:
                self._pump()
        elif kind == _SYN_ACK:
            if not self.handshake_done:
                self.handshake_done = True
                if packet.echo_time >= 0:
                    self.rtt.update(self.sim.now - packet.echo_time)
                self._backoff = 1.0
                self._rto_timer.cancel()
                self._pump()
        elif kind == _TERM_ACK:
            self._close()

    def _on_dupack(self) -> None:
        self.dupacks += 1
        if self.in_recovery:
            self.cwnd += 1.0  # inflate during recovery
        elif self.dupacks == self.DUPACK_THRESHOLD:
            self.ssthresh = max(self.flight_packets / 2.0, 2.0)
            self.cwnd = self.ssthresh + 3.0
            self.in_recovery = True
            self.recover_point = self.snd_nxt
            self._send_segment(self.snd_una, -1.0)

    # -- timeout --------------------------------------------------------------------------------

    def _on_rto(self) -> None:
        if self.closed:
            return
        if not self.handshake_done:
            self._send_control(_SYN)
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
        self._send_segment(self.snd_una, -1.0)
        self.snd_nxt = min(self.size, self.snd_una + self.payload)
        self._rto_timer.start(self.rtt.rto() * self._backoff)

    # -- teardown ----------------------------------------------------------------------------------

    def _finish(self) -> None:
        self.term_sent = True
        self._rto_timer.cancel()
        self._send_control(_TERM)
        self._close_timer.start(4.0 * self.rtt.rto())


class TcpReceiver(AckingReceiver):
    """Cumulative-ACK receiver.

    ``_cum`` is the next expected byte; ``_got`` holds only the offsets
    received out of order above it, so its size is bounded by the
    reordering window, not by the flow. A segment below ``_cum`` is a
    duplicate.
    """

    def __init__(self, network, stack, spec, record, rev_path, host):
        super().__init__(network, stack, spec, record, rev_path, host)
        self.fid = spec.fid
        self.size = spec.size_bytes
        self.payload = stack.payload_bytes
        self.ack_bytes = stack.ack_bytes
        self._got: set[int] = set()
        self._cum = 0  # next expected byte

    def on_packet(self, packet: Packet) -> None:
        kind = packet.kind
        if kind == _DATA:
            seq = packet.seq
            cum = self._cum
            got = self._got
            if seq >= cum and seq not in got:
                got.add(seq)
                payload = packet.payload
                self.bytes_received += payload
                metrics = self.net.metrics
                metrics.on_bytes(self.fid, payload)
                if not self.complete and self.bytes_received >= self.size:
                    self.complete = True
                    metrics.on_complete(self.fid, self.sim.now)
                # advance the cumulative pointer over contiguous data
                # (segments are always cut on the payload grid, so offsets
                # line up exactly), dropping each offset it passes
                size = self.size
                grid = self.payload
                while cum in got:
                    got.discard(cum)
                    rest = size - cum
                    cum += rest if rest < grid else grid  # min(grid, rest)
                self._cum = cum
            reply = _ACK
        elif kind == _SYN:
            reply = _SYN_ACK
        elif kind == _TERM:
            reply = _TERM_ACK
        elif kind == _PROBE:
            reply = _ACK
        else:
            return
        host = self.host
        host.send(Packet(
            self.fid, host.id, self.src_id, reply, self.ack_bytes,
            0, 0, None, self._cum, None, packet.echo_time, self.path,
        ))
        if reply == _TERM_ACK:
            host.unregister_receiver(self.fid)
            self.closed = True


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
