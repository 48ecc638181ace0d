"""Shared transport machinery.

PDQ, RCP and D3 are all *explicit-rate* transports: switches tell senders how
fast to send, senders pace packets at that rate, receivers acknowledge each
data packet, and a timeout recovers losses. :class:`RateBasedSender` and
:class:`AckingReceiver` implement everything common; each protocol subclasses
and provides the scheduling-header handling.

TCP (window-based) has its own sender in :mod:`repro.transport.tcp`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.errors import ProtocolError
from repro.events.timers import Timer
from repro.net.packet import Packet, PacketKind
from repro.units import BITS_PER_BYTE
from repro.utils.ewma import RttEstimator

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.records import FlowRecord
    from repro.net.network import Network
    from repro.workload.flow import FlowSpec

# module constants: an enum member read costs a class attribute lookup
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK


class ProtocolStack(abc.ABC):
    """Factory bundle describing one transport protocol.

    ``header_bytes`` is the per-packet wire overhead (TCP/IP plus any
    scheduling header); ``mtu`` caps the wire size of a data packet, so the
    payload per packet is ``mtu - header_bytes``.
    """

    name: str = "base"
    header_bytes: int = 40
    ack_bytes: int = 40
    mtu: int = 1500

    @property
    def payload_bytes(self) -> int:
        return self.mtu - self.header_bytes

    def make_switch_protocol(self, network: "Network", switch) -> object | None:
        """Per-switch protocol instance, or None for dumb switches."""
        return None

    @abc.abstractmethod
    def make_endpoints(self, network: "Network", spec: "FlowSpec",
                       record: "FlowRecord", fwd_path, rev_path):
        """Return (sender, receiver) endpoints for one flow."""


class EndpointBase:
    """State common to both halves of a flow."""

    def __init__(self, network: "Network", stack: ProtocolStack,
                 spec: "FlowSpec", record: "FlowRecord", path):
        self.net = network
        self.sim = network.sim
        self.stack = stack
        self.spec = spec
        self.record = record
        self.path = path
        self.closed = False

    def reroute(self, forward, reverse) -> None:
        """Re-pin a sender onto ``forward`` and its receiver onto the
        exact ``reverse`` (the fault controller's reroute of a live
        flow)."""
        self.path = forward
        receiver = self.net.host(self.spec.dst).receivers.get(self.spec.fid)
        if receiver is not None:
            receiver.path = reverse


class RateBasedSender(EndpointBase):
    """Paced sender with SYN handshake, selective per-packet ACKs, RTO
    retransmission and a TERM/TERM-ACK close.

    Subclass hooks:

    * :meth:`make_sched_header` -- scheduling header for outgoing packets.
    * :meth:`process_feedback` -- absorb the header returned in any
      reverse-path packet (sets ``self.rate`` and protocol state).
    * :meth:`on_rate_change` -- react after feedback (e.g. start probing).
    * :meth:`check_early_termination` -- PDQ's §3.1 heuristic.
    """

    #: how many RTOs of silence close a flow that lost its TERM-ACK
    CLOSE_TIMEOUT_RTOS = 4.0

    def __init__(self, network, stack, spec, record, fwd_path, host):
        super().__init__(network, stack, spec, record, fwd_path)
        self.host = host
        self.dst_id = network.node(spec.dst).id
        self.nic_rate = fwd_path[0].rate_bps
        self.max_rate = min(self.nic_rate, network.receiver_rate_limit(spec.dst))
        self.rate: float = 0.0

        self.payload = stack.payload_bytes
        self.size = spec.size_bytes
        self.next_offset = 0
        self.unacked: dict[int, float] = {}  # offset -> last send time
        self.resend: list[int] = []
        self._resend_set: set[int] = set()
        self.bytes_acked = 0

        initial_rtt = network.estimate_rtt(fwd_path)
        self.rtt = RttEstimator(
            rto_min=network.config.rto_min, initial_rtt=initial_rtt
        )
        self.handshake_done = False
        self.term_sent = False

        self._send_timer = Timer(self.sim, self._emit)
        self._rto_timer = Timer(self.sim, self._on_rto)
        self._close_timer = Timer(self.sim, self._close)
        self._last_emit = -float("inf")
        self._backoff = 1.0
        # hole-driven fast retransmit: per-packet selective ACKs let the
        # sender spot a missing offset after a few later ACKs instead of
        # waiting a full RTO (PDQ's loss resilience, Fig 9, leans on this)
        self._dup_hints: dict[int, int] = {}
        self.dupack_threshold = 3

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        self.record.start_time = self.sim.now
        self._send_control(PacketKind.SYN)
        self._rto_timer.start(self.rtt.rto())

    def _close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._send_timer.cancel()
        self._rto_timer.cancel()
        self._close_timer.cancel()
        self.host.unregister_sender(self.spec.fid)
        self.on_close()

    def on_close(self) -> None:
        """Subclass hook (e.g. M-PDQ coordinator notification)."""

    def terminate(self, reason: str) -> None:
        """Early termination: give up on the flow and tell the network."""
        if self.closed or self.term_sent:
            return
        self.net.metrics.on_terminated(self.spec.fid, self.sim.now, reason)
        self._halt_transmission()
        self._send_control(PacketKind.TERM)
        self.term_sent = True
        self._close_timer.start(self.CLOSE_TIMEOUT_RTOS * self.rtt.rto())

    def _halt_transmission(self) -> None:
        """Stop emitting data permanently (a sender must never transmit
        after its TERM -- it would re-create switch state the TERM just
        cleaned up and wedge the link until entry expiry)."""
        self._send_timer.cancel()
        self._rto_timer.cancel()
        self.resend.clear()
        self._resend_set.clear()
        self.rate = 0.0

    # -- subclass hooks ---------------------------------------------------------------

    def make_sched_header(self, kind: PacketKind):
        return None

    def process_feedback(self, packet: Packet) -> None:
        """Default: adopt the rate field if the header has one."""

    def on_rate_change(self) -> None:
        pass

    def check_early_termination(self) -> bool:
        return False

    # -- sending -----------------------------------------------------------------------

    @property
    def remaining_payload(self) -> int:
        return self.size - self.bytes_acked

    @property
    def wire_remaining(self) -> float:
        """Remaining bytes including per-packet header overhead."""
        remaining = self.size - self.bytes_acked
        packets_left = -(-remaining // self.payload)
        return remaining + packets_left * self.stack.header_bytes

    def expected_tx_time(self) -> float:
        """T_S: remaining transmission time at the maximal rate (§3.1)."""
        if self.max_rate <= 0:
            raise ProtocolError("sender has no usable rate")
        return self.wire_remaining * 8.0 / self.max_rate

    def _send_control(self, kind: PacketKind) -> None:
        packet = Packet(
            self.spec.fid,
            self.host.id,
            self.dst_id,
            kind,
            self.stack.header_bytes,
            sched=self.make_sched_header(kind),
            echo_time=self.sim.now,
            path=self.path,
        )
        self.host.send(packet)

    def set_rate(self, rate: float) -> None:
        rate = rate if rate > 0.0 else 0.0  # max(0.0, rate)
        self.rate = rate
        tracer = self.net.metrics.tracer
        if tracer is not None:
            tracer.on_rate(self.spec.fid, self.sim.now, rate)
        if rate > 0:
            self._schedule_send()
        else:
            self._send_timer.cancel()
        self.on_rate_change()

    def _pending_data(self) -> bool:
        return bool(self.resend) or self.next_offset < self.size

    def _schedule_send(self) -> None:
        if self.closed or self.term_sent or not self.handshake_done:
            return
        rate = self.rate
        if rate <= 0:
            return
        if not self.resend and self.next_offset >= self.size:
            return  # nothing pending
        timer = self._send_timer
        if timer.expiry is not None:
            return
        # pace one MTU apart: tx_time(mtu, rate), and the later of now and
        # that gap after the last emission
        at = self._last_emit + self.stack.mtu * BITS_PER_BYTE / rate
        now = self.sim.now
        if not at > now:
            at = now
        timer.start(at - now)

    def _emit(self) -> None:
        if self.closed or self.term_sent or self.rate <= 0:
            return
        # retransmissions first, then new data
        unacked = self.unacked
        resend = self.resend
        payload = self.payload
        size = self.size
        while resend:
            offset = resend.pop(0)
            self._resend_set.discard(offset)
            if offset in unacked:  # still outstanding
                break
        else:
            offset = self.next_offset
            if offset >= size:
                return
            end = offset + payload
            self.next_offset = end if end < size else size
        rest = size - offset
        chunk = rest if rest < payload else payload
        if offset in unacked:
            self.net.metrics.on_retransmit(self.spec.fid)
        now = self.sim.now
        packet = Packet(
            self.spec.fid,
            self.host.id,
            self.dst_id,
            _DATA,
            chunk + self.stack.header_bytes,
            seq=offset,
            payload=chunk,
            sched=self.make_sched_header(_DATA),
            echo_time=now,
            path=self.path,
        )
        unacked[offset] = now
        self._last_emit = now
        self.host.send(packet)
        rto_timer = self._rto_timer
        if rto_timer.expiry is None:
            rto_timer.start(self.rtt.rto() * self._backoff)
        self._schedule_send()

    # -- receiving feedback -----------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        if self.closed:
            return
        if packet.kind == PacketKind.SYN_ACK:
            self._on_syn_ack(packet)
        elif packet.kind == PacketKind.ACK:
            self._on_ack(packet)
        elif packet.kind == PacketKind.TERM_ACK:
            self._close()

    def _on_syn_ack(self, packet: Packet) -> None:
        if packet.echo_time >= 0:
            self.rtt.update(self.sim.now - packet.echo_time)
        first_handshake = not self.handshake_done
        self.handshake_done = True
        self.process_feedback(packet)
        if first_handshake:
            self._backoff = 1.0
            if self.unacked:
                self._rto_timer.start(self.rtt.rto())
            else:
                self._rto_timer.cancel()
        if self.check_early_termination():
            return
        self._schedule_send()

    def _on_ack(self, packet: Packet) -> None:
        if packet.echo_time >= 0:
            self.rtt.update(self.sim.now - packet.echo_time)
            self._backoff = 1.0
        ack_range = packet.ack_range
        if ack_range is not None:
            start, end = ack_range
            unacked = self.unacked
            if start in unacked:
                del unacked[start]
                self.bytes_acked += end - start
            self._dup_hints.pop(start, None)
            if unacked:
                oldest = min(unacked)
                if start > oldest:
                    self._detect_hole(oldest)
        self.process_feedback(packet)
        if self.check_early_termination():
            return
        if self.bytes_acked >= self.size and not self.term_sent:
            self._finish()
            return
        self._schedule_send()

    def _finish(self) -> None:
        """All data acknowledged: send TERM (the flow's last packet)."""
        self._halt_transmission()
        self.term_sent = True
        self._send_control(PacketKind.TERM)
        self._close_timer.start(self.CLOSE_TIMEOUT_RTOS * self.rtt.rto())

    # -- loss recovery ---------------------------------------------------------------------

    def _detect_hole(self, oldest: int) -> None:
        """An ACK arrived for an offset above ``oldest``, the oldest
        outstanding packet. If such ACKs keep arriving, that packet is a
        hole: retransmit it without waiting for the RTO."""
        hints = self._dup_hints.get(oldest, 0) + 1
        if hints >= self.dupack_threshold:
            self._dup_hints.pop(oldest, None)
            if oldest not in self._resend_set:
                self.resend.insert(0, oldest)
                self._resend_set.add(oldest)
                self._schedule_send()
        else:
            self._dup_hints[oldest] = hints

    def _on_rto(self) -> None:
        if self.closed:
            return
        if not self.handshake_done:
            self._send_control(PacketKind.SYN)  # SYN lost; try again
            self._backoff = min(self._backoff * 2, 64.0)
            self._rto_timer.start(self.rtt.rto() * self._backoff)
            return
        now = self.sim.now
        timeout = self.rtt.rto() * self._backoff
        expired = [
            offset
            for offset, sent in self.unacked.items()
            if now - sent >= timeout and offset not in self._resend_set
        ]
        for offset in sorted(expired):
            self.resend.append(offset)
            self._resend_set.add(offset)
        if expired:
            self._backoff = min(self._backoff * 2, 64.0)
        if self.unacked or self._pending_data():
            self._rto_timer.start(self.rtt.rto() * self._backoff)
            self._schedule_send()


class AckingReceiver(EndpointBase):
    """Receiver that acknowledges every packet and tracks payload delivery.

    Subclass hook :meth:`make_ack_header` transforms the scheduling header on
    its way back (PDQ receivers copy it, clamping the rate to what the
    receiver can handle, §3.2).
    """

    def __init__(self, network, stack, spec, record, rev_path, host):
        super().__init__(network, stack, spec, record, rev_path)
        self.host = host
        self.src_id = network.node(spec.src).id
        self.received: set[int] = set()
        self.bytes_received = 0
        self.complete = False

    # -- subclass hooks ----------------------------------------------------------

    def make_ack_header(self, packet: Packet):
        """Default: echo the scheduling header object back unchanged."""
        return packet.sched

    # -- packet handling ------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        if packet.kind == PacketKind.SYN:
            self._reply(packet, PacketKind.SYN_ACK)
        elif packet.kind == PacketKind.DATA:
            self._on_data(packet)
        elif packet.kind == PacketKind.PROBE:
            self._reply(packet, PacketKind.ACK)
        elif packet.kind == PacketKind.TERM:
            self._reply(packet, PacketKind.TERM_ACK)
            self.host.unregister_receiver(self.spec.fid)
            self.closed = True

    def _on_data(self, packet: Packet) -> None:
        seq = packet.seq
        payload = packet.payload
        received = self.received
        if seq not in received:
            received.add(seq)
            self.bytes_received += payload
            metrics = self.net.metrics
            metrics.on_bytes(self.spec.fid, payload)
            if not self.complete and self.bytes_received >= self.spec.size_bytes:
                self.complete = True
                metrics.on_complete(self.spec.fid, self.sim.now)
                self.on_complete()
        self._reply(packet, _ACK, (seq, seq + payload))

    def on_complete(self) -> None:
        """Subclass hook (e.g. M-PDQ resequencing notification)."""

    def _reply(self, packet: Packet, kind: PacketKind, ack_range=None) -> None:
        ack = Packet(
            self.spec.fid,
            self.host.id,
            self.src_id,
            kind,
            self.stack.ack_bytes,
            sched=self.make_ack_header(packet),
            ack_range=ack_range,
            echo_time=packet.echo_time,
            path=self.path,
        )
        self.host.send(ack)
