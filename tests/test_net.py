"""Tests for the packet-level network substrate: queues, links, nodes."""

import pytest

from repro.events import Simulator
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import Packet, PacketKind
from repro.net.queues import DropTailQueue
from repro.units import GBPS, USEC
from repro.utils.rng import spawn_rng


def _packet(size=1500, fid=0, kind=PacketKind.DATA):
    return Packet(fid=fid, src=0, dst=1, kind=kind, size=size,
                  payload=min(size, 1444))


class TestDropTailQueue:
    def test_fifo_order(self):
        q = DropTailQueue(10_000)
        a, b = _packet(), _packet()
        q.offer(a)
        q.offer(b)
        assert q.pop() is a
        assert q.pop() is b
        assert q.pop() is None

    def test_tail_drop_when_full(self):
        q = DropTailQueue(2000)
        assert q.offer(_packet(1500))
        assert not q.offer(_packet(1500))
        assert q.drops == 1
        assert q.dropped_bytes == 1500

    def test_byte_accounting(self):
        q = DropTailQueue(10_000)
        q.offer(_packet(1500))
        q.offer(_packet(500))
        assert q.bytes == 2000
        q.pop()
        assert q.bytes == 500

    def test_peak_tracking(self):
        q = DropTailQueue(10_000)
        q.offer(_packet(1500))
        q.offer(_packet(1500))
        q.pop()
        q.pop()
        assert q.peak_bytes == 3000

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)


class _Sink(Host):
    """Host that records arrivals."""

    def __init__(self, sim, node_id, name):
        super().__init__(sim, node_id, name, processing_delay=25 * USEC)
        self.arrived = []

    def receive(self, packet, in_link):
        self.arrived.append((self.sim.now, packet))


class TestLink:
    def _make(self, rate=1 * GBPS, prop=0.1 * USEC, buffer=4_000_000):
        sim = Simulator()
        src = _Sink(sim, 0, "src")
        dst = _Sink(sim, 1, "dst")
        link = Link(sim, src, dst, rate, prop, buffer, link_id=0)
        return sim, link, dst

    def test_transmission_delay(self):
        sim, link, dst = self._make()
        link.enqueue(_packet(1500))
        sim.run()
        # 1500B at 1Gbps = 12us tx + 0.1us prop + 25us processing
        assert dst.arrived[0][0] == pytest.approx(37.1e-6, rel=1e-6)

    def test_serialization_back_to_back(self):
        sim, link, dst = self._make()
        link.enqueue(_packet(1500))
        link.enqueue(_packet(1500))
        sim.run()
        gap = dst.arrived[1][0] - dst.arrived[0][0]
        assert gap == pytest.approx(12e-6, rel=1e-6)

    def test_buffer_overflow_drops(self):
        sim, link, dst = self._make(buffer=3000)
        results = [link.enqueue(_packet(1500)) for _ in range(4)]
        # first starts transmitting immediately (leaves the queue), so the
        # buffer holds two more; the fourth drops
        assert results == [True, True, True, False]
        sim.run()
        assert len(dst.arrived) == 3
        assert link.queue.drops == 1

    def test_busy_time_accounting(self):
        sim, link, dst = self._make()
        for _ in range(3):
            link.enqueue(_packet(1500))
        sim.run()
        assert link.busy_time == pytest.approx(36e-6, rel=1e-6)
        assert link.bytes_sent == 4500
        assert link.packets_sent == 3

    def test_busy_time_prorated_mid_transmission(self):
        """Regression: busy time used to be charged in full when a
        transmission *started*, so a window ending mid-transmission
        overcounted (utilization > 1). It now accrues as it elapses."""
        sim, link, dst = self._make()  # 1500B at 1Gbps = 12us tx
        link.enqueue(_packet(1500))
        sim.run(until=6e-6)  # halfway through the transmission
        assert link.busy_time == pytest.approx(6e-6, rel=1e-6)
        sim.run()
        assert link.busy_time == pytest.approx(12e-6, rel=1e-6)

    def test_windowed_utilization_never_exceeds_one(self):
        sim, link, dst = self._make()
        for _ in range(4):
            link.enqueue(_packet(1500))
        snapshots = [(0.0, 0.0)]
        # sample every 5us: windows cut transmissions at arbitrary points
        for k in range(1, 12):
            sim.run(until=k * 5e-6)
            snapshots.append((sim.now, link.busy_time))
        # every multi-sample window is bounded too, and busy is monotone
        for (t0, b0) in snapshots:
            for (t1, b1) in snapshots:
                if t1 <= t0:
                    continue
                assert b1 >= b0 - 1e-15
                assert 0.0 <= (b1 - b0) / (t1 - t0) <= 1.0 + 1e-9

    def test_busy_time_idle_gap_not_charged(self):
        sim, link, dst = self._make()
        link.enqueue(_packet(1500))
        sim.run()  # transmission done at 12us (plus delivery events)
        resume = sim.now
        sim.schedule_at(resume + 100e-6,
                        lambda: link.enqueue(_packet(1500)))
        sim.run()
        assert link.busy_time == pytest.approx(24e-6, rel=1e-6)

    def test_wire_loss_drops_packets(self):
        sim, link, dst = self._make()
        link.set_loss(1.0, spawn_rng(1))
        link.enqueue(_packet())
        sim.run()
        assert dst.arrived == []
        assert link.wire_losses == 1

    def test_loss_rate_statistics(self):
        sim, link, dst = self._make()
        link.set_loss(0.3, spawn_rng(7))
        for _ in range(1000):
            link.enqueue(_packet())
        sim.run()
        assert 0.2 < link.wire_losses / 1000 < 0.4

    def test_invalid_loss_rate(self):
        _, link, _ = self._make()
        with pytest.raises(ValueError):
            link.set_loss(1.5, spawn_rng(1))

    def test_rejects_nonpositive_rate(self):
        sim = Simulator()
        a, b = _Sink(sim, 0, "a"), _Sink(sim, 1, "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, 0.0, 0.0, 1000, 0)


class TestHostDispatch:
    def test_data_goes_to_receiver_endpoint(self):
        sim = Simulator()
        host = Host(sim, 0, "h", processing_delay=0.0)
        seen = []

        class Endpoint:
            def on_packet(self, p):
                seen.append(p.kind)

        host.register_receiver(1, Endpoint())
        host.register_sender(1, Endpoint())
        pkt = Packet(fid=1, src=9, dst=0, kind=PacketKind.DATA, size=100)
        host.receive(pkt, None)
        assert seen == [PacketKind.DATA]

    def test_ack_goes_to_sender_endpoint(self):
        sim = Simulator()
        host = Host(sim, 0, "h", processing_delay=0.0)
        seen = []

        class Endpoint:
            def on_packet(self, p):
                seen.append(p.kind)

        host.register_sender(1, Endpoint())
        pkt = Packet(fid=1, src=9, dst=0, kind=PacketKind.ACK, size=100)
        host.receive(pkt, None)
        assert seen == [PacketKind.ACK]

    def test_stray_packet_counted(self):
        sim = Simulator()
        host = Host(sim, 0, "h", processing_delay=0.0)
        pkt = Packet(fid=1, src=9, dst=0, kind=PacketKind.ACK, size=100)
        host.receive(pkt, None)
        assert host.stray_packets == 1

    def test_duplicate_registration_rejected(self):
        from repro.errors import ProtocolError

        host = Host(Simulator(), 0, "h", processing_delay=0.0)

        class Endpoint:
            def on_packet(self, p):
                pass

        host.register_sender(1, Endpoint())
        with pytest.raises(ProtocolError):
            host.register_sender(1, Endpoint())


class TestPacketValidation:
    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            Packet(fid=0, src=0, dst=1, kind=PacketKind.DATA, size=0)

    def test_rejects_payload_over_size(self):
        with pytest.raises(ValueError):
            Packet(fid=0, src=0, dst=1, kind=PacketKind.DATA, size=100,
                   payload=200)
