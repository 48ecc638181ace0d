"""Tests for the FIFO tail-drop queue and the link's drop paths.

``DropTailQueue`` must behave exactly like the obvious deque-backed
queue below (same FIFO order, drop decisions and byte counters), an
idle link's inline accounting must equal ``offer`` + ``pop``, and every
packet a link drops — tail-drop or wire loss — must be counted once and
left with nothing holding it.
"""

from collections import deque

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


class _DequeRefQueue:
    """A deliberately plain byte-bounded FIFO, the parity oracle."""

    def __init__(self, capacity_bytes):
        self.capacity_bytes = capacity_bytes
        self._q = deque()
        self._bytes = 0
        self.drops = 0
        self.dropped_bytes = 0
        self.peak_bytes = 0

    def __len__(self):
        return len(self._q)

    @property
    def bytes(self):
        return self._bytes

    def offer(self, packet):
        if self._bytes + packet.size > self.capacity_bytes:
            self.drops += 1
            self.dropped_bytes += packet.size
            return False
        self._q.append(packet)
        self._bytes += packet.size
        self.peak_bytes = max(self.peak_bytes, self._bytes)
        return True

    def pop(self):
        if not self._q:
            return None
        packet = self._q.popleft()
        self._bytes -= packet.size
        return packet


def _assert_same_state(queue, ref):
    assert len(queue) == len(ref)
    assert queue.bytes == ref.bytes
    assert queue.drops == ref.drops
    assert queue.dropped_bytes == ref.dropped_bytes
    assert queue.peak_bytes == ref.peak_bytes


class TestDropTailQueue:
    def test_randomized_offer_pop_parity(self):
        rng = spawn_rng(20120813, "test:queue_parity")
        queue = DropTailQueue(20_000)
        ref = _DequeRefQueue(20_000)
        for _ in range(5000):
            if rng.random() < 0.6:
                p = _packet(size=int(rng.integers(40, 3000)))
                assert queue.offer(p) == ref.offer(p)
            else:
                assert queue.pop() is ref.pop()
            _assert_same_state(queue, ref)
        while len(ref):
            assert queue.pop() is ref.pop()
        assert queue.pop() is None and ref.pop() is None

    def test_tail_drop_under_loss_pressure(self):
        queue = DropTailQueue(4000)
        ref = _DequeRefQueue(4000)
        for i in range(10):
            p = _packet(size=1500, fid=i)
            assert queue.offer(p) == ref.offer(p)
        _assert_same_state(queue, ref)
        assert queue.drops == 8  # two fit, eight tail-dropped

    def test_idle_link_enqueue_matches_offer_then_pop(self):
        # a packet reaching an idle link starts transmitting without
        # entering the deque: Link.enqueue must make the same drop
        # decision and counter updates as offer() + pop() on the queue
        sim = Simulator()
        src = Host(sim, 0, "src", processing_delay=0.0)
        dst = Host(sim, 1, "dst", processing_delay=0.0)
        link = Link(sim, src, dst, 1 * GBPS, 0.1 * USEC,
                    buffer_bytes=4000, link_id=0)
        ref = _DequeRefQueue(4000)

        first = _packet(size=2000)  # idle: starts at once
        assert link.enqueue(first) and ref.offer(first)
        assert ref.pop() is first
        _assert_same_state(link.queue, ref)
        assert link.queue.peak_bytes == 2000
        waiting = _packet(size=1500)  # busy: waits in the deque
        assert link.enqueue(waiting) == ref.offer(waiting)
        _assert_same_state(link.queue, ref)
        sim.run()
        assert ref.pop() is waiting
        _assert_same_state(link.queue, ref)

        oversize = _packet(size=5000)  # idle again, and too big
        assert not link.enqueue(oversize)
        assert not ref.offer(oversize)
        _assert_same_state(link.queue, ref)
        assert link.queue.drops == 1
        assert link.queue.dropped_bytes == 5000
        assert dst.stray_packets == 2


class TestLinkDropPaths:
    def test_tail_drop_and_wire_loss_leave_no_packet_alive(
            self, live_packets):
        """The link is the sink for packets the far node never sees:
        tail-drops and ``set_loss`` wire losses are each counted once,
        the rest arrive, and once the simulator drains nothing still
        holds any of the 60 packets."""
        sim = Simulator()
        src = Host(sim, 0, "src", processing_delay=0.0)
        dst = Host(sim, 1, "dst", processing_delay=25 * USEC)
        link = Link(sim, src, dst, 1 * GBPS, 0.1 * USEC,
                    buffer_bytes=3000, link_id=0)
        link.set_loss(0.5, spawn_rng(7))
        before = live_packets()
        sent = 0
        for _ in range(10):
            # one transmitting + two buffered fit; the rest tail-drop
            for i in range(6):
                link.enqueue(Packet(0, 0, 1, PacketKind.DATA, 1500, seq=i))
                sent += 1
            sim.run()  # drain the wave before the next burst
        delivered = sent - link.queue.drops - link.wire_losses
        assert link.queue.drops == 30  # 3 of every 6 fit
        assert link.wire_losses > 0
        assert dst.stray_packets == delivered  # no endpoints registered
        assert live_packets() == before

    def test_failed_link_leaves_no_packet_alive(self, live_packets):
        """``fail`` drains the queue, ``_finish`` drops the packet that
        was in flight, and a down link refuses new ones: each is one
        fault drop and none of them survives."""
        sim = Simulator()
        src = Host(sim, 0, "src", processing_delay=0.0)
        dst = Host(sim, 1, "dst", processing_delay=25 * USEC)
        link = Link(sim, src, dst, 1 * GBPS, 0.1 * USEC,
                    buffer_bytes=10_000, link_id=0)
        before = live_packets()
        for i in range(3):  # one transmitting, two queued
            assert link.enqueue(Packet(0, 0, 1, PacketKind.DATA, 1500,
                                       seq=i))
        link.fail()
        assert link.fault_drops == 2 and len(link.queue) == 0
        assert not link.enqueue(Packet(0, 0, 1, PacketKind.DATA, 1500))
        sim.run()
        assert link.fault_drops == 4
        assert dst.stray_packets == 0
        assert live_packets() == before


class TestTcpIncast:
    def test_tcp_incast_drops_and_completes(self):
        """End to end through a congested queue: 12 senders fire 1 MB
        each at t=0 into the one switch->receiver link (TCP with the
        paper's small RTOmin). The tail-drop path must run and
        retransmission must still finish every flow."""
        from repro.campaign.engines import make_stack
        from repro.net.network import Network
        from repro.topology.single_bottleneck import SingleBottleneck
        from repro.units import KBYTE
        from repro.workload.flow import FlowSpec
        from repro.workload.sizes import uniform_sizes

        n_senders = 12
        sizes = uniform_sizes(n_senders, 1024 * KBYTE,
                              rng=spawn_rng(20120813, "incast"))
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=sizes[i])
                 for i in range(n_senders)]
        net = Network(SingleBottleneck(n_senders), make_stack("TCP"))
        net.launch(flows)
        net.run_until_quiet(deadline=8.0)
        assert net.total_drops() > 0
        assert all(r.completed for r in net.metrics.all_records())
