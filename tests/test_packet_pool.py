"""Tests for the packet pool lifecycle and the ring-buffer queue.

The pool's contract: exactly one terminal sink releases each packet, a
recycled packet carries nothing of its previous life, and debug mode
turns lifecycle violations (double release, leaks, stale fields) into
hard errors. The ring-buffer DropTailQueue must be observationally
identical to the deque implementation it replaced.
"""

from collections import deque

import pytest

from repro.errors import ProtocolError
from repro.events import Simulator
from repro.net.headers import PdqHeader, RcpHeader
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import Packet, PacketKind
from repro.net.pool import PacketPool
from repro.net.queues import _MIN_SLOTS, DropTailQueue
from repro.units import GBPS, USEC
from repro.utils.rng import spawn_rng


def _packet(size=1500, fid=0, kind=PacketKind.DATA):
    return Packet(fid=fid, src=0, dst=1, kind=kind, size=size,
                  payload=min(size, 1444))


class TestPacketPoolRecycling:
    def test_hit_returns_recycled_object(self):
        pool = PacketPool()
        first = pool.acquire(1, 0, 1, PacketKind.DATA, 1500)
        pool.release(first)
        second = pool.acquire(2, 0, 1, PacketKind.ACK, 44)
        assert second is first
        assert pool.hits == 1 and pool.misses == 1
        assert pool.size == 1  # one distinct packet ever created

    def test_recycled_packet_has_no_stale_fields(self):
        pool = PacketPool(debug=True)
        header = pool.acquire_pdq(1e9, None, 0.01, 0.002, 0.0, 0.0, 0.0)
        loaded = pool.acquire(
            7, 0, 1, PacketKind.DATA, 1500, seq=3, payload=1444,
            sched=header, ack_range=(0, 3), path=("l0", "l1"),
        )
        loaded.hop = 2
        pool.release(loaded)
        fresh = pool.acquire(8, 1, 0, PacketKind.ACK, 44)
        assert fresh is loaded
        assert fresh.sched is None
        assert fresh.ack_range is None
        assert fresh.path == ()
        assert fresh.hop == 0
        assert fresh.sent_time == -1.0

    def test_release_recycles_attached_header(self):
        pool = PacketPool()
        header = pool.acquire_rcp(1e9, 0.001)
        packet = pool.acquire(1, 0, 1, PacketKind.DATA, 1544, sched=header)
        pool.release(packet)
        again = pool.acquire_rcp(2e9, 0.002)
        assert again is header
        assert again.rate == 2e9 and again.rtt == 0.002

    def test_detached_header_is_not_double_freed(self):
        # _reply transfers the header onto the ACK and nulls the donor's
        # sched; releasing the donor must then leave the header alone
        pool = PacketPool()
        header = pool.acquire_pdq(1e9, None, 0.01, 0.002, 0.0, 0.0, 0.0)
        donor = pool.acquire(1, 0, 1, PacketKind.DATA, 1500, sched=header)
        donor.sched = None  # transferred to the ACK
        pool.release(donor)
        assert pool.acquire_pdq(0, None, 0, 0, 0, 0, 0) is not header

    def test_header_pools_are_per_class(self):
        pool = PacketPool()
        pdq = pool.acquire_pdq(1e9, None, 0.01, 0.002, 0.0, 0.0, 0.0)
        pool.release_header(pdq)
        rcp = pool.acquire_rcp(1e9, 0.001)
        assert isinstance(rcp, RcpHeader)
        assert pool.acquire_pdq(0, None, 0, 0, 0, 0, 0) is pdq

    def test_preallocate_counts_as_footprint(self):
        pool = PacketPool(preallocate=4)
        assert pool.size == 4
        assert pool.free_count() == 4
        pool.acquire(1, 0, 1, PacketKind.DATA, 1500)
        assert pool.hits == 1 and pool.misses == 0


class TestPacketPoolDebugChecker:
    def test_leak_checker_flags_unreleased_packet(self):
        pool = PacketPool(debug=True)
        kept = pool.acquire(1, 0, 1, PacketKind.DATA, 1500)
        released = pool.acquire(2, 0, 1, PacketKind.DATA, 1500)
        pool.release(released)
        assert pool.outstanding() == [kept]
        with pytest.raises(ProtocolError, match="never released"):
            pool.assert_no_leaks()
        pool.release(kept)
        pool.assert_no_leaks()

    def test_double_release_raises(self):
        pool = PacketPool(debug=True)
        packet = pool.acquire(1, 0, 1, PacketKind.DATA, 1500)
        pool.release(packet)
        with pytest.raises(ProtocolError, match="does not own"):
            pool.release(packet)

    def test_foreign_packet_release_raises(self):
        pool = PacketPool(debug=True)
        with pytest.raises(ProtocolError, match="does not own"):
            pool.release(_packet())

    def test_stale_fields_on_reacquire_raise(self):
        pool = PacketPool(debug=True)
        packet = pool.acquire(1, 0, 1, PacketKind.DATA, 1500)
        pool.release(packet)
        # simulate a lifecycle bug: someone scribbles on a freed packet
        packet.sched = PdqHeader(rate=0.0, pauseby=None, deadline=0.0,
                                 expected_tx=0.0, rtt=0.0, inter_probe=0.0,
                                 criticality=0.0)
        packet.ack_range = (1, 2)
        with pytest.raises(ProtocolError, match="stale"):
            pool.acquire(2, 0, 1, PacketKind.DATA, 1500)


class _DequeRefQueue:
    """The pre-ring DropTailQueue, reconstructed as a parity oracle."""

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


def _assert_same_state(ring, ref):
    assert len(ring) == len(ref)
    assert ring.bytes == ref.bytes
    assert ring.drops == ref.drops
    assert ring.dropped_bytes == ref.dropped_bytes
    assert ring.peak_bytes == ref.peak_bytes


class TestRingBufferParity:
    def test_randomized_offer_pop_parity(self):
        rng = spawn_rng(20120813, "test:ring_parity")
        ring = DropTailQueue(20_000)
        ref = _DequeRefQueue(20_000)
        for _ in range(5000):
            if rng.random() < 0.6:
                p = _packet(size=int(rng.integers(40, 3000)))
                assert ring.offer(p) == ref.offer(p)
            else:
                assert ring.pop() is ref.pop()
            _assert_same_state(ring, ref)
        while len(ref):
            assert ring.pop() is ref.pop()
        assert ring.pop() is None and ref.pop() is None

    def test_growth_preserves_fifo_order(self):
        # force several ring doublings with more packets than _MIN_SLOTS
        n = _MIN_SLOTS * 5
        ring = DropTailQueue(n * 100)
        packets = [_packet(size=100, fid=i) for i in range(n)]
        for p in packets:
            assert ring.offer(p)
        assert [ring.pop() for _ in range(n)] == packets

    def test_interleaved_wraparound(self):
        # head chases tail around the ring without triggering growth
        ring = DropTailQueue(10_000_000)
        ref = _DequeRefQueue(10_000_000)
        fid = 0
        for _ in range(100):
            for _ in range(3):
                p = _packet(size=100, fid=fid)
                fid += 1
                ring.offer(p)
                ref.offer(p)
            for _ in range(3):
                assert ring.pop() is ref.pop()
            _assert_same_state(ring, ref)

    def test_tail_drop_under_loss_pressure(self):
        ring = DropTailQueue(4000)
        ref = _DequeRefQueue(4000)
        for i in range(10):
            p = _packet(size=1500, fid=i)
            assert ring.offer(p) == ref.offer(p)
        _assert_same_state(ring, ref)
        assert ring.drops == 8  # two fit, eight tail-dropped

    def test_tail_drop_and_wire_loss_release_to_pool(self):
        """The link is the terminal sink for packets the far node never
        sees: tail-drops on the ring queue and ``set_loss`` wire losses
        must both hand the packet back, so nothing leaks under pressure."""
        sim = Simulator()
        pool = PacketPool(debug=True)
        src = Host(sim, 0, "src", processing_delay=0.0)
        dst = Host(sim, 1, "dst", processing_delay=25 * USEC)
        dst.pool = pool
        link = Link(sim, src, dst, 1 * GBPS, 0.1 * USEC,
                    buffer_bytes=3000, link_id=0)
        link.pool = pool
        link.set_loss(0.5, spawn_rng(7))
        sent = 0
        for _ in range(10):
            # one transmitting + two buffered fit; the rest tail-drop
            for i in range(6):
                link.enqueue(
                    pool.acquire(0, 0, 1, PacketKind.DATA, 1500, seq=i))
                sent += 1
            sim.run()  # drain the wave before the next burst
        delivered = sent - link.queue.drops - link.wire_losses
        assert link.queue.drops == 30  # 3 of every 6 fit
        assert link.wire_losses > 0
        assert dst.stray_packets == delivered  # no endpoints registered
        pool.assert_no_leaks()  # every drop path released its packet
        assert pool.free_count() == pool.size

    def test_touch_matches_offer_then_pop(self):
        # touch() must make the same drop decision and peak update as
        # offer()+pop() without mutating occupancy
        ring = DropTailQueue(4000)
        ring.offer(_packet(size=1500))
        assert ring.touch(_packet(size=2000))
        assert ring.peak_bytes == 3500
        assert ring.bytes == 1500 and len(ring) == 1
        assert not ring.touch(_packet(size=3000))
        assert ring.drops == 1
        assert ring.dropped_bytes == 3000
        assert ring.peak_bytes == 3500


class TestPoolUnderIncast:
    def test_tcp_incast_drops_recycles_and_completes(self):
        """End to end through a congested queue: 12 senders fire 1 MB
        each at t=0 into the one switch->receiver link (TCP with the
        paper's small RTOmin). The tail-drop path must run, dropped and
        delivered packets must come back through the pool, and
        retransmission must still finish every flow."""
        from repro.campaign.engines import make_stack
        from repro.net.network import Network
        from repro.obs.stats import harvest_packet_run
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
        stats = harvest_packet_run(net)
        assert stats.get("net.pool_hits") > 0
        assert stats.get("net.pool_size") > 0
        assert all(r.completed for r in net.metrics.all_records())
