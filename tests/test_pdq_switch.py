"""Unit tests for the PDQ switch (Algorithms 1-3, §3.3)."""

import pytest

from repro.core.config import PdqConfig
from repro.core.stack import PdqStack
from repro.net.headers import PdqHeader
from repro.net.network import Network
from repro.net.packet import Packet, PacketKind
from repro.topology import SingleBottleneck
from repro.units import GBPS, MBYTE, MSEC, USEC
from repro.workload.flow import FlowSpec


def make_env(n_senders=4, **cfg):
    """A switch protocol instance with one egress link under test."""
    net = Network(SingleBottleneck(n_senders), PdqStack(PdqConfig.full(**cfg)))
    switch = net.node("sw0")
    link = net.link_between("sw0", "recv")
    return net, switch.protocol, link


def fwd_packet(fid, kind=PacketKind.SYN, rate=1 * GBPS, pauseby=None,
               deadline=None, expected_tx=1e-3, rtt=150 * USEC):
    header = PdqHeader(rate=rate, pauseby=pauseby, deadline=deadline,
                       expected_tx=expected_tx, rtt=rtt)
    return Packet(fid=fid, src=0, dst=1, kind=kind, size=56, sched=header)


class TestAlgorithm1:
    def test_first_flow_accepted_at_full_rate(self):
        net, proto, link = make_env()
        pkt = fwd_packet(1)
        proto.process(pkt, link)
        assert pkt.sched.pauseby is None
        assert pkt.sched.rate == pytest.approx(1 * GBPS)

    def test_second_flow_dampened_in_window(self):
        net, proto, link = make_env()
        proto.process(fwd_packet(1, expected_tx=1e-3), link)
        pkt2 = fwd_packet(2, expected_tx=2e-3)
        proto.process(pkt2, link)
        assert pkt2.sched.pauseby == proto.switch_id
        assert pkt2.sched.rate == 0.0

    def test_flow_paused_when_more_critical_committed(self):
        net, proto, link = make_env()
        state = proto.state_for(link)
        pkt1 = fwd_packet(1, expected_tx=1e-3)
        proto.process(pkt1, link)
        # commit flow 1's rate via the reverse path
        ack1 = Packet(fid=1, src=1, dst=0, kind=PacketKind.ACK, size=56,
                      sched=pkt1.sched)
        proto.process(ack1, link.reverse)
        assert state.flows.get(1).rate == pytest.approx(1 * GBPS)
        # dampening window over
        net.sim.run(until=1e-3)
        pkt2 = fwd_packet(2, expected_tx=2e-3)
        proto.process(pkt2, link)
        assert pkt2.sched.pauseby == proto.switch_id

    def test_more_critical_flow_preempts_committed(self):
        net, proto, link = make_env()
        pkt1 = fwd_packet(1, expected_tx=2e-3)
        proto.process(pkt1, link)
        ack1 = Packet(fid=1, src=1, dst=0, kind=PacketKind.ACK, size=56,
                      sched=pkt1.sched)
        proto.process(ack1, link.reverse)
        net.sim.run(until=1e-3)
        # a more critical flow gets the full rate (preemption: Algorithm 2
        # only counts flows more critical than the prober)
        pkt2 = fwd_packet(2, expected_tx=0.5e-3)
        proto.process(pkt2, link)
        assert pkt2.sched.pauseby is None
        assert pkt2.sched.rate > 0

    def test_paused_by_other_switch_removes_state(self):
        net, proto, link = make_env()
        proto.process(fwd_packet(1), link)
        assert proto.state_for(link).flows.get(1) is not None
        proto.process(fwd_packet(1, kind=PacketKind.DATA, pauseby=999), link)
        assert proto.state_for(link).flows.get(1) is None

    def test_term_removes_state(self):
        net, proto, link = make_env()
        proto.process(fwd_packet(1), link)
        proto.process(fwd_packet(1, kind=PacketKind.TERM), link)
        assert proto.state_for(link).flows.get(1) is None

    def test_rcp_fallback_for_overflow_flows(self):
        net, proto, link = make_env(min_list_capacity=2, hard_flow_limit=2,
                                    dampening=False)
        state = proto.state_for(link)
        for fid, tx in [(1, 1e-3), (2, 2e-3)]:
            pkt = fwd_packet(fid, expected_tx=tx)
            proto.process(pkt, link)
            ack = Packet(fid=fid, src=1, dst=0, kind=PacketKind.ACK,
                         size=56, sched=pkt.sched)
            proto.process(ack, link.reverse)
        # flow 3 is less critical than both: no list room -> RCP fallback.
        # the two listed flows hold the whole link, so it is paused.
        pkt3 = fwd_packet(3, expected_tx=5e-3)
        proto.process(pkt3, link)
        assert state.flows.get(3) is None
        assert pkt3.sched.pauseby == proto.switch_id
        assert 3 in state.outside

    def test_receiver_limited_rate_clamps_grant(self):
        net, proto, link = make_env()
        pkt = fwd_packet(1, rate=0.2 * GBPS)  # sender/receiver limited
        proto.process(pkt, link)
        assert pkt.sched.rate == pytest.approx(0.2 * GBPS)


class TestAlgorithm2:
    """Algorithm 2 runs inside the forward pass; what it computes shows as
    the rate granted in the header of a less critical flow's packet
    (dampening off, so the grant is not overridden by a pause)."""

    def test_availbw_subtracts_committed_rates(self):
        net, proto, link = make_env(early_start=False, dampening=False)
        state = proto.state_for(link)
        pkt1 = fwd_packet(1, expected_tx=1e-3)
        proto.process(pkt1, link)
        state.flows.get(1).rate = 0.6 * GBPS
        pkt2 = fwd_packet(2, expected_tx=2e-3)
        proto.process(pkt2, link)
        assert state.flows.index_of(2) == 1
        assert pkt2.sched.pauseby is None
        assert pkt2.sched.rate == pytest.approx(0.4 * GBPS)

    def test_early_start_ignores_nearly_completed(self):
        net, proto, link = make_env(K=2.0, dampening=False)
        state = proto.state_for(link)
        # flow 1 sending, nearly completed (T < K*RTT)
        pkt1 = fwd_packet(1, expected_tx=100 * USEC, rtt=150 * USEC)
        proto.process(pkt1, link)
        state.flows.get(1).rate = 1 * GBPS
        pkt2 = fwd_packet(2, expected_tx=1e-3)
        proto.process(pkt2, link)
        assert pkt2.sched.rate == pytest.approx(1 * GBPS)

    def test_early_start_budget_bounded_by_k(self):
        net, proto, link = make_env(K=2.0, dampening=False)
        state = proto.state_for(link)
        # three nearly-completed senders of 1 RTT each: only K=2 fit the
        # budget; the third contributes its rate
        for fid in (1, 2, 3):
            pkt = fwd_packet(fid, expected_tx=150 * USEC, rtt=150 * USEC)
            proto.process(pkt, link)
            state.flows.get(fid).rate = 0.33 * GBPS
        pkt4 = fwd_packet(4, expected_tx=1e-3)
        proto.process(pkt4, link)
        assert pkt4.sched.rate == pytest.approx((1 - 0.33) * GBPS, rel=1e-6)

    def test_basic_variant_has_no_early_start(self):
        net, proto, link = make_env(early_start=False, dampening=False)
        state = proto.state_for(link)
        pkt1 = fwd_packet(1, expected_tx=100 * USEC, rtt=150 * USEC)
        proto.process(pkt1, link)
        state.flows.get(1).rate = 1 * GBPS
        pkt2 = fwd_packet(2, expected_tx=1e-3)
        proto.process(pkt2, link)
        assert pkt2.sched.pauseby == proto.switch_id
        assert pkt2.sched.rate == 0.0


class TestAlgorithm3:
    def test_reverse_commits_acceptance(self):
        net, proto, link = make_env()
        pkt = fwd_packet(1)
        proto.process(pkt, link)
        ack = Packet(fid=1, src=1, dst=0, kind=PacketKind.ACK, size=56,
                     sched=pkt.sched)
        proto.process(ack, link.reverse)
        entry = proto.state_for(link).flows.get(1)
        assert entry.rate == pytest.approx(1 * GBPS)
        assert entry.pauseby is None

    def test_reverse_zeroes_rate_when_paused(self):
        net, proto, link = make_env()
        pkt = fwd_packet(1)
        proto.process(pkt, link)
        header = pkt.sched
        header.pauseby = proto.switch_id  # pretend we paused it downstream? no: by us
        ack = Packet(fid=1, src=1, dst=0, kind=PacketKind.ACK, size=56,
                     sched=header)
        proto.process(ack, link.reverse)
        assert header.rate == 0.0
        assert proto.state_for(link).flows.get(1).pauseby == proto.switch_id

    def test_reverse_paused_by_other_removes_state(self):
        net, proto, link = make_env()
        pkt = fwd_packet(1)
        proto.process(pkt, link)
        header = pkt.sched
        header.pauseby = 999
        ack = Packet(fid=1, src=1, dst=0, kind=PacketKind.ACK, size=56,
                     sched=header)
        proto.process(ack, link.reverse)
        assert proto.state_for(link).flows.get(1) is None
        assert header.rate == 0.0

    def test_suppressed_probing_raises_interval_with_index(self):
        net, proto, link = make_env(dampening=False)
        headers = {}
        for fid, tx in [(1, 1e-3), (2, 2e-3), (3, 3e-3)]:
            pkt = fwd_packet(fid, expected_tx=tx)
            proto.process(pkt, link)
            headers[fid] = pkt.sched
        ack3 = Packet(fid=3, src=1, dst=0, kind=PacketKind.ACK, size=56,
                      sched=headers[3])
        proto.process(ack3, link.reverse)
        assert headers[3].inter_probe == pytest.approx(
            max(1.0, 0.2 * 2)
        )

    @pytest.mark.parametrize("fid,index", [(1, 0), (2, 1), (3, 2)])
    def test_suppressed_probing_floor_is_x_times_index(self, fid, index):
        net, proto, link = make_env(dampening=False)
        headers = {}
        for f, tx in [(1, 1e-3), (2, 2e-3), (3, 3e-3)]:
            pkt = fwd_packet(f, expected_tx=tx)
            proto.process(pkt, link)
            headers[f] = pkt.sched
        assert proto.state_for(link).flows.index_of(fid) == index
        header = headers[fid]
        header.inter_probe = 0.0  # below every floor, so I_H shows it
        ack = Packet(fid=fid, src=1, dst=0, kind=PacketKind.ACK, size=56,
                     sched=header)
        proto.process(ack, link.reverse)
        assert header.inter_probe == pytest.approx(0.2 * index)

    def test_no_suppressed_probing_when_disabled(self):
        net, proto, link = make_env(suppressed_probing=False,
                                    dampening=False)
        headers = {}
        for fid, tx in [(1, 1e-3), (2, 2e-3), (3, 3e-3)]:
            pkt = fwd_packet(fid, expected_tx=tx)
            proto.process(pkt, link)
            headers[fid] = pkt.sched
        ack = Packet(fid=3, src=1, dst=0, kind=PacketKind.ACK, size=56,
                     sched=headers[3])
        proto.process(ack, link.reverse)
        assert headers[3].inter_probe == 1.0


class TestRateController:
    def test_capacity_drops_with_queue(self):
        net, proto, link = make_env()
        state = proto.state_for(link)
        controller = state.rate_controller
        # stuff the queue and force an update
        from repro.net.packet import Packet as P

        for _ in range(20):
            link.queue.offer(P(fid=0, src=0, dst=1, kind=PacketKind.DATA,
                               size=1500, payload=1444))
        controller.start()
        net.sim.run(until=1e-3)
        assert controller.capacity < link.rate_bps

    def test_capacity_restores_when_queue_drains(self):
        net, proto, link = make_env()
        controller = proto.state_for(link).rate_controller
        controller.start()
        net.sim.run(until=2e-3)
        assert controller.capacity == pytest.approx(link.rate_bps)

    def test_r_pdq_slicing(self):
        net, proto, link = make_env()
        controller = proto.state_for(link).rate_controller
        controller.set_pdq_rate(0.5 * GBPS)
        controller.start()
        net.sim.run(until=2e-3)
        assert controller.capacity == pytest.approx(0.5 * GBPS)

    def test_rejects_negative_r_pdq(self):
        net, proto, link = make_env()
        with pytest.raises(ValueError):
            proto.state_for(link).rate_controller.set_pdq_rate(-1.0)


class TestPerPacketGuards:
    """The forward pass skips its helper calls when their guard says there
    is nothing to do; these pin the cases where there is."""

    def test_stale_entry_purged_after_expiry_horizon(self):
        net, proto, link = make_env(dampening=False)
        state = proto.state_for(link)
        proto.process(fwd_packet(1, rtt=150 * USEC), link)
        assert proto.flow_state(1) is state
        # horizon = entry_expiry_rtts (50) x RTT average (150 us) = 7.5 ms
        net.sim.run(until=7e-3)
        proto.process(fwd_packet(2, rtt=150 * USEC), link)
        assert state.flows.get(1) is not None
        net.sim.run(until=8e-3)
        proto.process(fwd_packet(2, kind=PacketKind.DATA, rtt=150 * USEC),
                      link)
        assert state.flows.get(1) is None
        assert proto.flow_state(1) is None
        assert proto.flow_state(2) is state

    def test_stale_entry_behind_fresh_head_is_purged(self):
        net, proto, link = make_env(dampening=False)
        state = proto.state_for(link)
        proto.process(fwd_packet(1, expected_tx=1e-3), link)
        proto.process(fwd_packet(2, expected_tx=2e-3), link)
        # flow 1 (the list head) stays fresh; flow 2 behind it goes stale
        net.sim.run(until=7e-3)
        proto.process(fwd_packet(1, kind=PacketKind.DATA, expected_tx=1e-3),
                      link)
        assert [e.fid for e in state.flows] == [1, 2]
        net.sim.run(until=8e-3)
        proto.process(fwd_packet(1, kind=PacketKind.DATA, expected_tx=1e-3),
                      link)
        assert [e.fid for e in state.flows] == [1]
        assert proto.flow_state(2) is None
        assert proto.flow_state(1) is state

    def test_rcp_fallback_flow_expires_from_outside(self):
        net, proto, link = make_env(min_list_capacity=1, hard_flow_limit=1,
                                    dampening=False)
        state = proto.state_for(link)
        proto.process(fwd_packet(1, expected_tx=1e-3), link)
        proto.process(fwd_packet(2, expected_tx=5e-3), link)
        assert state.flows.get(2) is None
        assert 2 in state.outside
        net.sim.run(until=7e-3)
        proto.process(fwd_packet(1, kind=PacketKind.DATA), link)
        assert 2 in state.outside
        net.sim.run(until=8e-3)
        proto.process(fwd_packet(1, kind=PacketKind.DATA), link)
        assert state.outside == {}
        assert state.flows.get(1) is not None

    def test_first_rtt_sample_replaces_default(self):
        net, proto, link = make_env(default_rtt=1e-3)
        state = proto.state_for(link)
        assert state.rtt_avg == 1e-3
        proto.process(fwd_packet(1, rtt=0.0), link)  # no sample
        assert state.rtt_avg == 1e-3
        proto.process(fwd_packet(1, kind=PacketKind.DATA, rtt=150 * USEC),
                      link)
        assert state.rtt_avg == 150 * USEC
        proto.process(fwd_packet(1, kind=PacketKind.DATA, rtt=250 * USEC),
                      link)
        assert state.rtt_avg == pytest.approx(
            0.9 * 150 * USEC + 0.1 * 250 * USEC)

    @pytest.mark.parametrize("exempt", [False, True])
    def test_preemption_exempt_passes_open_dampening_window(self, exempt):
        net, proto, link = make_env(dampening_preemption_exempt=exempt)
        proto.process(fwd_packet(1, expected_tx=2e-3), link)  # opens window
        more_critical = fwd_packet(2, expected_tx=1e-3)
        proto.process(more_critical, link)
        less_critical = fwd_packet(3, expected_tx=3e-3)
        proto.process(less_critical, link)
        if exempt:
            assert more_critical.sched.pauseby is None
            assert more_critical.sched.rate > 0
        else:
            assert more_critical.sched.pauseby == proto.switch_id
        # a less critical flow is dampened either way
        assert less_critical.sched.pauseby == proto.switch_id

    def test_rate_controller_starts_on_first_forward_packet(self):
        net, proto, link = make_env()
        controller = proto.state_for(link).rate_controller
        assert not controller.running
        proto.process(fwd_packet(1), link)
        assert controller.running
        net.sim.run(until=1e-3)
        assert controller.updates > 0
        proto.process(fwd_packet(1, kind=PacketKind.TERM), link)
        assert not controller.running


class TestTermWithoutState:
    def test_hopeless_at_start_term_allocates_no_link_state(self):
        # Early Termination kills the flow before its SYN: only a TERM
        # crosses the sender's NIC and the switch, and it has nothing to
        # clean up at either
        net = Network(SingleBottleneck(2), PdqStack(PdqConfig.full()))
        net.launch([FlowSpec(fid=0, src="send0", dst="recv",
                             size_bytes=10 * MBYTE, deadline=1 * MSEC)])
        net.run(until=1 * MSEC)
        record = net.metrics.record(0)
        assert record.termination_reason == \
            "early_termination:hopeless_at_start"
        assert net.node("sw0").forwarded == 2  # the TERM and its TERM-ACK
        assert all(node.protocol._states == {} for node in net.nodes)
