"""Unit tests for the PDQ switch (Algorithms 1-3, §3.3)."""

import pytest

from repro.core.comparator import criticality_key
from repro.core.config import PdqConfig
from repro.core.flowlist import FlowEntry
from repro.core.stack import PdqStack
from repro.core.switch import decide
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

    def test_paused_by_other_switch_removes_state(self):
        net, proto, link = make_env()
        proto.process(fwd_packet(1), link)
        assert proto.state_for(link).flows.by_fid.get(1) is not None
        proto.process(fwd_packet(1, kind=PacketKind.DATA, pauseby=999), link)
        assert proto.state_for(link).flows.by_fid.get(1) is None

    def test_term_removes_state(self):
        net, proto, link = make_env()
        proto.process(fwd_packet(1), link)
        proto.process(fwd_packet(1, kind=PacketKind.TERM), link)
        assert proto.state_for(link).flows.by_fid.get(1) is None

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
        assert state.flows.by_fid.get(3) is None
        assert pkt3.sched.pauseby == proto.switch_id
        assert 3 in state.outside

RTT = 150 * USEC


def _flow(fid, expected_tx, rate=0.0, requested=0.0):
    """A flow-list entry as a forward pass leaves it."""
    entry = FlowEntry(fid, 0.0)
    entry.expected_tx = expected_tx
    entry.rtt = RTT
    entry.rate = rate
    entry.requested = requested
    entry.key = criticality_key(fid, None, expected_tx)
    return entry


def _window(fid, expected_tx):
    """The window that fid's tentative accept opened at time 0."""
    return (0.0, fid, criticality_key(fid, None, expected_tx))


#: Algorithm 2 (arXiv 1206.2057 §3.3) for a probing flow, fid 0, that
#: requests ``requested`` on a 1 Gbps link with C = r_PDQ = 1 Gbps and a
#: 150 us RTT average: (paragraph, config overrides, the other listed
#: flows, the prober's expected_tx, requested, sending, now, window,
#: expected grant, expected cause)
DECIDE_ROWS = [
    pytest.param(
        "Algorithm 2: the grant is min(available, requested)",
        {}, [], 1e-3, 0.2 * GBPS, False, 0.0, None, 0.2 * GBPS, "accepted",
        id="request-below-available"),
    pytest.param(
        "Algorithm 2: a sending flow ahead holds its committed rate",
        {"early_start": False}, [_flow(1, 0.5e-3, 0.6 * GBPS, 1 * GBPS)],
        1e-3, 1 * GBPS, False, 0.0, None, 0.4 * GBPS, "accepted",
        id="committed-rate-held"),
    pytest.param(
        "Algorithm 2: a flow ahead accepted but not yet sending holds the "
        "rate it requested",
        {"early_start": False}, [_flow(1, 0.5e-3, 0.0, 0.6 * GBPS)],
        1e-3, 1 * GBPS, False, 0.0, None, 0.4 * GBPS, "accepted",
        id="tentative-request-held"),
    pytest.param(
        "Algorithm 2: only more critical flows count, so a flow preempts a "
        "less critical sender",
        {}, [_flow(1, 2e-3, 1 * GBPS, 1 * GBPS)],
        1e-3, 1 * GBPS, False, 0.0, None, 1 * GBPS, "accepted",
        id="less-critical-sender-ignored"),
    pytest.param(
        "Algorithm 2: the more critical flows hold all of C",
        {}, [_flow(1, 0.5e-3, 1 * GBPS, 1 * GBPS)],
        1e-3, 1 * GBPS, False, 0.0, None, 0.0, "no_capacity",
        id="no-capacity"),
    pytest.param(
        "Early Start off (PDQ(Basic)): a nearly completed sender holds its "
        "rate",
        {"early_start": False}, [_flow(1, 100 * USEC, 1 * GBPS, 1 * GBPS)],
        1e-3, 1 * GBPS, False, 0.0, None, 0.0, "no_capacity",
        id="basic-no-early-start"),
    pytest.param(
        "Early Start: a sender with fewer than K RTTs left holds nothing",
        {"K": 2.0}, [_flow(1, 100 * USEC, 1 * GBPS, 1 * GBPS)],
        1e-3, 1 * GBPS, False, 0.0, None, 1 * GBPS, "accepted",
        id="nearly-completed-ignored"),
    pytest.param(
        "Early Start: a sender with exactly K RTTs left is not nearly "
        "completed",
        {"K": 2.0}, [_flow(1, 2 * RTT, 1 * GBPS, 1 * GBPS)],
        1e-3, 1 * GBPS, False, 0.0, None, 0.0, "no_capacity",
        id="k-rtts-left-held"),
    pytest.param(
        "Early Start: the budget ignores at most K RTTs of nearly completed "
        "senders, so the third of three 1-RTT senders holds its rate",
        {"K": 2.0}, [_flow(f, RTT, 0.33 * GBPS, 1 * GBPS) for f in (1, 2, 3)],
        1e-3, 1 * GBPS, False, 0.0, None, 0.67 * GBPS, "accepted",
        id="early-start-budget-exhausted"),
    pytest.param(
        "pause semantics (§2.2): a grant below max(min_rate, crumb_fraction "
        "* min(r_pdq, requested)) is a pause, not a sliver",
        {}, [_flow(1, 0.5e-3, 0.97 * GBPS, 1 * GBPS)],
        1e-3, 1 * GBPS, False, 0.0, None, 0.0, "crumb",
        id="crumb"),
    pytest.param(
        "Dampening: a less critical flow inside the window waits",
        {}, [_flow(1, 1e-3, 0.0, 0.3 * GBPS)],
        2e-3, 1 * GBPS, False, 0.5 * RTT, _window(1, 1e-3), 0.0, "dampened",
        id="less-critical-in-window"),
    pytest.param(
        "Dampening: without the exemption a more critical flow inside the "
        "window waits too",
        {}, [], 1e-3, 1 * GBPS, False, 0.5 * RTT, _window(1, 2e-3),
        0.0, "dampened",
        id="more-critical-in-window"),
    pytest.param(
        "Dampening: with dampening_preemption_exempt a more critical flow "
        "inside the window preempts",
        {"dampening_preemption_exempt": True}, [], 1e-3, 1 * GBPS, False,
        0.5 * RTT, _window(1, 2e-3), 1 * GBPS, "accepted",
        id="more-critical-in-window-exempt"),
    pytest.param(
        "Dampening: the window lasts dampening_rtts average RTTs",
        {}, [_flow(1, 1e-3, 0.0, 0.3 * GBPS)],
        2e-3, 1 * GBPS, False, 1.5 * RTT, _window(1, 1e-3),
        0.7 * GBPS, "accepted",
        id="window-expired"),
    pytest.param(
        "Dampening: the flow that opened the window re-confirms through it",
        {}, [], 1e-3, 1 * GBPS, False, 0.5 * RTT, _window(0, 1e-3),
        1 * GBPS, "accepted",
        id="own-window"),
    pytest.param(
        "Dampening: a sending flow keeps its rate inside the window",
        {}, [], 2e-3, 1 * GBPS, True, 0.5 * RTT, _window(1, 1e-3),
        1 * GBPS, "accepted",
        id="sending-in-window"),
]


@pytest.mark.parametrize(
    "paragraph,cfg,listed,expected_tx,requested,sending,now,window,"
    "grant,cause", DECIDE_ROWS)
def test_decide(paragraph, cfg, listed, expected_tx, requested, sending,
                now, window, grant, cause):
    prober = _flow(0, expected_tx, requested=requested)
    entries = sorted([*listed, prober], key=lambda e: e.key)
    got_grant, got_cause = decide(
        entries, entries.index(prober), 0, prober.key, requested, sending,
        now, window, RTT, 1 * GBPS, 1 * GBPS, PdqConfig.full(**cfg))
    assert got_cause == cause, paragraph
    assert got_grant == pytest.approx(grant, rel=1e-9), paragraph


class TestDampeningWindow:
    """The switch keeps the window :func:`decide` reads: a tentative
    accept opens it once, and a pause of the flow that opened it closes
    it."""

    def test_a_reconfirming_flow_does_not_reopen_it(self):
        net, proto, link = make_env()
        state = proto.state_for(link)
        proto.process(fwd_packet(1, expected_tx=1e-3), link)
        assert state.window == _window(1, 1e-3)
        net.sim.run(until=0.5 * RTT)
        proto.process(fwd_packet(1, kind=PacketKind.DATA, expected_tx=1e-3),
                      link)
        assert state.window == _window(1, 1e-3)

    def test_a_pause_closes_the_window_its_flow_opened(self):
        net, proto, link = make_env()
        state = proto.state_for(link)
        pkt1 = fwd_packet(1, expected_tx=1e-3, rate=0.3 * GBPS)
        proto.process(pkt1, link)
        assert state.window[1] == 1
        pkt1.sched.pauseby = 999  # paused by a downstream switch
        proto.process(Packet(fid=1, src=1, dst=0, kind=PacketKind.ACK,
                             size=56, sched=pkt1.sched), link.reverse)
        assert state.window is None
        pkt2 = fwd_packet(2, expected_tx=2e-3)
        proto.process(pkt2, link)
        assert pkt2.sched.pauseby is None
        assert pkt2.sched.rate == pytest.approx(1 * GBPS)
        assert state.window[1] == 2


class TestAlgorithm3:
    def test_reverse_commits_acceptance(self):
        net, proto, link = make_env()
        pkt = fwd_packet(1)
        proto.process(pkt, link)
        ack = Packet(fid=1, src=1, dst=0, kind=PacketKind.ACK, size=56,
                     sched=pkt.sched)
        proto.process(ack, link.reverse)
        entry = proto.state_for(link).flows.by_fid.get(1)
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
        entry = proto.state_for(link).flows.by_fid.get(1)
        assert entry.pauseby == proto.switch_id

    def test_reverse_paused_by_other_removes_state(self):
        net, proto, link = make_env()
        pkt = fwd_packet(1)
        proto.process(pkt, link)
        header = pkt.sched
        header.pauseby = 999
        ack = Packet(fid=1, src=1, dst=0, kind=PacketKind.ACK, size=56,
                     sched=header)
        proto.process(ack, link.reverse)
        assert proto.state_for(link).flows.by_fid.get(1) is None
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
        flows = proto.state_for(link).flows
        assert flows.entries.index(flows.by_fid[fid]) == index
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
        net, proto, link = make_env(pdq_rate_fraction=0.5)
        controller = proto.state_for(link).rate_controller
        controller.start()
        net.sim.run(until=2e-3)
        assert controller.capacity == pytest.approx(0.5 * GBPS)

    def test_rejects_negative_r_pdq(self):
        with pytest.raises(ValueError, match="pdq_rate_fraction"):
            make_env(pdq_rate_fraction=-0.5)


class TestPerPacketGuards:
    """The forward pass skips its helper calls when their guard says there
    is nothing to do; these pin the cases where there is."""

    def test_stale_entry_purged_after_expiry_horizon(self):
        net, proto, link = make_env(dampening=False)
        state = proto.state_for(link)
        proto.process(fwd_packet(1, rtt=150 * USEC), link)
        assert proto._flow_index.get(1) is state
        # horizon = entry_expiry_rtts (50) x RTT average (150 us) = 7.5 ms
        net.sim.run(until=7e-3)
        proto.process(fwd_packet(2, rtt=150 * USEC), link)
        assert state.flows.by_fid.get(1) is not None
        net.sim.run(until=8e-3)
        proto.process(fwd_packet(2, kind=PacketKind.DATA, rtt=150 * USEC),
                      link)
        assert state.flows.by_fid.get(1) is None
        assert 1 not in proto._flow_index
        assert proto._flow_index.get(2) is state

    def test_stale_entry_behind_fresh_head_is_purged(self):
        net, proto, link = make_env(dampening=False)
        state = proto.state_for(link)
        proto.process(fwd_packet(1, expected_tx=1e-3), link)
        proto.process(fwd_packet(2, expected_tx=2e-3), link)
        # flow 1 (the list head) stays fresh; flow 2 behind it goes stale
        net.sim.run(until=7e-3)
        proto.process(fwd_packet(1, kind=PacketKind.DATA, expected_tx=1e-3),
                      link)
        assert [e.fid for e in state.flows.entries] == [1, 2]
        net.sim.run(until=8e-3)
        proto.process(fwd_packet(1, kind=PacketKind.DATA, expected_tx=1e-3),
                      link)
        assert [e.fid for e in state.flows.entries] == [1]
        assert 2 not in proto._flow_index
        assert proto._flow_index.get(1) is state

    def test_rcp_fallback_flow_expires_from_outside(self):
        net, proto, link = make_env(min_list_capacity=1, hard_flow_limit=1,
                                    dampening=False)
        state = proto.state_for(link)
        proto.process(fwd_packet(1, expected_tx=1e-3), link)
        proto.process(fwd_packet(2, expected_tx=5e-3), link)
        assert state.flows.by_fid.get(2) is None
        assert 2 in state.outside
        net.sim.run(until=7e-3)
        proto.process(fwd_packet(1, kind=PacketKind.DATA), link)
        assert 2 in state.outside
        net.sim.run(until=8e-3)
        proto.process(fwd_packet(1, kind=PacketKind.DATA), link)
        assert state.outside == {}
        assert state.flows.by_fid.get(1) is not None

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
