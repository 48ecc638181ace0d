"""Unit tests for PDQ sender behaviour: probing, aging, criticality."""

import pytest

from repro.core.config import PdqConfig
from repro.core.stack import PdqStack
from repro.net.network import Network
from repro.net.packet import Packet, PacketKind
from repro.topology import SingleBottleneck
from repro.units import KBYTE, MBYTE, MSEC
from repro.workload.flow import FlowSpec


def make_sender(config=None, size=100 * KBYTE, deadline=None, fid=0):
    net = Network(SingleBottleneck(2), PdqStack(config or PdqConfig.full()))
    spec = FlowSpec(fid=fid, src="send0", dst="recv", size_bytes=size,
                    deadline=deadline)
    record = net.metrics.register(spec)
    fwd = net.flow_path(spec.fid, "send0", "recv")
    rev = net.reverse_path(fwd)
    sender, receiver = net.stack.make_endpoints(net, spec, record, fwd, rev)
    return net, sender


def _header(sender):
    return sender.make_sched_header(PacketKind.DATA)


class TestSchedulingHeader:
    def test_header_carries_max_rate(self):
        net, sender = make_sender()
        header = sender.make_sched_header(PacketKind.SYN)
        assert header.rate == sender.max_rate

    def test_expected_tx_includes_header_overhead(self):
        net, sender = make_sender(size=100 * KBYTE)
        # wire bytes exceed payload bytes: T > payload/raw rate
        assert sender.expected_tx_time() > 100 * KBYTE * 8 / sender.max_rate

    def test_deadline_in_header_is_absolute(self):
        net, sender = make_sender(deadline=20 * MSEC)
        header = sender.make_sched_header(PacketKind.SYN)
        assert header.deadline == pytest.approx(20 * MSEC)


class TestProbing:
    def test_paused_sender_probes(self):
        net, sender = make_sender()
        net2_flows = [
            FlowSpec(fid=10, src="send1", dst="recv", size_bytes=4 * MBYTE),
        ]
        net.launch(net2_flows)
        sender.start()
        net.run(until=5 * MSEC)
        # the large competing flow pauses someone; whoever is paused probes
        probes = sum(r.probes_sent for r in net.metrics.all_records())
        assert probes > 0

    def test_probe_interval_respects_suppression(self):
        net, sender = make_sender()
        sender.inter_probe = 4.0
        rtt = sender.rtt.srtt
        low, high = 0.7, 1.3  # jitter band
        interval = sender._probe_interval()
        assert 4 * rtt * low <= interval <= 4 * rtt * high

    def test_probe_jitter_is_deterministic_per_flow(self):
        net_a, sender_a = make_sender(fid=7)
        net_b, sender_b = make_sender(fid=7)
        assert sender_a._probe_interval() == sender_b._probe_interval()


class TestReroute:
    def test_reroute_forgets_the_pausing_switch(self):
        net, sender = make_sender()
        sender.start()
        net.run(until=1 * MSEC)
        receiver = net.host("recv").receivers[0]
        sender.pauseby = 7
        fwd = sender.path
        rev = net.reverse_path(fwd)
        sender.reroute(fwd, rev)
        assert sender.pauseby is None
        assert receiver.path == rev

        def feedback(echo_time):
            header = _header(sender)
            header.pauseby = 7
            header.rate = 0.0
            return Packet(0, net.host("recv").id, net.host("send0").id,
                          PacketKind.ACK, 40, sched=header,
                          echo_time=echo_time)

        # sent before the reroute: its pauseby names an old-path switch
        sender.process_feedback(feedback(net.sim.now - 0.1 * MSEC))
        assert sender.pauseby is None
        sender.process_feedback(feedback(net.sim.now))
        assert sender.pauseby == 7

    def test_stale_syn_ack_still_leads_to_a_probe(self):
        # the SYN-ACK of a SYN sent before the reroute carries no usable
        # rate; the handshake completes without one, so the sender must
        # probe for it instead of waiting for feedback that never comes
        net, sender = make_sender()
        sender.start()
        net.run(until=0.01 * MSEC)  # SYN still in flight
        sender.reroute(sender.path, net.reverse_path(sender.path))
        net.run(until=50 * MSEC)
        assert net.metrics.record(0).completed


class TestAging:
    def test_aging_reduces_advertised_tx_time(self):
        net, sender = make_sender(config=PdqConfig.full(aging_rate=1.0))
        base = sender.expected_tx_time()
        sender._waited = 0.2  # two aging time units
        aged = _header(sender).expected_tx
        assert aged == pytest.approx(base / 4.0)

    def test_no_aging_by_default(self):
        net, sender = make_sender()
        sender._waited = 10.0
        assert _header(sender).expected_tx == sender.expected_tx_time()


class TestCriticalityModes:
    def test_random_mode_assigns_stable_value(self):
        net, sender = make_sender(
            config=PdqConfig.full(criticality_mode="random"))
        first = _header(sender).criticality
        assert first is not None
        assert _header(sender).criticality == first

    def test_random_mode_is_deterministic_per_fid(self):
        a = make_sender(config=PdqConfig.full(criticality_mode="random"),
                        fid=3)[1]
        b = make_sender(config=PdqConfig.full(criticality_mode="random"),
                        fid=3)[1]
        assert _header(a).criticality == _header(b).criticality

    def test_estimate_mode_quantizes_sent_bytes(self):
        net, sender = make_sender(
            config=PdqConfig.full(criticality_mode="estimate"),
            size=500 * KBYTE)
        assert _header(sender).criticality == 0.0
        sender.next_offset = 60 * KBYTE
        assert _header(sender).criticality == 50 * KBYTE
        sender.next_offset = 149 * KBYTE
        assert _header(sender).criticality == 100 * KBYTE

    def test_default_mode_has_no_override(self):
        net, sender = make_sender()
        assert _header(sender).criticality is None

    def test_spec_criticality_passes_through(self):
        net = Network(SingleBottleneck(2), PdqStack())
        spec = FlowSpec(fid=0, src="send0", dst="recv",
                        size_bytes=10 * KBYTE, criticality=0.42)
        record = net.metrics.register(spec)
        fwd = net.flow_path(0, "send0", "recv")
        rev = net.reverse_path(fwd)
        sender, _ = net.stack.make_endpoints(net, spec, record, fwd, rev)
        assert _header(sender).criticality == 0.42


class TestEarlyTermination:
    def test_condition_now_past_deadline(self):
        net, sender = make_sender(deadline=1 * MSEC, size=10 * KBYTE)
        sender.start()
        net.run(until=5 * MSEC)
        # either completed in time or got terminated -- but with 10KB and
        # 1ms deadline it completes
        assert net.metrics.record(0).completed

    def test_cannot_finish_terminates_immediately(self):
        net, sender = make_sender(deadline=1 * MSEC, size=10 * MBYTE)
        sender.start()
        net.run(until=1 * MSEC)
        record = net.metrics.record(0)
        assert record.terminated
        assert record.termination_reason == "early_termination:hopeless_at_start"

    def test_et_disabled_never_terminates(self):
        net, sender = make_sender(config=PdqConfig.basic(),
                                  deadline=1 * MSEC, size=10 * MBYTE)
        sender.start()
        net.run(until=2 * MSEC)
        assert not net.metrics.record(0).terminated
