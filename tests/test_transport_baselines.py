"""Tests for the TCP Reno, RCP and D3 baselines."""

import pytest

from repro.faults import LossRule, apply_loss
from repro.net.network import Network
from repro.net.packet import Packet, PacketKind
from repro.topology import SingleBottleneck, SingleRootedTree
from repro.transport import D3Stack, RcpStack, TcpStack
from repro.units import GBPS, KBYTE, MBYTE, MSEC
from repro.workload.flow import FlowSpec


class _KeepingTcpStack(TcpStack):
    """TcpStack that keeps every (sender, receiver) pair it makes."""

    def __init__(self):
        self.made = []

    def make_endpoints(self, *args):
        pair = super().make_endpoints(*args)
        self.made.append(pair)
        return pair


def run(stack, flows, n_senders=None, deadline=2.0, loss=None):
    net = Network(SingleBottleneck(n_senders or len(flows)), stack)
    if loss:
        apply_loss(net, [LossRule("sw0", "recv", loss, seed=1)])
    net.launch(flows)
    net.run_until_quiet(deadline=deadline)
    return net


class TestTcp:
    def test_single_flow_completes(self):
        net = run(TcpStack(), [FlowSpec(fid=0, src="send0", dst="recv",
                                        size_bytes=200 * KBYTE)])
        assert net.metrics.record(0).completed

    def test_slow_start_costs_small_flows(self):
        """A tiny flow needs several RTTs under TCP (window growth)."""
        net = run(TcpStack(), [FlowSpec(fid=0, src="send0", dst="recv",
                                        size_bytes=30 * KBYTE)])
        fct = net.metrics.record(0).fct
        raw = 30 * KBYTE * 8 / (1 * GBPS)
        assert fct > 2.0 * raw  # well above line-rate time

    def test_recovers_from_loss(self):
        net = run(TcpStack(), [FlowSpec(fid=0, src="send0", dst="recv",
                                        size_bytes=500 * KBYTE)], loss=0.02)
        record = net.metrics.record(0)
        assert record.completed
        assert record.retransmissions > 0

    def test_receiver_keeps_only_out_of_order_offsets(self):
        """Losses leave holes, so segments arrive out of order; once the
        flow completes the receiver holds no offsets (memory bounded by
        the reordering window, not the flow), and a late duplicate below
        the cumulative pointer delivers nothing."""
        size = 500 * KBYTE
        stack = _KeepingTcpStack()
        net = run(stack, [FlowSpec(fid=0, src="send0", dst="recv",
                                   size_bytes=size)], loss=0.02)
        record = net.metrics.record(0)
        assert record.completed and record.retransmissions > 0
        sender, receiver = stack.made[0]
        assert receiver._cum == size
        assert receiver._got == set()
        delivered = record.bytes_delivered
        assert delivered == receiver.bytes_received == size

        payload = stack.payload_bytes
        duplicate = Packet(0, sender.src_id, sender.dst_id, PacketKind.DATA,
                           payload + stack.header_bytes, payload, payload,
                           path=sender.path)
        receiver.on_packet(duplicate)
        assert record.bytes_delivered == delivered
        assert receiver.bytes_received == size
        assert receiver._got == set()

    def test_fair_sharing_roughly_equal(self):
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=1 * MBYTE) for i in range(2)]
        net = run(TcpStack(), flows)
        fct = net.metrics.fct_by_fid()
        assert fct[0] == pytest.approx(fct[1], rel=0.3)

    def test_concurrent_flows_all_complete(self):
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=100 * KBYTE) for i in range(10)]
        net = run(TcpStack(), flows)
        assert len(net.metrics.completed_records()) == 10


class TestRcp:
    def test_single_flow_gets_line_rate(self):
        net = run(RcpStack(), [FlowSpec(fid=0, src="send0", dst="recv",
                                        size_bytes=500 * KBYTE)])
        fct = net.metrics.record(0).fct
        raw = 500 * KBYTE * 8 / (1 * GBPS)
        assert fct < raw * 1.25

    def test_fair_share_divides_evenly(self):
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=1 * MBYTE) for i in range(4)]
        net = run(RcpStack(), flows)
        fcts = list(net.metrics.fct_by_fid().values())
        # processor sharing: all equal-size flows finish together
        assert max(fcts) < min(fcts) * 1.3

    def test_short_flow_not_prioritized(self):
        """RCP is deadline/size-agnostic: short flows share rather than
        preempt (this is what Fig 1b criticizes)."""
        flows = [
            FlowSpec(fid=0, src="send0", dst="recv", size_bytes=1 * MBYTE),
            FlowSpec(fid=1, src="send1", dst="recv", size_bytes=100 * KBYTE),
        ]
        net = run(RcpStack(), flows)
        fct = net.metrics.fct_by_fid()
        raw_short = 100 * KBYTE * 8 / (1 * GBPS)
        # the short flow runs at ~half rate: clearly above its solo time
        assert fct[1] > raw_short * 1.6

    def test_exact_flow_count_adapts(self):
        """After a flow terminates, the remaining one speeds up."""
        flows = [
            FlowSpec(fid=0, src="send0", dst="recv", size_bytes=2 * MBYTE),
            FlowSpec(fid=1, src="send1", dst="recv", size_bytes=200 * KBYTE),
        ]
        net = run(RcpStack(), flows)
        fct = net.metrics.fct_by_fid()
        # flow 0 gets the full link after flow 1 leaves: finishes well
        # before the 2x it would take under permanent halving
        raw = 2 * MBYTE * 8 / (1 * GBPS)
        assert fct[0] < raw * 1.6

    def test_resilient_to_loss(self):
        net = run(RcpStack(), [FlowSpec(fid=0, src="send0", dst="recv",
                                        size_bytes=500 * KBYTE)], loss=0.02)
        assert net.metrics.record(0).completed


class TestD3:
    def test_deadline_flow_gets_required_rate(self):
        flows = [
            FlowSpec(fid=0, src="send0", dst="recv", size_bytes=500 * KBYTE,
                     deadline=10 * MSEC),
            FlowSpec(fid=1, src="send1", dst="recv", size_bytes=500 * KBYTE),
        ]
        net = run(D3Stack(), flows)
        assert net.metrics.record(0).met_deadline

    def test_no_deadline_flows_fair_share(self):
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=500 * KBYTE) for i in range(3)]
        net = run(D3Stack(), flows)
        fcts = list(net.metrics.fct_by_fid().values())
        assert max(fcts) < min(fcts) * 1.4

    def test_quenching_kills_expired_flow(self):
        flows = [
            # two flows want the whole link; one will miss its deadline
            FlowSpec(fid=0, src="send0", dst="recv", size_bytes=2 * MBYTE,
                     deadline=17 * MSEC),
            FlowSpec(fid=1, src="send1", dst="recv", size_bytes=2 * MBYTE,
                     deadline=17 * MSEC),
        ]
        net = run(D3Stack(), flows, deadline=1.0)
        records = net.metrics.all_records()
        assert any(r.terminated for r in records)

    def test_first_come_first_reserved_blocks_later_urgent_flow(self):
        """The Fig 1 pathology: an early far-deadline flow's reservation
        starves a later tight-deadline flow."""
        flows = [
            FlowSpec(fid=0, src="send0", dst="recv", size_bytes=1800 * KBYTE,
                     deadline=16 * MSEC, arrival=0.0),
            FlowSpec(fid=1, src="send1", dst="recv", size_bytes=1800 * KBYTE,
                     deadline=17 * MSEC, arrival=1 * MSEC),
        ]
        net = run(D3Stack(), flows, deadline=1.0)
        # capacity only fits ~one of them; D3 serves the earlier arrival
        met = [net.metrics.record(i).met_deadline for i in (0, 1)]
        assert met[0] and not met[1]


class TestBaselinesOnTree:
    @pytest.mark.parametrize("stack_factory", [TcpStack, RcpStack, D3Stack])
    def test_cross_rack_traffic_completes(self, stack_factory):
        net = Network(SingleRootedTree(), stack_factory())
        flows = [FlowSpec(fid=i, src=f"h{i}", dst=f"h{(i + 6) % 12}",
                          size_bytes=100 * KBYTE) for i in range(6)]
        net.launch(flows)
        net.run_until_quiet(deadline=2.0)
        assert len(net.metrics.completed_records()) == 6
