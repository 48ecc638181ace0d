"""Tests for Multipath PDQ (§6)."""

import pytest

from repro.core.config import PdqConfig
from repro.core.multipath import MpdqStack, subflow_fid
from repro.errors import WorkloadError
from repro.net.network import Network
from repro.topology import BCube, SingleBottleneck
from repro.units import KBYTE, MBYTE, MSEC
from repro.workload.flow import FlowSpec


def run_mpdq(flows, topo=None, n_subflows=3, deadline=1.0, **cfg):
    topo = topo or BCube(2, 3)
    net = Network(topo, MpdqStack(PdqConfig.full(**cfg),
                                  n_subflows=n_subflows))
    net.launch(flows)
    net.run_until_quiet(deadline=deadline)
    return net


class TestSubflowFids:
    def test_distinct_and_disjoint_from_parents(self):
        fids = {subflow_fid(7, k) for k in range(8)}
        assert len(fids) == 8
        assert all(f >= 1_000_000 for f in fids)

    def test_rejects_huge_parent_fid(self):
        with pytest.raises(WorkloadError):
            subflow_fid(2_000_000, 0)


class TestMpdqDelivery:
    def test_single_flow_completes(self):
        net = run_mpdq([FlowSpec(fid=0, src="h0", dst="h15",
                                 size_bytes=500 * KBYTE)])
        record = net.metrics.record(0)
        assert record.completed
        assert record.bytes_delivered >= 500 * KBYTE

    def test_subflows_use_distinct_paths(self):
        topo = BCube(2, 3)
        net = Network(topo, MpdqStack(n_subflows=4))
        first_links = set()
        for k in range(4):
            fid = subflow_fid(0, k)
            path = net.flow_path(fid, "h0", "h15")
            first_links.add(path[0].dst.name)
        # h0 and h15 differ in all 4 digits: 4 NICs usable
        assert len(first_links) >= 2

    def test_multipath_beats_single_path_for_large_flows(self):
        flows = [FlowSpec(fid=0, src="h0", dst="h15",
                          size_bytes=2 * MBYTE)]
        from repro.core.stack import PdqStack

        topo = BCube(2, 3)
        single = Network(topo, PdqStack())
        single.launch(flows)
        single.run_until_quiet(deadline=1.0)
        multi = run_mpdq(flows, n_subflows=4)
        assert multi.metrics.record(0).fct < single.metrics.record(0).fct

    def test_works_on_single_path_topology(self):
        """Subflows colliding onto one path must still complete."""
        net = run_mpdq(
            [FlowSpec(fid=0, src="send0", dst="recv",
                      size_bytes=300 * KBYTE)],
            topo=SingleBottleneck(2),
        )
        assert net.metrics.record(0).completed

    def test_many_flows_complete(self):
        flows = [FlowSpec(fid=i, src=f"h{i}", dst=f"h{15 - i}",
                          size_bytes=200 * KBYTE) for i in range(6)]
        net = run_mpdq(flows)
        assert len(net.metrics.completed_records()) == 6

    def test_deterministic(self):
        flows = [FlowSpec(fid=0, src="h0", dst="h15",
                          size_bytes=400 * KBYTE)]
        a = run_mpdq(flows).metrics.record(0).fct
        b = run_mpdq(flows).metrics.record(0).fct
        assert a == b


class TestMpdqEarlyTermination:
    def test_hopeless_flow_terminated(self):
        flows = [FlowSpec(fid=0, src="h0", dst="h15",
                          size_bytes=20 * MBYTE, deadline=1 * MSEC)]
        net = run_mpdq(flows, deadline=0.3)
        record = net.metrics.record(0)
        assert record.terminated
        assert not record.completed

    def test_feasible_deadline_met(self):
        flows = [FlowSpec(fid=0, src="h0", dst="h15",
                          size_bytes=100 * KBYTE, deadline=20 * MSEC)]
        net = run_mpdq(flows)
        assert net.metrics.record(0).met_deadline


class TestMpdqConfig:
    def test_rejects_zero_subflows(self):
        with pytest.raises(WorkloadError):
            MpdqStack(n_subflows=0)

    def test_no_empty_subflows_for_tiny_flows(self):
        # 2-byte flow with 3 subflows: only 2 subflows materialize
        net = run_mpdq([FlowSpec(fid=0, src="h0", dst="h15", size_bytes=2)],
                       n_subflows=3)
        assert net.metrics.record(0).completed

    def test_stack_name_includes_subflows(self):
        assert MpdqStack(n_subflows=5).name == "M-PDQ(5)"
