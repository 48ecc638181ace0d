"""Tests for workload generation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.topology import SingleRootedTree
from repro.units import KBYTE, MBYTE, MSEC
from repro.workload import (
    FlowSpec,
    aggregation_flows,
    edu1_flow_summaries,
    exponential_deadlines,
    pareto_sizes,
    poisson_arrivals,
    random_permutation_flows,
    staggered_flows,
    stride_flows,
    uniform_sizes,
    vl2_flow_sizes,
)
from repro.workload.trace import TracePacket, flows_from_trace
from repro.workload.vl2 import SHORT_FLOW_CUTOFF


class TestFlowSpec:
    def test_absolute_deadline(self):
        spec = FlowSpec(fid=0, src="a", dst="b", size_bytes=1, arrival=2.0,
                        deadline=3.0)
        assert spec.absolute_deadline == 5.0
        assert spec.has_deadline

    def test_validation(self):
        with pytest.raises(WorkloadError):
            FlowSpec(fid=0, src="a", dst="b", size_bytes=0)
        with pytest.raises(WorkloadError):
            FlowSpec(fid=0, src="a", dst="a", size_bytes=1)
        with pytest.raises(WorkloadError):
            FlowSpec(fid=0, src="a", dst="b", size_bytes=1, deadline=0.0)

    def test_with_updates(self):
        spec = FlowSpec(fid=0, src="a", dst="b", size_bytes=10)
        clone = spec.with_(size_bytes=20)
        assert clone.size_bytes == 20
        assert spec.size_bytes == 10


class TestSizes:
    def test_uniform_mean(self):
        sizes = uniform_sizes(20_000, 100 * KBYTE, rng=1)
        assert sum(sizes) / len(sizes) == pytest.approx(100 * KBYTE, rel=0.02)

    def test_uniform_bounds_match_paper(self):
        # mean 100KB with 2KB floor -> U[2KB, 198KB] (§5.1)
        sizes = uniform_sizes(10_000, 100 * KBYTE, rng=2)
        assert min(sizes) >= 2 * KBYTE
        assert max(sizes) <= 198 * KBYTE

    def test_uniform_rejects_mean_below_min(self):
        with pytest.raises(WorkloadError):
            uniform_sizes(1, 1 * KBYTE)

    def test_pareto_heavy_tail(self):
        sizes = pareto_sizes(50_000, 100 * KBYTE, rng=3, tail_index=1.1)
        # heavy tail: the max dwarfs the median
        ordered = sorted(sizes)
        assert ordered[-1] > 20 * ordered[len(ordered) // 2]

    def test_pareto_needs_finite_mean(self):
        with pytest.raises(WorkloadError):
            pareto_sizes(1, 100 * KBYTE, tail_index=1.0)

    def test_deterministic_with_seed(self):
        assert uniform_sizes(10, 100 * KBYTE, rng=7) == uniform_sizes(
            10, 100 * KBYTE, rng=7
        )


class TestDeadlines:
    def test_floor_applied(self):
        deadlines = exponential_deadlines(10_000, mean=20 * MSEC,
                                          floor=3 * MSEC, rng=1)
        assert min(deadlines) >= 3 * MSEC

    def test_mean_roughly_right(self):
        deadlines = exponential_deadlines(50_000, mean=20 * MSEC, floor=0.0,
                                          rng=2)
        assert sum(deadlines) / len(deadlines) == pytest.approx(20 * MSEC,
                                                                rel=0.05)


class TestArrivals:
    def test_poisson_rate(self):
        arrivals = poisson_arrivals(1000.0, 10.0, rng=1)
        assert len(arrivals) == pytest.approx(10_000, rel=0.05)
        assert all(0 <= a < 10.0 for a in arrivals)

    def test_poisson_sorted(self):
        arrivals = poisson_arrivals(500.0, 1.0, rng=2)
        assert arrivals == sorted(arrivals)


class TestPatterns:
    def test_aggregation_balances_senders(self):
        senders = [f"s{i}" for i in range(4)]
        flows = aggregation_flows(senders, "r", [1000] * 10, rng=1)
        counts = {}
        for flow in flows:
            counts[flow.src] = counts.get(flow.src, 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 1
        assert all(f.dst == "r" for f in flows)

    def test_stride_mapping(self):
        hosts = [f"h{i}" for i in range(6)]
        flows = stride_flows(hosts, 2, [1000] * 6)
        assert flows[0].src == "h0" and flows[0].dst == "h2"
        assert flows[5].src == "h5" and flows[5].dst == "h1"

    def test_stride_rejects_identity(self):
        hosts = [f"h{i}" for i in range(4)]
        with pytest.raises(WorkloadError):
            stride_flows(hosts, 4, [1000] * 4)

    def test_staggered_probability(self):
        tree = SingleRootedTree()
        flows = staggered_flows(tree, [1000] * 4000, p_local=0.7, rng=3)
        local = sum(1 for f in flows if tree.same_rack(f.src, f.dst))
        assert local / len(flows) == pytest.approx(0.7, abs=0.05)

    def test_permutation_is_one_to_one(self):
        hosts = [f"h{i}" for i in range(8)]
        flows = random_permutation_flows(hosts, [1000] * 8, rng=4)
        assert sorted(f.src for f in flows) == sorted(hosts)
        assert sorted(f.dst for f in flows) == sorted(hosts)
        assert all(f.src != f.dst for f in flows)

    def test_permutation_multiple_rounds(self):
        hosts = [f"h{i}" for i in range(4)]
        flows = random_permutation_flows(hosts, [1000] * 12, rng=5)
        assert len(flows) == 12
        for r in range(3):
            batch = flows[r * 4:(r + 1) * 4]
            assert sorted(f.dst for f in batch) == sorted(hosts)

    def test_permutation_rejects_partial_rounds(self):
        hosts = [f"h{i}" for i in range(4)]
        with pytest.raises(WorkloadError):
            random_permutation_flows(hosts, [1000] * 6)

    def test_unique_fids(self):
        senders = [f"s{i}" for i in range(4)]
        flows = aggregation_flows(senders, "r", [1000] * 10, fid_start=5)
        assert [f.fid for f in flows] == list(range(5, 15))


class TestVl2:
    def test_mice_dominate_flows(self):
        sizes = vl2_flow_sizes(20_000, rng=1)
        short = sum(1 for s in sizes if s < SHORT_FLOW_CUTOFF)
        assert short / len(sizes) > 0.6

    def test_elephants_dominate_bytes(self):
        sizes = vl2_flow_sizes(20_000, rng=2)
        elephant_bytes = sum(s for s in sizes if s >= 1 * MBYTE)
        assert elephant_bytes / sum(sizes) > 0.5

    def test_scale_shrinks_sizes(self):
        big = vl2_flow_sizes(1000, rng=3, scale=1.0)
        small = vl2_flow_sizes(1000, rng=3, scale=0.1)
        assert sum(small) < sum(big)


class TestTraceConversion:
    def test_groups_packets_into_flows(self):
        packets = [
            TracePacket(0.000, "a", "b", key=1, size_bytes=100),
            TracePacket(0.001, "a", "b", key=1, size_bytes=200),
            TracePacket(0.002, "a", "c", key=2, size_bytes=300),
        ]
        flows = flows_from_trace(packets)
        assert len(flows) == 2
        by_dst = {f.dst: f for f in flows}
        assert by_dst["b"].size_bytes == 300
        assert by_dst["c"].size_bytes == 300

    def test_idle_timeout_splits_flows(self):
        packets = [
            TracePacket(0.0, "a", "b", key=1, size_bytes=100),
            TracePacket(5.0, "a", "b", key=1, size_bytes=100),
        ]
        flows = flows_from_trace(packets, idle_timeout=1.0)
        assert len(flows) == 2

    def test_arrival_is_first_packet(self):
        packets = [
            TracePacket(0.7, "a", "b", key=1, size_bytes=100),
            TracePacket(0.8, "a", "b", key=1, size_bytes=100),
        ]
        flows = flows_from_trace(packets)
        assert flows[0].arrival == pytest.approx(0.7)

    def test_edu1_pipeline_produces_flows(self):
        hosts = [f"h{i}" for i in range(6)]
        flows = edu1_flow_summaries(hosts, duration=0.5,
                                    flows_per_second=200, rng=1)
        assert len(flows) > 20
        assert all(f.src != f.dst for f in flows)
        assert all(f.size_bytes > 0 for f in flows)
        fids = [f.fid for f in flows]
        assert len(set(fids)) == len(fids)

    @given(st.lists(
        st.tuples(st.floats(0, 1.0), st.integers(0, 3),
                  st.integers(100, 1500)),
        min_size=1, max_size=60))
    @settings(max_examples=30)
    def test_property_bytes_conserved(self, raw):
        packets = [
            TracePacket(t, f"s{k}", f"d{k}", key=k, size_bytes=b)
            for t, k, b in raw
        ]
        flows = flows_from_trace(packets)
        assert sum(f.size_bytes for f in flows) == sum(p.size_bytes
                                                       for p in packets)
