"""Tests for Network construction and configuration."""

import pytest

from repro.core.stack import PdqStack
from repro.errors import TopologyError
from repro.faults import LossRule, apply_loss
from repro.net.network import Network, NetworkConfig
from repro.topology import SingleBottleneck, SingleRootedTree
from repro.units import GBPS, KBYTE, MBYTE, USEC
from repro.workload.flow import FlowSpec


class TestConstruction:
    def test_nodes_and_links_built(self):
        net = Network(SingleRootedTree(), PdqStack())
        assert len(net.nodes) == 17
        assert len(net.links) == 2 * 16  # both directions

    def test_reverse_twins(self):
        net = Network(SingleBottleneck(2), PdqStack())
        for link in net.links:
            assert link.reverse.reverse is link
            assert link.reverse.src is link.dst

    def test_node_lookup(self):
        net = Network(SingleRootedTree(), PdqStack())
        assert net.node("h0").name == "h0"
        with pytest.raises(TopologyError):
            net.node("nope")

    def test_host_lookup_rejects_switch(self):
        net = Network(SingleRootedTree(), PdqStack())
        with pytest.raises(TopologyError):
            net.host("root")

    def test_link_between(self):
        net = Network(SingleBottleneck(2), PdqStack())
        link = net.link_between("sw0", "recv")
        assert link.src.name == "sw0"
        assert link.dst.name == "recv"
        with pytest.raises(TopologyError):
            net.link_between("send0", "recv")  # not adjacent

    def test_every_node_gets_protocol(self):
        net = Network(SingleRootedTree(), PdqStack())
        assert all(node.protocol is not None for node in net.nodes)

    def test_tcp_nodes_have_no_protocol(self):
        from repro.transport import TcpStack

        net = Network(SingleRootedTree(), TcpStack())
        assert all(node.protocol is None for node in net.nodes)

    def test_config_defaults_match_paper(self):
        config = NetworkConfig()
        assert config.buffer_bytes == 4 * MBYTE
        assert config.processing_delay == pytest.approx(25 * USEC)
        assert config.prop_delay == pytest.approx(0.1 * USEC)


class TestRttEstimate:
    def test_two_hop_rtt_is_paperish(self):
        """The paper quotes ~150us datacenter RTTs for this setup."""
        net = Network(SingleBottleneck(2), PdqStack())
        fwd = net.flow_path(0, "send0", "recv")
        rtt = net.estimate_rtt(fwd)
        assert 80 * USEC < rtt < 160 * USEC


class TestReceiverRateLimits:
    def test_limit_respected(self):
        config = NetworkConfig(receiver_rate_limits={"recv": 0.1 * GBPS})
        net = Network(SingleBottleneck(1), PdqStack(), config=config)
        net.launch([FlowSpec(fid=0, src="send0", dst="recv",
                             size_bytes=100 * KBYTE)])
        net.run_until_quiet(deadline=1.0)
        fct = net.metrics.record(0).fct
        # ~100KB at 100Mbps is 8ms; far above the 0.8ms line-rate time
        assert fct > 6e-3

    def test_default_unlimited(self):
        net = Network(SingleBottleneck(1), PdqStack())
        assert net.receiver_rate_limit("recv") == float("inf")


class TestLossInjection:
    def test_loss_configured_both_directions(self):
        net = Network(SingleBottleneck(2), PdqStack())
        apply_loss(net, [LossRule("sw0", "recv", 0.02, seed=1)])
        fwd = net.link_between("sw0", "recv")
        assert fwd.loss_rate == 0.02
        assert fwd.reverse.loss_rate == 0.02

    def test_pdq_completes_under_loss(self):
        net = Network(SingleBottleneck(2), PdqStack())
        apply_loss(net, [LossRule("sw0", "recv", 0.03, seed=2)])
        net.launch([FlowSpec(fid=0, src="send0", dst="recv",
                             size_bytes=500 * KBYTE)])
        net.run_until_quiet(deadline=2.0)
        record = net.metrics.record(0)
        assert record.completed
        assert net.total_wire_losses() > 0

    def test_pdq_loss_penalty_small(self):
        """Fig 9b's shape: PDQ's FCT grows mildly under 3% loss."""
        def fct_at(loss):
            net = Network(SingleBottleneck(4), PdqStack())
            if loss:
                apply_loss(net, [LossRule("sw0", "recv", loss, seed=3)])
            net.launch([
                FlowSpec(fid=i, src=f"send{i}", dst="recv",
                         size_bytes=300 * KBYTE)
                for i in range(4)
            ])
            net.run_until_quiet(deadline=4.0)
            return net.metrics.mean_fct()

        clean = fct_at(0.0)
        lossy = fct_at(0.03)
        assert lossy < clean * 1.6  # paper: +11%; allow generous slack


class TestCompletionDrivenStop:
    def test_zero_extra_steps_after_last_flow_resolves(self):
        """run_until_quiet must halt on the event that resolves the last
        flow: no chunk polling, no trailing event processing."""
        net = Network(SingleBottleneck(2), PdqStack())
        net.launch([
            FlowSpec(fid=i, src=f"send{i}", dst="recv",
                     size_bytes=50 * KBYTE)
            for i in range(2)
        ])
        steps_at_resolution = []
        net.metrics.add_completion_observer(
            lambda: steps_at_resolution.append(net.sim.processed_events))
        net.run_until_quiet(deadline=5.0)
        assert not net.metrics.unfinished()
        # the observer runs inside the resolving event's callback, before
        # the loop counts that event: exactly one step difference means
        # zero events ran after the one that resolved the last flow
        assert len(steps_at_resolution) == 1
        assert net.sim.processed_events == steps_at_resolution[0] + 1
        # the stop is immediate, not drained: the close handshake
        # (final ACK, TERM, TERM-ACK) is still queued, and simulated time
        # sits at the completion instant, far from the deadline
        assert net.sim.pending() > 0
        last_completion = max(
            r.completion_time for r in net.metrics.all_records())
        assert net.sim.now == last_completion

    def test_run_until_quiet_noop_when_no_flows(self):
        net = Network(SingleBottleneck(1), PdqStack())
        net.run_until_quiet(deadline=1.0)
        assert net.sim.now == 0.0
        assert net.sim.processed_events == 0

    def test_run_until_quiet_respects_deadline_with_unresolved_flows(self):
        # a receiver-limited flow cannot finish by the deadline: the run
        # must end at the deadline with the flow still unresolved
        config = NetworkConfig(receiver_rate_limits={"recv": 0.001 * GBPS})
        net = Network(SingleBottleneck(1), PdqStack(), config=config)
        net.launch([FlowSpec(fid=0, src="send0", dst="recv",
                             size_bytes=10 * MBYTE)])
        net.run_until_quiet(deadline=0.01)
        assert net.metrics.unfinished()
        assert net.sim.now == 0.01

    def test_resumable_after_completion_stop(self):
        # stop() from the observer must not wedge the simulator: a later
        # launch + run picks up where the previous run stopped
        net = Network(SingleBottleneck(2), PdqStack())
        net.launch([FlowSpec(fid=0, src="send0", dst="recv",
                             size_bytes=20 * KBYTE)])
        net.run_until_quiet(deadline=5.0)
        assert net.metrics.record(0).completed
        resumed_at = net.sim.now
        net.launch([FlowSpec(fid=1, src="send1", dst="recv",
                             size_bytes=20 * KBYTE,
                             arrival=resumed_at + 0.001)])
        net.run_until_quiet(deadline=5.0)
        assert net.metrics.record(1).completed
