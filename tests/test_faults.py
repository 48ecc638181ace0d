"""Fault injection (repro.faults): spec parsing, scheduled failures,
reroute in both engines, leak-free packet drops, and determinism.

The subsystem's contracts, in the order the classes test them: the
``faults`` spec field has a strict canonical form (additive — fault-free
specs hash exactly as before); scheduled link/switch failures reroute
live flows onto surviving paths in the packet AND fluid engines;
packets queued on or in flight across a failed link are dropped there
and nothing keeps them alive once the run drains; loss rules and the
``random_graph`` topology are seed-deterministic.
"""

import pytest

import pins
from repro.campaign.engines import run_flow_level, run_packet_level
from repro.campaign.registry import build_workload
from repro.campaign.spec import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.errors import CampaignError, FaultError, TopologyError
from repro.faults import FaultEvent, Faults, LossRule
from repro.topology.fattree import FatTree
from repro.topology.random_graph import RandomGraph
from repro.topology.single_bottleneck import SingleBottleneck
from repro.units import KBYTE
from repro.workload.flow import FlowSpec

LINK_DOWN = {"events": [
    {"time": 0.002, "action": "link_down", "a": "agg0_0", "b": "core0_0"},
]}


def _fattree_flows(n=8, size=200 * KBYTE):
    """A deterministic half-permutation on the 16-server fat-tree."""
    topo = FatTree.for_servers(16)
    hosts = topo.hosts
    flows = [
        FlowSpec(fid=i, src=hosts[i], dst=hosts[(i + 5) % len(hosts)],
                 size_bytes=size, arrival=0.0)
        for i in range(n)
    ]
    return topo, flows


# -- canonical form -----------------------------------------------------------------


class TestFaultSpec:
    def test_events_are_time_sorted_and_typed(self):
        events = Faults.from_dict({"events": [
            {"time": 0.2, "action": "switch_down", "node": "sw1"},
            {"time": 0.1, "action": "link_down", "a": "x", "b": "y"},
        ]}).events
        assert [e.time for e in events] == [0.1, 0.2]
        assert events[0] == FaultEvent(0.1, "link_down", "x", "y")
        assert events[0].is_link and not events[1].is_link

    def test_loss_rule_defaults_resolve_at_run_time(self):
        faults = {"loss": [{"src": "sw*", "dst": "*", "rate": 0.01}]}
        # omitted seed stays omitted in the canonical form (it would
        # otherwise bake one spec.seed into every sweep cell's hash) ...
        assert "seed" not in Faults.from_dict(faults).canonical()["loss"][0]
        # ... and resolves to the spec seed when rules are built
        spec = ScenarioSpec(protocol="TCP",
                            topology=TopologySpec("single_bottleneck"),
                            workload=WorkloadSpec("empty"), seed=7,
                            faults=faults)
        (rule,) = spec.loss_rules()
        assert rule == LossRule("sw*", "*", 0.01, 7, both_directions=True)

    @pytest.mark.parametrize("bad", [
        {},  # empty faults mapping is a spec error, not a no-op
        {"events": []},
        {"events": [{"time": 0.1, "action": "nuke", "a": "x", "b": "y"}]},
        {"events": [{"time": 0.1, "action": "link_down", "a": "x"}]},
        {"events": [{"time": 0.1, "action": "link_down",
                     "a": "x", "b": "x"}]},
        {"events": [{"time": -0.1, "action": "switch_down", "node": "s"}]},
        {"loss": [{"src": "a", "dst": "b", "rate": 1.5}]},
    ])
    def test_malformed_faults_are_rejected(self, bad):
        """The value checks of the faults schema; the wrong types,
        unknown keys and missing fields are ``test_spec_schema``'s."""
        with pytest.raises(FaultError):
            Faults.from_dict(bad)


class TestSpecIntegration:
    def _spec(self, **kw):
        return ScenarioSpec(
            protocol="PDQ(Full)",
            topology=TopologySpec("fattree", {"n_servers": 16}),
            workload=WorkloadSpec("fig8.permutation",
                                  {"flows_per_server": 1}),
            seed=1, sim_deadline=4.0, **kw,
        )

    def test_fault_free_hashes_are_unchanged(self):
        # additive canonicalization: no faults -> no "faults" key, so
        # every pre-subsystem stored result key still resolves
        assert "faults" not in self._spec().canonical()
        assert self._spec().key != self._spec(faults=LINK_DOWN).key

    def test_faults_roundtrip_through_from_dict(self):
        spec = self._spec(faults=LINK_DOWN)
        again = ScenarioSpec.from_dict(spec.canonical())
        assert again.key == spec.key
        assert again.fault_events() == spec.fault_events()

    def test_loss_rules_only_exist_in_the_packet_engine(self):
        with pytest.raises(CampaignError, match="packet"):
            self._spec(engine="flow",
                       faults={"loss": [{"src": "a", "dst": "b",
                                         "rate": 0.01}]})
        # scheduled events are engine-agnostic
        assert self._spec(engine="flow", faults=LINK_DOWN).fault_events()


# -- packet engine ------------------------------------------------------------------


class TestPacketFaults:
    def test_link_down_reroutes_live_flows(self):
        topo, flows = _fattree_flows()
        events = Faults.from_dict(LINK_DOWN).events
        collector = run_packet_level(topo, "PDQ(Full)", flows,
                                     sim_deadline=4.0, faults=events)
        assert collector.completed_count() == len(flows)
        assert collector.stats["faults.events_applied"] == 1
        assert collector.stats["faults.reroutes"] > 0

    def test_fault_counters_absent_without_faults(self):
        topo, flows = _fattree_flows(n=2)
        collector = run_packet_level(topo, "PDQ(Full)", flows,
                                     sim_deadline=4.0)
        assert not any(k.startswith("faults.") for k in collector.stats)

    def test_unknown_link_name_is_a_fault_error(self):
        topo, flows = _fattree_flows(n=2)
        events = (FaultEvent(0.001, "link_down", "agg0_0", "nope"),)
        with pytest.raises(FaultError, match="nope"):
            run_packet_level(topo, "PDQ(Full)", flows,
                             sim_deadline=4.0, faults=events)

    def test_severed_flows_are_terminated_not_hung(self):
        # the bottleneck fan-in has exactly one path per sender: cutting
        # send0's access link strands that flow with no reroute
        topo = SingleBottleneck(4)
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=400 * KBYTE, arrival=0.0)
                 for i in range(4)]
        events = (FaultEvent(0.0005, "link_down", "send0", "sw0"),)
        collector = run_packet_level(topo, "PDQ(Full)", flows,
                                     sim_deadline=4.0, faults=events)
        assert collector.stats["faults.flows_rejected"] == 1
        assert collector.completed_count() == 3

    @pytest.mark.parametrize("protocol", ["PDQ(Full)", "PDQ(ES)"])
    def test_rerouted_pdq_flows_do_not_stall(self, protocol):
        # a flow paused by agg1_1 kept that switch's id in pauseby after
        # its reroute; every switch on the new path passes such a flow
        # through untouched, so it probed forever and never sent
        topo = FatTree.for_servers(16)
        flows = build_workload("fig8.permutation", topo, 1,
                               {"flows_per_server": 1})
        events = (FaultEvent(0.001, "switch_down", node="agg1_1"),)
        collector = run_packet_level(topo, protocol, flows,
                                     sim_deadline=1.0, faults=events)
        assert collector.stats["faults.reroutes"] > 0
        assert collector.unfinished_count() == 0

    @pytest.mark.parametrize("protocol", ["PDQ(Full)", "TCP", "RCP", "D3"])
    def test_in_flight_drops_leave_no_packet_alive(self, protocol,
                                                   live_packets):
        from repro.net.network import Network
        from repro.faults.controller import FaultController
        from repro.campaign.engines import make_stack

        topo, flows = _fattree_flows()
        net = Network(topo, make_stack(protocol))
        controller = FaultController(net, Faults.from_dict(LINK_DOWN).events)
        controller.start()
        before = live_packets()
        net.launch(flows)
        net.run_until_quiet(deadline=4.0)
        # run_until_quiet stops at the last flow's resolution with ACK/
        # TERM trailers still in flight; drain them before the audit
        net.sim.run(until=4.0)
        assert controller.packets_dropped() > 0
        assert live_packets() == before


# -- fluid engine -------------------------------------------------------------------


class TestFluidFaults:
    def test_link_down_reroutes_live_flows(self):
        topo, flows = _fattree_flows()
        events = Faults.from_dict(LINK_DOWN).events
        collector = run_flow_level(topo, "PDQ(Full)", flows,
                                   sim_deadline=4.0, faults=events)
        assert collector.completed_count() == len(flows)
        assert collector.stats["faults.events_applied"] == 1
        assert collector.stats["faults.reroutes"] > 0

    def test_unknown_switch_name_is_a_fault_error(self):
        topo, flows = _fattree_flows(n=2)
        events = (FaultEvent(0.001, "switch_down", node="sw99"),)
        with pytest.raises(FaultError, match="sw99"):
            run_flow_level(topo, "PDQ(Full)", flows,
                           sim_deadline=4.0, faults=events)

    def test_severed_flows_are_terminated_not_hung(self):
        topo = SingleBottleneck(4)
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=400 * KBYTE, arrival=0.0)
                 for i in range(4)]
        events = (FaultEvent(0.0005, "link_down", "send0", "sw0"),)
        collector = run_flow_level(topo, "PDQ(Full)", flows,
                                   sim_deadline=4.0, faults=events)
        assert collector.stats["faults.flows_rejected"] == 1
        assert collector.completed_count() == 3

    def test_restored_link_admits_later_arrivals(self):
        # flap send0's only link: a flow arriving during the outage is
        # rejected, one arriving after link_up completes normally
        topo = SingleBottleneck(2)
        flows = [
            FlowSpec(fid=0, src="send0", dst="recv",
                     size_bytes=100 * KBYTE, arrival=0.002),
            FlowSpec(fid=1, src="send0", dst="recv",
                     size_bytes=100 * KBYTE, arrival=0.02),
        ]
        events = (FaultEvent(0.001, "link_down", "send0", "sw0"),
                  FaultEvent(0.01, "link_up", "send0", "sw0"))
        collector = run_flow_level(topo, "PDQ(Full)", flows,
                                   sim_deadline=4.0, faults=events)
        assert collector.completed_count() == 1
        assert collector.stats["faults.flows_rejected"] == 1


# -- determinism --------------------------------------------------------------------


def _four_senders(loss):
    """Four 200 KB TCP flows into one receiver, under ``loss``."""
    topo = SingleBottleneck(4)
    flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                      size_bytes=200 * KBYTE, arrival=0.0)
             for i in range(4)]
    return run_packet_level(topo, "TCP", flows, sim_deadline=4.0, loss=loss)


#: the ``faults`` family of ``tests/data/pins.json``: the run of one
#: exact-name rule on send0--sw0 (rate 0.02, seed 5), whose digest and
#: wire-loss count the retired ``(node_a, node_b, rate, seed)`` tuple
#: path produced too
PINNED = {"exact_rule": lambda: [
    _four_senders((LossRule("send0", "sw0", 0.02, 5),))]}


class TestDeterminism:
    def test_loss_rules_are_seed_deterministic(self):
        rule = (LossRule("sw0", "*", 0.02, 5),)
        a, b = _four_senders(rule), _four_senders(rule)
        assert a.stats["net.wire_losses"] > 0
        assert a.to_dict() == b.to_dict()

    def test_exact_rule_run_is_pinned(self):
        pins.assert_pinned("faults", "exact_rule", PINNED["exact_rule"]())

    @pytest.mark.parametrize("bad", [
        ["send0", "sw0", 0.02],
        "send0,sw0,0.02,5",
        {"a": "send0"},
        ["send0", "sw0", 2.0, 5],
        ["send0", "sw0", 0.02, "five"],
        ["send0", "sw0", 0.02, 5],
        [],
        0,
    ])
    def test_malformed_legacy_loss_list_is_rejected(self, bad):
        """The retired top-level loss list, well-formed or not, is an
        error that names the ``faults.loss`` rule replacing it."""
        with pytest.raises(CampaignError, match="retired.*faults.loss"):
            ScenarioSpec.from_dict({
                "protocol": "TCP",
                "topology": {"kind": "single_bottleneck"},
                "workload": {"kind": "fig9.aggregation"},
                "loss": bad,
            })

    def test_null_legacy_loss_slot_reads_as_no_loss(self):
        """``canonical()`` still emits ``"loss": null`` and the runner's
        workers read canonical forms back, so the null slot parses to
        the spec without it."""
        doc = {
            "protocol": "TCP",
            "topology": {"kind": "single_bottleneck"},
            "workload": {"kind": "fig9.aggregation"},
        }
        spec = ScenarioSpec.from_dict(doc)
        assert ScenarioSpec.from_dict({**doc, "loss": None}) == spec
        assert spec.canonical()["loss"] is None
        assert ScenarioSpec.from_dict(spec.canonical()).key == spec.key

    def test_zero_match_rule_is_an_error(self):
        with pytest.raises(FaultError, match="match"):
            _four_senders((LossRule("no_such_node", "*", 0.01, 5),))

    def test_random_graph_is_seed_deterministic(self):
        def edges(seed):
            return sorted(RandomGraph(n_switches=10, seed=seed).graph.edges())

        assert edges(3) == edges(3)
        assert edges(3) != edges(4)

    def test_random_graph_validates_parameters(self):
        with pytest.raises(TopologyError):
            RandomGraph(n_switches=1)
        with pytest.raises(TopologyError):
            RandomGraph(n_switches=4, hosts_per_switch=0)
