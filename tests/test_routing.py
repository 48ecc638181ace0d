"""Tests for ECMP routing, path pinning, and the link-id contract that
lets one router serve both engines."""

import random

import pytest

from repro.campaign.engines import run_flow_level, run_packet_level
from repro.core.stack import PdqStack
from repro.errors import RoutingError, TopologyError
from repro.faults import FaultController, FaultEvent
from repro.flowsim import FlowLevelSimulation, RcpModel
from repro.net.network import Network
from repro.net.routing import Router, ecmp_hash
from repro.topology import BCube, FatTree, SingleRootedTree
from repro.topology.random_graph import RandomGraph
from repro.units import MBYTE, MSEC
from repro.workload.flow import FlowSpec


@pytest.fixture(scope="module")
def fattree_net():
    return Network(FatTree(4), PdqStack())


class TestEcmpHash:
    def test_deterministic(self):
        assert ecmp_hash(42, 7) == ecmp_hash(42, 7)

    def test_varies_with_flow(self):
        values = {ecmp_hash(fid, 3) % 4 for fid in range(64)}
        assert len(values) > 1

    def test_nonnegative(self):
        for fid in range(100):
            assert ecmp_hash(fid, fid * 3) >= 0


class TestRouter:
    def test_path_connects_endpoints(self, fattree_net):
        net = fattree_net
        path = net.flow_path(1, "h0", "h15")
        assert path[0].src is net.node("h0")
        assert path[-1].dst is net.node("h15")
        for a, b in zip(path, path[1:], strict=False):
            assert a.dst is b.src

    def test_path_is_shortest(self, fattree_net):
        net = fattree_net
        # inter-pod in a fat-tree: host-edge-agg-core-agg-edge-host = 6 links
        assert len(net.flow_path(1, "h0", "h15")) == 6

    def test_path_pinned_per_flow(self, fattree_net):
        net = fattree_net
        assert net.flow_path(5, "h0", "h15") == net.flow_path(5, "h0", "h15")

    def test_different_flows_spread_over_paths(self, fattree_net):
        net = fattree_net
        cores = set()
        for fid in range(64):
            path = net.flow_path(fid, "h0", "h15")
            cores.add(path[2].dst.name)  # the core switch
        assert len(cores) > 1  # ECMP actually uses the path diversity

    def test_reverse_path_is_exact_mirror(self, fattree_net):
        net = fattree_net
        fwd = net.flow_path(9, "h0", "h15")
        rev = net.reverse_path(fwd)
        assert [lk.reverse for lk in rev] == list(reversed(fwd))

    def test_no_route_to_self(self, fattree_net):
        with pytest.raises(RoutingError):
            fattree_net.flow_path(1, "h0", "h0")

    def test_bcube_paths_may_relay_through_hosts(self):
        net = Network(BCube(2, 3), PdqStack())
        # h0 (0000) to h3 (0011) differ in two digits: 4-link path via a
        # relay server
        path = net.flow_path(1, "h0", "h3")
        assert len(path) == 4
        relay_names = {link.dst.name for link in path[:-1]}
        assert any(name.startswith("h") for name in relay_names)

    def test_endpoints_must_be_hosts(self, fattree_net):
        with pytest.raises(TopologyError, match="'hX'"):
            fattree_net.flow_path(1, "h0", "hX")
        with pytest.raises(TopologyError, match="not a host"):
            fattree_net.flow_path(1, "agg0_0", "h15")


TOPOLOGIES = {
    "fattree": lambda: FatTree(4),
    "single_rooted": lambda: SingleRootedTree(),
    "bcube": lambda: BCube(2, 2),
    "random_graph": lambda: RandomGraph(n_switches=8, seed=3),
}


class TestLinkIds:
    """``Network`` numbers its links with the router's directed-edge
    ids, so ``net.flow_path`` is the router's path by construction."""

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_link_ids_are_edge_ids(self, name):
        topo = TOPOLOGIES[name]()
        net = Network(topo, PdqStack())
        index = topo.directed_edge_index()
        assert len(net.links) == len(index)
        for (a, b), eid in index.items():
            link = net.links[eid]
            assert link.link_id == eid
            assert (link.src.name, link.dst.name) == (a, b)
            assert net.links[eid ^ 1] is link.reverse


class TestGraphRouterAgreement:
    """Each engine builds its own Router; the two instances must agree
    (Fig 8's cross-validation relies on it)."""

    def test_path_lengths_agree(self):
        topo = FatTree(4)
        net = Network(topo, PdqStack())
        flow_router = FlowLevelSimulation(topo, RcpModel()).router
        for fid in range(8):
            assert len(flow_router.flow_path_ids(fid, "h0", "h15")) == len(
                net.flow_path(fid, "h0", "h15"))


class TestEdgeIndex:
    """The dense directed-edge index contract (see
    Topology.directed_edge_index)."""

    def test_ids_are_dense_and_paired(self):
        topo = FatTree(4)
        index = topo.directed_edge_index()
        n = 2 * len(topo.graph.edges())
        assert sorted(index.values()) == list(range(n))
        for (a, b), eid in index.items():
            reverse = index[(b, a)]
            # forward/reverse ids differ only in the low bit
            assert reverse // 2 == eid // 2
            assert reverse != eid

    def test_index_is_cached_and_invalidated_on_add_link(self):
        topo = SingleRootedTree()
        first = topo.directed_edge_index()
        assert topo.directed_edge_index() is first
        topo.add_switch("extra_sw")
        topo.add_link("h0", "extra_sw")
        second = topo.directed_edge_index()
        assert second is not first
        assert len(second) == len(first) + 2

    def test_flow_path_ids_chain_from_src_to_dst(self):
        """The dense ids of a pinned path name consecutive directed
        edges of the graph, from the flow's source to its destination."""
        topo = FatTree(4)
        router = Router(topo)
        edge_of = {eid: edge for edge, eid in router.edge_index.items()}
        src, dst = topo.hosts[0], topo.hosts[-1]
        for fid in range(6):
            edges = [edge_of[eid] for eid in router.flow_path_ids(fid, src,
                                                                   dst)]
            assert edges[0][0] == src and edges[-1][1] == dst
            for (_, b), (a, _) in zip(edges, edges[1:]):
                assert b == a

    def test_capacity_vector_matches_the_graph(self):
        topo = FatTree(4)
        router = Router(topo)
        vector = router.capacity_vector()
        assert len(vector) == 2 * len(topo.graph.edges())
        for (a, b), eid in router.edge_index.items():
            assert vector[eid] == topo.graph.edges[a, b]["rate_bps"]
        assert all(rate > 0 for rate in vector)


def _random_lookups(topo, n=200, seed=14):
    """``n`` distinct fids, each between a random pair of hosts."""
    rng = random.Random(seed)
    hosts = topo.hosts
    return [(fid, *rng.sample(hosts, 2))
            for fid in rng.sample(range(1_000_000), n)]


class TestFaultRouting:
    """The FaultController derives one down set, flips ``Link.up`` from
    it and hands the same set to the router; rerouted senders (and their
    receivers) move off the failed cable."""

    @pytest.mark.parametrize("name",
                             ["fattree", "random_graph", "single_rooted"])
    def test_link_flap_reroutes_around_both_ids(self, name):
        topo = TOPOLOGIES[name]()
        net = Network(topo, PdqStack())
        lookups = _random_lookups(topo, n=40)
        # fail the middle cable of one pinned path, then restore it
        ids = net.router.flow_path_ids(*lookups[0])
        down = ids[len(ids) // 2]
        a, b = net.router.edges[down]
        controller = FaultController(net, [
            FaultEvent(0.5 * MSEC, "link_down", a, b),
            FaultEvent(1.0 * MSEC, "link_up", b, a),
        ])
        controller.start()
        net.launch([FlowSpec(fid=fid, src=src, dst=dst, size_bytes=MBYTE)
                    for fid, src, dst in lookups])

        net.run(until=0.75 * MSEC)
        failed = {down, down ^ 1}
        assert not net.links[down].up and not net.links[down ^ 1].up
        for fid, src, dst in lookups:
            try:
                path = net.router.flow_path_ids(fid, src, dst)
            except RoutingError:
                continue  # a tree has no second path: the pair is cut off
            assert failed.isdisjoint(path)
        assert controller.reroutes + controller.flows_rejected > 0
        live = 0
        for fid, src, dst in lookups:
            sender = net.host(src).senders.get(fid)
            if sender is None or sender.term_sent:
                continue  # rejected: its TERM went down the dead path
            live += 1
            assert failed.isdisjoint(link.link_id for link in sender.path)
            receiver = net.host(dst).receivers[fid]
            assert receiver.path == net.reverse_path(sender.path)
        assert live > 0

        net.run(until=1.25 * MSEC)
        assert net.links[down].up and net.links[down ^ 1].up
        assert net.router.flow_path_ids(*lookups[0]) == ids


class TestUnknownHosts:
    """Both engines reject a flow naming a node the topology lacks the
    same way, with or without a fault schedule."""

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["no_faults", "faults"])
    @pytest.mark.parametrize("end", ["src", "dst"])
    @pytest.mark.parametrize("run", [run_packet_level, run_flow_level],
                             ids=["packet", "fluid"])
    def test_unknown_host_is_a_topology_error(self, run, end, faulted):
        topo = FatTree.for_servers(16)
        pair = {"src": "h0", "dst": "h15", end: "hX"}
        flows = [FlowSpec(fid=0, src="h1", dst="h2", size_bytes=MBYTE),
                 FlowSpec(fid=1, size_bytes=MBYTE, **pair)]
        faults = ([FaultEvent(0.0, "link_down", "agg0_0", "core0_0")]
                  if faulted else None)
        with pytest.raises(TopologyError, match="unknown node 'hX'"):
            run(topo, "PDQ(Full)", flows, sim_deadline=1.0, faults=faults)


class TestPathTemplates:
    """The router keeps one path per (src, dst) pair whose walk never
    needed the ECMP hash, and walks the rest per fid."""

    def test_fattree_has_both_kinds_of_pair(self):
        topo = FatTree(4)
        router = Router(topo)
        # h0 and h1 share an edge switch: one path, whatever the fid
        assert router.flow_path_ids(1, "h0", "h1") \
            is router.flow_path_ids(2, "h0", "h1")
        # h0 -> h15 crosses pods: the fid picks among the cores
        assert len({router.flow_path_ids(fid, "h0", "h15")
                    for fid in range(64)}) > 1

    @pytest.mark.parametrize("topo_factory", [
        lambda: SingleRootedTree(), lambda: FatTree(4),
    ], ids=["single_rooted", "fattree"])
    def test_caches_are_bounded_by_host_pairs_not_by_flows(self,
                                                           topo_factory):
        topo = topo_factory()
        router = Router(topo)
        rng = random.Random(14)
        hosts = topo.hosts
        for fid in range(50_000):
            router.flow_path_ids(fid, *rng.sample(hosts, 2))
        pairs = len(hosts) * (len(hosts) - 1)
        assert len(router._templates) <= pairs
        assert len(router._dist_cache) <= len(hosts)

    def test_stream_walks_each_host_pair_at_most_once(self, monkeypatch,
                                                      stream_vl2):
        """A count, not a timing: on a tree a 2 000-flow stream may walk
        the graph once per host pair and never again."""
        walks = []
        walk = Router._walk
        monkeypatch.setattr(
            Router, "_walk",
            lambda self, fid, src, dst: walks.append((src, dst))
            or walk(self, fid, src, dst))
        topo, stream = stream_vl2(2_000)
        sim = FlowLevelSimulation(topo, RcpModel())
        collector = sim.run(stream, deadline=stream.horizon)
        assert len(collector.records) > 1_500
        pairs = len(topo.hosts) * (len(topo.hosts) - 1)
        assert len(walks) == len(set(walks)) <= pairs
        assert len(sim._path_costs) <= pairs
