"""Tests for ECMP routing, path pinning, and packet/flow-level agreement."""

import random

import pytest

from repro.core.stack import PdqStack
from repro.errors import RoutingError
from repro.flowsim import FlowLevelSimulation, RcpModel
from repro.flowsim.paths import GraphRouter
from repro.net.network import Network
from repro.net.routing import ecmp_hash
from repro.topology import BCube, FatTree, SingleRootedTree
from repro.topology.random_graph import RandomGraph


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
        src, dst = net.node("h0"), net.node("h15")
        path = net.router.flow_path(1, src.id, dst.id)
        assert path[0].src is src
        assert path[-1].dst is dst
        for a, b in zip(path, path[1:], strict=False):
            assert a.dst is b.src

    def test_path_is_shortest(self, fattree_net):
        net = fattree_net
        src, dst = net.node("h0"), net.node("h15")
        # inter-pod in a fat-tree: host-edge-agg-core-agg-edge-host = 6 links
        assert len(net.router.flow_path(1, src.id, dst.id)) == 6
        assert net.router.hop_count(src.id, dst.id) == 6

    def test_path_pinned_per_flow(self, fattree_net):
        net = fattree_net
        src, dst = net.node("h0"), net.node("h15")
        assert net.router.flow_path(5, src.id, dst.id) is net.router.flow_path(
            5, src.id, dst.id
        )

    def test_different_flows_spread_over_paths(self, fattree_net):
        net = fattree_net
        src, dst = net.node("h0"), net.node("h15")
        cores = set()
        for fid in range(64):
            path = net.router.flow_path(fid, src.id, dst.id)
            cores.add(path[2].dst.name)  # the core switch
        assert len(cores) > 1  # ECMP actually uses the path diversity

    def test_reverse_path_is_exact_mirror(self, fattree_net):
        net = fattree_net
        src, dst = net.node("h0"), net.node("h15")
        fwd = net.router.flow_path(9, src.id, dst.id)
        rev = net.router.reverse_path(fwd)
        assert [lk.reverse for lk in rev] == list(reversed(fwd))

    def test_no_route_to_self(self, fattree_net):
        net = fattree_net
        h0 = net.node("h0")
        with pytest.raises(RoutingError):
            net.router.flow_path(1, h0.id, h0.id)

    def test_bcube_paths_may_relay_through_hosts(self):
        net = Network(BCube(2, 3), PdqStack())
        src, dst = net.node("h0"), net.node("h3")
        # h0 (0000) to h3 (0011) differ in two digits: 4-link path via a
        # relay server
        path = net.router.flow_path(1, src.id, dst.id)
        assert len(path) == 4
        relay_names = {link.dst.name for link in path[:-1]}
        assert any(name.startswith("h") for name in relay_names)


class TestGraphRouterAgreement:
    """The flow-level GraphRouter must pick the same paths as the
    packet-level Router (Fig 8's cross-validation relies on it)."""

    @pytest.mark.parametrize("topo_factory", [
        lambda: FatTree(4),
        lambda: SingleRootedTree(),
        lambda: BCube(2, 2),
    ])
    def test_same_paths_both_levels(self, topo_factory):
        topo = topo_factory()
        net = Network(topo, PdqStack())
        graph_router = GraphRouter(topo)
        hosts = topo.hosts
        for fid, (src, dst) in enumerate(
            [(hosts[0], hosts[-1]), (hosts[1], hosts[2]),
             (hosts[0], hosts[len(hosts) // 2])]
        ):
            if src == dst:
                continue
            pkt_path = net.router.flow_path(
                fid, net.node(src).id, net.node(dst).id
            )
            pkt_names = [(lk.src.name, lk.dst.name) for lk in pkt_path]
            flow_path = graph_router.flow_path(fid, src, dst)
            assert pkt_names == list(flow_path)

    def test_hop_count_agrees(self):
        topo = FatTree(4)
        net = Network(topo, PdqStack())
        graph_router = GraphRouter(topo)
        assert graph_router.hop_count("h0", "h15") == net.router.hop_count(
            net.node("h0").id, net.node("h15").id
        )

    def test_capacities_cover_all_directed_edges(self):
        topo = SingleRootedTree()
        caps = GraphRouter(topo).capacities()
        assert len(caps) == 2 * topo.graph.number_of_edges()
        assert all(v > 0 for v in caps.values())


class TestEdgeIndex:
    """The dense directed-edge index contract (see
    Topology.directed_edge_index)."""

    def test_ids_are_dense_and_paired(self):
        topo = FatTree(4)
        index = topo.directed_edge_index()
        n = 2 * topo.graph.number_of_edges()
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

    def test_flow_path_ids_match_named_paths(self):
        topo = FatTree(4)
        router = GraphRouter(topo)
        index = router.edge_index
        hosts = topo.hosts
        for fid in range(6):
            named = router.flow_path(fid, hosts[0], hosts[-1])
            ids = router.flow_path_ids(fid, hosts[0], hosts[-1])
            assert ids == tuple(index[edge] for edge in named)

    def test_capacity_vector_matches_capacity_dict(self):
        topo = FatTree(4)
        router = GraphRouter(topo)
        vector = router.capacity_vector()
        caps = router.capacities()
        assert len(vector) == len(caps)
        for edge, eid in router.edge_index.items():
            assert vector[eid] == caps[edge]


def _random_lookups(topo, n=200, seed=14):
    rng = random.Random(seed)
    hosts = topo.hosts
    return [(rng.randrange(1_000_000), *rng.sample(hosts, 2))
            for _ in range(n)]


class TestPathTemplates:
    """GraphRouter keeps one path per (src, dst) pair whose walk never
    needed the ECMP hash, and walks the rest per fid. Either way the
    result is the per-fid walk of the packet-level Router, an
    independent implementation of the same pinning rule."""

    @staticmethod
    def _assert_agrees(router, net, lookups):
        for fid, src, dst in lookups:
            args = (fid, net.node(src).id, net.node(dst).id)
            try:
                expected = tuple(lk.link_id
                                 for lk in net.router.flow_path(*args))
            except RoutingError:
                with pytest.raises(RoutingError):
                    router.flow_path_ids(fid, src, dst)
                continue
            assert router.flow_path_ids(fid, src, dst) == expected

    @pytest.mark.parametrize("topo_factory", [
        lambda: SingleRootedTree(),
        lambda: FatTree(4),
        lambda: RandomGraph(n_switches=8, seed=3),
    ], ids=["single_rooted", "fattree", "random_graph"])
    def test_same_links_as_packet_router_across_a_link_flap(self,
                                                           topo_factory):
        topo = topo_factory()
        net = Network(topo, PdqStack())
        router = GraphRouter(topo)
        lookups = _random_lookups(topo)
        self._assert_agrees(router, net, lookups)

        # fail the middle cable of one pinned path, both directions
        ids = router.flow_path_ids(*lookups[0])
        down = ids[len(ids) // 2]
        cable = (net.links[down], net.links[down].reverse)
        for link in cable:
            link.fail()
        net.router.invalidate_routes()
        router.set_down_edges({link.link_id for link in cable})
        self._assert_agrees(router, net, lookups)
        try:
            detour = router.flow_path_ids(*lookups[0])
        except RoutingError:
            detour = ()  # a tree has no second path: the pair is cut off
        assert down not in detour

        for link in cable:
            link.restore()
        net.router.invalidate_routes()
        router.set_down_edges(())
        self._assert_agrees(router, net, lookups)
        assert router.flow_path_ids(*lookups[0]) == ids

    def test_fattree_has_both_kinds_of_pair(self):
        topo = FatTree(4)
        router = GraphRouter(topo)
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
        router = GraphRouter(topo)
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
        walk = GraphRouter._walk
        monkeypatch.setattr(
            GraphRouter, "_walk",
            lambda self, fid, src, dst: walks.append((src, dst))
            or walk(self, fid, src, dst))
        topo, stream = stream_vl2(2_000)
        sim = FlowLevelSimulation(topo, RcpModel())
        collector = sim.run(stream, deadline=stream.horizon)
        assert len(collector.records) > 1_500
        pairs = len(topo.hosts) * (len(topo.hosts) - 1)
        assert len(walks) == len(set(walks)) <= pairs
        assert len(sim._path_costs) <= pairs
