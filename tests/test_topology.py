"""Tests for the five topology builders."""

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.topology import (
    BCube,
    FatTree,
    Jellyfish,
    SingleBottleneck,
    SingleRootedTree,
)


class TestSingleBottleneck:
    def test_structure(self):
        topo = SingleBottleneck(5)
        assert len(topo.hosts) == 6  # 5 senders + receiver
        assert len(topo.graph.nodes) == 6 + 1  # one switch
        assert len(topo.graph.edges()) == 6

    def test_every_sender_two_hops_from_receiver(self):
        topo = SingleBottleneck(3)
        graph = nx.Graph(topo.graph.edges())
        for sender in topo.senders:
            assert nx.shortest_path_length(graph, sender, "recv") == 2

    def test_rejects_zero_senders(self):
        with pytest.raises(TopologyError):
            SingleBottleneck(0)


class TestSingleRootedTree:
    def test_paper_default_is_17_nodes(self):
        topo = SingleRootedTree()
        assert len(topo.hosts) == 12
        assert len(topo.graph.nodes) == 12 + 5  # 4 ToR + root
        assert len(topo.graph.edges()) == 16

    def test_rack_membership(self):
        topo = SingleRootedTree()
        assert topo.rack_of("h0") == 0
        assert topo.rack_of("h3") == 1
        assert topo.same_rack("h0", "h2")
        assert not topo.same_rack("h0", "h3")

    def test_rack_of_unknown_host(self):
        with pytest.raises(TopologyError):
            SingleRootedTree().rack_of("h99")

    def test_intra_rack_two_hops_inter_rack_four(self):
        graph = nx.Graph(SingleRootedTree().graph.edges())
        assert nx.shortest_path_length(graph, "h0", "h1") == 2
        assert nx.shortest_path_length(graph, "h0", "h3") == 4


class TestFatTree:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_host_count(self, k):
        assert len(FatTree(k).hosts) == k ** 3 // 4

    def test_switch_count_k4(self):
        topo = FatTree(4)
        # 16 hosts; (k/2)^2 core + k pods * (k/2 agg + k/2 edge)
        assert len(topo.graph.nodes) == 16 + 4 + 4 * 4

    def test_rejects_odd_k(self):
        with pytest.raises(TopologyError):
            FatTree(3)

    def test_multipath_between_pods(self):
        topo = FatTree(4)
        graph = nx.Graph(topo.graph.edges())
        paths = list(nx.all_shortest_paths(graph, "h0", "h15"))
        assert len(paths) == 4  # (k/2)^2 core paths

    def test_for_servers_picks_smallest_k(self):
        assert FatTree.for_servers(16).k == 4
        assert FatTree.for_servers(17).k == 6
        assert FatTree.for_servers(128).k == 8


class TestBCube:
    def test_bcube_2_3_dimensions(self):
        topo = BCube(2, 3)
        assert topo.n_servers == 16
        assert len(topo.hosts) == 16
        # (k+1) levels of n^k switches
        assert len(topo.graph.nodes) == 16 + 4 * 8

    def test_every_host_has_k_plus_1_links(self):
        topo = BCube(2, 3)
        for host in topo.hosts:
            assert len(topo.graph.adj[host]) == 4

    def test_address_roundtrip(self):
        topo = BCube(2, 3)
        assert topo.address(0) == (0, 0, 0, 0)
        assert topo.address(15) == (1, 1, 1, 1)
        assert topo.address(5) == (0, 1, 0, 1)

    def test_parallel_paths_count(self):
        topo = BCube(2, 3)
        # one disjoint path per differing address digit
        assert len(topo.disjoint_paths("h0", "h15")) == 4
        assert len(topo.disjoint_paths("h0", "h1")) == 1

    def test_rejects_bad_params(self):
        with pytest.raises(TopologyError):
            BCube(1, 2)
        with pytest.raises(TopologyError):
            BCube(2, -1)


class TestJellyfish:
    def test_structure(self):
        topo = Jellyfish(n_switches=6, switch_ports=6)
        # default split: 4 network ports, 2 hosts per switch
        assert len(topo.hosts) == 12
        assert len(topo.graph.nodes) == 12 + 6

    def test_switch_fabric_is_regular(self):
        topo = Jellyfish(n_switches=8, switch_ports=6, seed=3)
        for s in range(topo.n_switches):
            fabric_degree = sum(
                1 for nb in topo.graph.adj[f"sw{s}"]
                if topo.graph.nodes[nb]["kind"] == "switch"
            )
            assert fabric_degree == topo.network_ports

    def test_connected(self):
        topo = Jellyfish(n_switches=10, switch_ports=9, seed=1)
        assert nx.is_connected(nx.Graph(topo.graph.edges()))

    def test_for_servers(self):
        topo = Jellyfish.for_servers(24)
        assert len(topo.hosts) >= 24

    def test_rejects_tiny(self):
        with pytest.raises(TopologyError):
            Jellyfish(n_switches=2)


class TestTopologyBase:
    def test_nodes_are_the_hosts_and_the_switches(self):
        """Every node is a host or a switch, and the ``hosts`` list
        names each host-kind node once."""
        for topo in [SingleBottleneck(3), SingleRootedTree(), FatTree(4),
                     BCube(2, 2), Jellyfish(6, 6)]:
            nodes = topo.graph.nodes
            kinds = {nodes[n]["kind"] for n in nodes}
            assert kinds == {"host", "switch"}
            assert len(set(topo.hosts)) == len(topo.hosts)
            assert set(topo.hosts) == {n for n in nodes
                                       if nodes[n]["kind"] == "host"}

    def test_all_rates_positive(self):
        for topo in [SingleBottleneck(3), SingleRootedTree(), FatTree(4),
                     BCube(2, 2), Jellyfish(6, 6)]:
            topo.validate()
