"""The in-repo topology graph against networkx as the oracle.

Every topology records the ``add_node`` / ``add_edge`` calls its builder
makes; the same calls replayed into an ``nx.Graph`` must give the same
node order, edge orientation and order, attributes, degrees and directed
edge ids, since link ids, ECMP next-hop order and every pinned digest
derive from them.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, strategies as st

import repro
import repro.topology.base as topology_base
from repro.campaign.registry import build_topology
from repro.errors import TopologyError
from repro.topology import Topology
from repro.topology.graph import Graph


class RecordingGraph(Graph):
    """A :class:`Graph` that logs every mutation for replay."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def add_node(self, node, **attrs):
        self.calls.append(("add_node", (node,), attrs))
        super().add_node(node, **attrs)

    def add_edge(self, u, v, **attrs):
        self.calls.append(("add_edge", (u, v), attrs))
        super().add_edge(u, v, **attrs)


def replay(calls):
    oracle = nx.Graph()
    for method, args, attrs in calls:
        getattr(oracle, method)(*args, **attrs)
    return oracle


def reference_index(oracle):
    """``directed_edge_index`` computed by the same method over networkx."""
    ref = Topology()
    ref.graph = oracle
    return ref.directed_edge_index()


def assert_agree(topo, oracle):
    graph = topo.graph
    assert list(graph.nodes(data=True)) == list(oracle.nodes(data=True))
    assert list(graph.nodes()) == list(oracle.nodes())
    assert graph.edges(data=True) == list(oracle.edges(data=True))
    assert graph.edges() == list(oracle.edges())
    for host in topo.hosts:
        assert (graph.edges(host, data=True)
                == list(oracle.edges(host, data=True)))
    for node in oracle.nodes():
        assert len(graph.adj[node]) == oracle.degree[node]
        assert list(graph.adj[node]) == list(oracle.adj[node])
    for u, v in oracle.edges():
        assert graph.has_edge(u, v) and graph.has_edge(v, u)
        assert graph.edges[u, v] is graph.edges[v, u]
    hosts = topo.hosts
    assert (graph.has_edge(hosts[0], hosts[-1])
            == oracle.has_edge(hosts[0], hosts[-1]))
    assert len(graph.nodes) == oracle.number_of_nodes()
    assert graph.is_connected() == nx.is_connected(oracle)
    assert topo.directed_edge_index() == reference_index(oracle)


CASES = [
    ("single_rooted", {}),
    ("single_bottleneck", {"n_senders": 5}),
    ("fattree", {"n_servers": 16}),
    ("fattree", {"n_servers": 128}),
    ("bcube", {"n_servers": 16}),
    ("jellyfish", {"n_servers": 24, "seed": 1}),
    ("jellyfish", {"n_servers": 24, "seed": 7}),
    ("random_graph", {"n_switches": 10, "seed": 1}),
    ("random_graph", {"n_switches": 10, "seed": 4}),
]


@pytest.mark.parametrize(
    "kind,params", CASES,
    ids=[f"{kind}-{'-'.join(map(str, p.values()))}" for kind, p in CASES])
def test_topology_matches_networkx_replay(monkeypatch, kind, params):
    monkeypatch.setattr(topology_base, "Graph", RecordingGraph)
    topo = build_topology(kind, params)
    assert isinstance(topo.graph, RecordingGraph)
    assert_agree(topo, replay(topo.graph.calls))


names = st.sampled_from([f"n{i}" for i in range(8)])


@given(st.lists(st.tuples(names, names).filter(lambda e: e[0] != e[1]),
                max_size=30),
       st.integers(min_value=1, max_value=3))
def test_arbitrary_insertion_order_matches_networkx(pairs, rate):
    """Edges added in any order, some re-added with a new rate: the
    stored orientation and the attribute update follow networkx."""
    topo = Topology()
    topo.graph = RecordingGraph()
    for i in range(8):
        topo.add_host(f"n{i}")
    for k, (a, b) in enumerate(pairs):
        topo.add_link(a, b, rate_bps=rate + k)
    assert_agree(topo, replay(topo.graph.calls))


class TestValidate:
    def test_disconnected_topology_raises(self):
        topo = Topology()
        for name in ("h0", "h1", "h2"):
            topo.add_host(name)
        topo.add_link("h0", "h1")
        with pytest.raises(TopologyError, match="not connected"):
            topo.validate()
        topo.add_link("h1", "h2")
        topo.validate()

    def test_zero_rate_link_raises(self):
        topo = build_topology("single_rooted", {})
        topo.validate()
        a, b = topo.graph.edges()[0]
        topo.graph.edges[a, b]["rate_bps"] = 0.0
        with pytest.raises(TopologyError, match="non-positive"):
            topo.validate()


def test_networkx_is_imported_only_by_random_topologies():
    script = textwrap.dedent("""
        import sys
        import repro, repro.campaign, repro.experiments
        from repro.campaign.registry import build_topology
        build_topology("single_bottleneck", {"n_senders": 4})
        build_topology("single_rooted", {})
        build_topology("fattree", {"n_servers": 16})
        build_topology("bcube", {"n_servers": 16})
        assert "networkx" not in sys.modules, "imported too early"
        build_topology("jellyfish", {"n_servers": 24})
        assert "networkx" in sys.modules, "jellyfish did not import it"
    """)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
