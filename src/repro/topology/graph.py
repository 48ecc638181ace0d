"""The undirected graph behind :attr:`Topology.graph`.

A node-attribute dict plus a dict-of-dicts adjacency in which both
directions of an edge share one attribute dict. It answers the subset of
the ``networkx.Graph`` interface the simulators read, with the same
iteration order, so importing and building a topology needs no graph
library:

* ``nodes`` iterates in insertion order; ``nodes[n]`` is ``n``'s
  attribute dict and ``nodes(data=True)`` yields ``(n, attrs)``;
* ``edges()`` yields every edge once as ``(u, v)`` with ``u`` the
  endpoint inserted first, walking nodes in insertion order and each
  node's neighbours in edge-insertion order (networkx's rule, on which
  :meth:`Topology.directed_edge_index` and so every link id depends);
* ``edges(n, data=True)`` yields ``(n, nbr, attrs)`` for ``n``'s edges
  and ``edges[a, b]`` is the shared attribute dict of edge ``a -- b``.

Self-loops and parallel edges are not modelled: re-adding an edge
updates its attributes in place.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

Attrs = dict[str, Any]


class NodeView(dict[str, Attrs]):
    """Node name -> attribute dict, callable like networkx's ``nodes``."""

    def __call__(self, data: bool = False) -> Iterable[Any]:
        return self.items() if data else self.keys()


class EdgeView:
    """Callable edge listing; ``view[a, b]`` is the edge's attribute dict."""

    def __init__(self, adj: dict[str, dict[str, Attrs]]):
        self._adj = adj

    def __getitem__(self, edge: tuple[str, str]) -> Attrs:
        a, b = edge
        return self._adj[a][b]

    def __call__(self, node: str | None = None,
                 data: bool = False) -> list[Any]:
        if node is not None:
            nbrs = self._adj[node]
            if data:
                return [(node, nbr, attrs) for nbr, attrs in nbrs.items()]
            return [(node, nbr) for nbr in nbrs]
        out: list[Any] = []
        seen: set[str] = set()
        for u, nbrs in self._adj.items():
            for v, attrs in nbrs.items():
                if v not in seen:
                    out.append((u, v, attrs) if data else (u, v))
            seen.add(u)
        return out


class Graph:
    """Undirected simple graph with node and edge attribute dicts."""

    def __init__(self) -> None:
        self.nodes = NodeView()
        #: node -> neighbour -> attribute dict shared by both directions
        self.adj: dict[str, dict[str, Attrs]] = {}
        self.edges = EdgeView(self.adj)

    def __contains__(self, node: object) -> bool:
        return node in self.nodes

    def add_node(self, node: str, **attrs: Any) -> None:
        if node not in self.nodes:
            self.nodes[node] = {}
            self.adj[node] = {}
        self.nodes[node].update(attrs)

    def add_edge(self, u: str, v: str, **attrs: Any) -> None:
        """Join two existing nodes (a ``KeyError`` names a missing one)."""
        v_nbrs = self.adj[v]
        data = self.adj[u].setdefault(v, {})
        data.update(attrs)
        v_nbrs[u] = data

    def has_edge(self, u: str, v: str) -> bool:
        return u in self.adj and v in self.adj[u]

    def is_connected(self) -> bool:
        """True when a graph walk from the first node reaches every node."""
        if not self.adj:
            return False
        start = next(iter(self.adj))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nbr in self.adj[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return len(seen) == len(self.adj)
