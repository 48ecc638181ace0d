"""Topology base class.

A topology is an undirected :class:`~repro.topology.graph.Graph` whose
nodes carry a ``kind`` attribute (``"host"`` or ``"switch"``) and whose
edges carry ``rate_bps``. Edge orientation is part of the contract:
``graph.edges()`` yields each edge once as ``(u, v)`` with ``u`` the
endpoint added first, in node-insertion then edge-insertion order, and
:meth:`Topology.directed_edge_index` numbers the sorted ``(u, v)`` tuples,
so link ids, ECMP next-hop order and every pinned digest depend on it.
The packet-level :class:`~repro.net.network.Network` instantiates one
:class:`~repro.net.link.Link` per direction per edge; the flow-level
simulator consumes the same graph directly.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.graph import Graph
from repro.units import GBPS


class Topology:
    """Base topology; subclasses populate :attr:`graph` in ``_build``."""

    def __init__(self, default_rate_bps: float = 1 * GBPS):
        self.default_rate_bps = default_rate_bps
        self.graph = Graph()
        self._edge_index: dict[tuple[str, str], int] | None = None

    # -- construction helpers (used by subclasses) ------------------------------

    def add_host(self, name: str) -> str:
        self.graph.add_node(name, kind="host")
        return name

    def add_switch(self, name: str) -> str:
        self.graph.add_node(name, kind="switch")
        return name

    def add_link(self, a: str, b: str, rate_bps: float | None = None) -> None:
        if a not in self.graph or b not in self.graph:
            raise TopologyError(f"link endpoints must exist: {a}, {b}")
        self.graph.add_edge(a, b, rate_bps=rate_bps or self.default_rate_bps)
        self._edge_index = None  # ids are assigned over the final edge set

    # -- accessors ----------------------------------------------------------------

    @property
    def hosts(self) -> list[str]:
        return sorted(
            n for n, d in self.graph.nodes(data=True) if d["kind"] == "host"
        )

    def directed_edge_index(self) -> dict[tuple[str, str], int]:
        """Dense integer id for every *directed* edge.

        Contract (relied on by :class:`~repro.net.routing.Router` and the
        flow-level engine's flat capacity vectors):

        * ids are dense in ``[0, 2 * |E|)``;
        * undirected edges are visited in ``sorted(graph.edges())`` order;
          the edge's stored orientation ``(a, b)`` gets the even id ``2k``
          and the reverse ``(b, a)`` gets ``2k + 1``. The packet-level
          :class:`~repro.net.network.Network` reads this assignment to
          number its Links, so edge ids and Link ids coincide;
        * the mapping is deterministic for a given topology and cached;
          :meth:`add_link` invalidates the cache, so ids are only stable
          once the topology stops being mutated.
        """
        if self._edge_index is None:
            index: dict[tuple[str, str], int] = {}
            eid = 0
            for a, b in sorted(self.graph.edges()):
                index[(a, b)] = eid
                index[(b, a)] = eid + 1
                eid += 2
            self._edge_index = index
        return self._edge_index

    def validate(self) -> None:
        """Sanity checks shared by all topologies."""
        if not self.hosts:
            raise TopologyError("topology has no hosts")
        if not self.graph.is_connected():
            raise TopologyError("topology is not connected")
        for _, _, data in self.graph.edges(data=True):
            if not data["rate_bps"] > 0:  # NaN fails it too
                raise TopologyError(
                    f"non-positive or NaN link rate {data['rate_bps']!r}")
