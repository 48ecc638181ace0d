"""Flow-level ECMP routing with pinned, symmetric paths.

The paper assumes flow-level equal-cost multi-path forwarding (§3.3.1, §6).
We reproduce that: for each flow the router picks one of the shortest paths
by a deterministic hash of (flow id, node id) at every fan-out, pins it for
the flow's lifetime, and ACKs ride the exact reverse links so switch state
sits on the round-trip path (required by PDQ's two-phase acceptance).

One :class:`Router` serves both engines. It walks the bare topology graph
and answers in the dense directed-edge ids of
:meth:`~repro.topology.base.Topology.directed_edge_index`: the fluid
engine indexes its flat capacity list with them, and the packet
:class:`~repro.net.network.Network` builds the Link of edge ``eid`` with
link id ``eid``, so both engines pin a flow on the same path by
construction (Fig 8's packet-vs-fluid comparison relies on it).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.errors import RoutingError, TopologyError
from repro.topology.base import Topology

#: a directed edge between named nodes
Edge = tuple[str, str]


def ecmp_hash(fid: int, node_id: int) -> int:
    """Deterministic 63-bit mix used for ECMP choice (stable across runs)."""
    h = (fid * 0x9E3779B97F4A7C15) ^ ((node_id + 1) * 0xBF58476D1CE4E5B9)
    h &= 0xFFFFFFFFFFFFFFFF
    h ^= h >> 31
    return h & 0x7FFFFFFFFFFFFFFF


class Router:
    """ECMP path pinning on a topology graph, in dense edge ids."""

    def __init__(self, topology: Topology):
        self.topology = topology
        graph = topology.graph
        #: the hash's node ids: sorted node names, as the packet nodes
        self._node_id: dict[str, int] = {
            name: i for i, name in enumerate(sorted(graph.nodes()))
        }
        #: dense directed-edge ids (see Topology.directed_edge_index for the
        #: assignment contract); the packet engine's link ids are these
        self.edge_index: dict[Edge, int] = topology.directed_edge_index()
        # out-adjacency, each node's edges in id order
        self._out: dict[str, list[tuple[int, str]]] = {
            name: [] for name in graph.nodes()
        }
        for (a, b), eid in self.edge_index.items():
            self._out[a].append((eid, b))
        for neighbors in self._out.values():
            neighbors.sort()
        #: edge id -> named edge (inverse of ``edge_index``)
        self.edges: list[Edge] = sorted(
            self.edge_index, key=self.edge_index.__getitem__)
        self._dist_cache: dict[str, dict[str, int]] = {}
        #: path templates: the edge ids of every ``(src, dst)`` pair whose
        #: walk met a single next-hop candidate at each hop. Such a path
        #: never consults the ECMP hash, so it holds for every fid; the
        #: table is bounded by host pairs however many flows stream by.
        self._templates: dict[Edge, tuple[int, ...]] = {}
        #: directed edge ids excluded from routing (fault injection);
        #: always populated in symmetric pairs — both directions of a
        #: failed cable — so the reversed-adjacency BFS stays correct
        self._down_edges: frozenset[int] = frozenset()

    # -- public ---------------------------------------------------------------

    def set_down_edges(self, edge_ids: Iterable[int]) -> None:
        """Replace the failed-edge set and invalidate every cache.

        Both engines' fault handling passes the set
        :meth:`repro.faults.spec.FaultState.down_edges` derives; the next
        lookup routes over the surviving edges, so a rerouted flow gets a
        fresh pin instead of a stale template.
        """
        down = frozenset(edge_ids)
        if down == self._down_edges:
            return
        self._down_edges = down
        self._dist_cache.clear()
        self._templates.clear()

    def flow_path_ids(self, fid: int, src: str, dst: str) -> tuple[int, ...]:
        """Pinned path of flow ``fid`` between two hosts, as dense edge
        ids. A pair with a template returns the same tuple object every
        time."""
        ids = self._templates.get((src, dst))
        if ids is None:
            ids = self._walk(fid, src, dst)
        return ids

    def capacity_vector(self) -> list[float]:
        """Flat capacity list indexed by dense directed-edge id."""
        edges = self.topology.graph.edges
        caps = [0.0] * len(self.edge_index)
        for (a, b), eid in self.edge_index.items():
            caps[eid] = edges[a, b]["rate_bps"]
        return caps

    # -- internals ----------------------------------------------------------------

    def _distances(self, dst: str) -> dict[str, int]:
        dist = self._dist_cache.get(dst)
        if dist is not None:
            return dist
        down = self._down_edges
        dist = {dst: 0}
        frontier = deque([dst])
        while frontier:
            node = frontier.popleft()
            for eid, neighbor in self._out[node]:
                if eid in down:
                    # down sets are symmetric, so skipping the forward
                    # id here equals skipping the reversed traversal
                    continue
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    frontier.append(neighbor)
        self._dist_cache[dst] = dist
        return dist

    def _require_host(self, name: str) -> None:
        data = self.topology.graph.nodes.get(name)
        if data is None:
            raise TopologyError(f"unknown node {name!r}")
        if data["kind"] != "host":
            raise TopologyError(f"{name!r} is not a host")

    def _walk(self, fid: int, src: str, dst: str) -> tuple[int, ...]:
        """Hop by hop down the distance table toward ``dst``; the ECMP
        hash is consulted only where more than one next hop is equally
        close. A walk that never needed it is stored as the pair's
        template. Endpoints are checked here, off the template hit: a
        pair naming a non-host never gets a template."""
        self._require_host(src)
        self._require_host(dst)
        if src == dst:
            raise RoutingError("flow src equals dst")
        dist = self._distances(dst)
        if src not in dist:
            raise RoutingError(f"no route {src} -> {dst}")
        down = self._down_edges
        out = self._out
        ids: list[int] = []
        fid_free = True
        node = src
        while node != dst:
            closer = dist[node] - 1
            candidates = [
                hop for hop in out[node]
                if hop[0] not in down and dist.get(hop[1]) == closer
            ]
            if not candidates:
                raise RoutingError(f"routing dead-end at {node} toward {dst}")
            if len(candidates) > 1:
                fid_free = False
                pick = ecmp_hash(fid, self._node_id[node]) % len(candidates)
                eid, node = candidates[pick]
            else:
                eid, node = candidates[0]
            ids.append(eid)
        path = tuple(ids)
        if fid_free:
            self._templates[(src, dst)] = path
        return path
