"""Flow-level ECMP routing with pinned, symmetric paths.

The paper assumes flow-level equal-cost multi-path forwarding (§3.3.1, §6).
We reproduce that: for each flow the router picks one of the shortest paths
by a deterministic hash of (flow id, node id) at every fan-out, pins it for
the flow's lifetime, and routes ACKs on the exact reverse links so switch
state sits on the round-trip path (required by PDQ's two-phase acceptance).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.errors import RoutingError
from repro.net.link import Link
from repro.net.node import Node

#: pinned-path cache bound: open-system streams route an unbounded
#: sequence of fresh fids, so the fid-keyed cache clears instead of
#: growing O(flows)
PATH_CACHE_LIMIT = 4096


def ecmp_hash(fid: int, node_id: int) -> int:
    """Deterministic 63-bit mix used for ECMP choice (stable across runs)."""
    h = (fid * 0x9E3779B97F4A7C15) ^ ((node_id + 1) * 0xBF58476D1CE4E5B9)
    h &= 0xFFFFFFFFFFFFFFFF
    h ^= h >> 31
    return h & 0x7FFFFFFFFFFFFFFF


class Router:
    """Computes and caches pinned flow paths over the built Link objects."""

    def __init__(self, nodes: Sequence[Node], links: Sequence[Link]):
        self._nodes: dict[int, Node] = {node.id: node for node in nodes}
        self._out_links: dict[int, list[Link]] = {node.id: [] for node in nodes}
        for link in links:
            self._out_links[link.src.id].append(link)
        for out in self._out_links.values():
            out.sort(key=lambda lk: lk.link_id)
        # hop distance to each destination, computed lazily per destination
        self._dist_cache: dict[int, dict[int, int]] = {}
        self._path_cache: dict[tuple[int, int, int], tuple[Link, ...]] = {}

    # -- public API ---------------------------------------------------------------

    def invalidate_routes(self) -> None:
        """Forget cached distances and pinned paths.

        Called by the fault controller when links go down or come back:
        the next ``flow_path`` recomputes over the surviving links, so a
        rerouted flow gets a fresh pin instead of a stale cached one.
        """
        self._dist_cache.clear()
        self._path_cache.clear()

    def flow_path(self, fid: int, src_id: int, dst_id: int) -> tuple[Link, ...]:
        """Pinned forward path for flow ``fid`` from src to dst."""
        key = (fid, src_id, dst_id)
        path = self._path_cache.get(key)
        if path is None:
            path = self._compute_path(fid, src_id, dst_id)
            if len(self._path_cache) >= PATH_CACHE_LIMIT:
                self._path_cache.clear()
            self._path_cache[key] = path
        return path

    def reverse_path(self, forward: Sequence[Link]) -> tuple[Link, ...]:
        """The exact reverse of a pinned forward path."""
        reverse = []
        for link in reversed(forward):
            if link.reverse is None:
                raise RoutingError(f"link {link.name} has no reverse twin")
            reverse.append(link.reverse)
        return tuple(reverse)

    def equal_cost_paths(self, src_id: int, dst_id: int) -> int:
        """Number of distinct next-hop choices at the source (diagnostics)."""
        dist = self._distances(dst_id)
        return len(self._candidates(src_id, dist))

    def hop_count(self, src_id: int, dst_id: int) -> int:
        dist = self._distances(dst_id)
        if src_id not in dist:
            raise RoutingError(f"no route {src_id} -> {dst_id}")
        return dist[src_id]

    # -- internals -----------------------------------------------------------------

    def _distances(self, dst_id: int) -> dict[int, int]:
        dist = self._dist_cache.get(dst_id)
        if dist is not None:
            return dist
        if dst_id not in self._nodes:
            raise RoutingError(f"unknown destination node {dst_id}")
        # BFS over reversed adjacency: dist[n] = hops from n to dst
        incoming: dict[int, list[int]] = {nid: [] for nid in self._nodes}
        for nid, links in self._out_links.items():
            for link in links:
                if link.up:  # failed links carry no routes
                    incoming[link.dst.id].append(nid)
        dist = {dst_id: 0}
        frontier = deque([dst_id])
        while frontier:
            node = frontier.popleft()
            for prev in incoming[node]:
                if prev not in dist:
                    dist[prev] = dist[node] + 1
                    frontier.append(prev)
        self._dist_cache[dst_id] = dist
        return dist

    def _candidates(self, node_id: int, dist: dict[int, int]) -> list[Link]:
        here = dist.get(node_id)
        if here is None:
            return []
        return [
            link
            for link in self._out_links[node_id]
            if link.up and dist.get(link.dst.id, here) == here - 1
        ]

    def _compute_path(self, fid: int, src_id: int, dst_id: int) -> tuple[Link, ...]:
        if src_id == dst_id:
            raise RoutingError("flow src equals dst")
        dist = self._distances(dst_id)
        if src_id not in dist:
            raise RoutingError(f"no route {src_id} -> {dst_id}")
        path: list[Link] = []
        node_id = src_id
        while node_id != dst_id:
            candidates = self._candidates(node_id, dist)
            if not candidates:
                raise RoutingError(
                    f"routing dead-end at node {node_id} toward {dst_id}"
                )
            choice = candidates[ecmp_hash(fid, node_id) % len(candidates)]
            path.append(choice)
            node_id = choice.dst.id
        return tuple(path)
