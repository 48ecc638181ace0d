"""Seeded random switch graphs for failure sweeps.

Unlike the hand-built paper topologies (single-rooted tree, fat-tree,
BCube) a failure study wants networks that were not designed around the
workload: a G(n, m) random switch fabric with a target mean degree,
hosts spread round-robin across switches. Connectivity is retried over
derived seeds exactly like :class:`~repro.topology.jellyfish.Jellyfish`,
so construction is deterministic per (parameters, seed) — both engines
and every worker process build the identical graph.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.units import GBPS


class RandomGraph(Topology):
    """G(n, m) random switch fabric with hosts on every switch.

    ``mean_degree`` fixes the switch-to-switch edge count at
    ``round(mean_degree * n_switches / 2)`` (floored at ``n_switches - 1``,
    the connectivity minimum); ``hosts_per_switch`` hosts hang off each
    switch. Node names are ``sw{i}`` and ``h{j}``.
    """

    def __init__(
        self,
        n_switches: int,
        mean_degree: float = 3.0,
        hosts_per_switch: int = 2,
        rate_bps: float = 1 * GBPS,
        seed: int = 1,
    ):
        if n_switches < 2:
            raise TopologyError(f"need >= 2 switches, got {n_switches}")
        if mean_degree <= 0:
            raise TopologyError(
                f"mean degree must be positive, got {mean_degree}"
            )
        if hosts_per_switch < 1:
            raise TopologyError(
                f"need >= 1 host per switch, got {hosts_per_switch}"
            )
        super().__init__(default_rate_bps=rate_bps)
        self.n_switches = n_switches
        self.mean_degree = mean_degree
        self.hosts_per_switch = hosts_per_switch
        self.seed = seed
        self._build()
        self.validate()

    def _build(self) -> None:
        import networkx as nx  # only the seeded random draws need it

        n = self.n_switches
        n_edges = max(n - 1, round(self.mean_degree * n / 2))
        n_edges = min(n_edges, n * (n - 1) // 2)
        fabric = None
        for attempt in range(16):
            candidate = nx.gnm_random_graph(n, n_edges,
                                            seed=self.seed + attempt)
            if nx.is_connected(candidate):
                fabric = candidate
                break
        if fabric is None:
            raise TopologyError(
                f"could not build a connected random graph with "
                f"{n} switches and {n_edges} edges (mean degree "
                f"{self.mean_degree}); raise mean_degree"
            )
        for s in range(n):
            self.add_switch(f"sw{s}")
        for a, b in sorted(fabric.edges()):
            self.add_link(f"sw{a}", f"sw{b}")
        host_index = 0
        for s in range(n):
            for _ in range(self.hosts_per_switch):
                host = self.add_host(f"h{host_index}")
                host_index += 1
                self.add_link(host, f"sw{s}")

    @property
    def n_servers(self) -> int:
        return self.n_switches * self.hosts_per_switch
