"""Jellyfish (Singla et al., NSDI 2012), used in §5.5.

Switches form a random r-regular graph; the remaining ports attach hosts.
The paper uses 24-port switches with a 2:1 ratio of network ports to server
ports, i.e. r = 16 network ports and 8 hosts per switch.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.units import GBPS


class Jellyfish(Topology):
    """Random regular switch fabric with hosts hanging off each switch."""

    def __init__(
        self,
        n_switches: int,
        switch_ports: int = 24,
        network_ports: int | None = None,
        rate_bps: float = 1 * GBPS,
        seed: int = 1,
    ):
        if n_switches < 3:
            raise TopologyError(f"need >= 3 switches, got {n_switches}")
        super().__init__(default_rate_bps=rate_bps)
        self.n_switches = n_switches
        self.switch_ports = switch_ports
        # default: 2:1 network-to-server port ratio (paper §5.5)
        self.network_ports = (
            network_ports
            if network_ports is not None
            else (2 * switch_ports) // 3
        )
        if not 0 < self.network_ports < switch_ports:
            raise TopologyError(
                f"network ports {self.network_ports} must be in "
                f"(0, {switch_ports})"
            )
        if self.network_ports >= n_switches:
            # a random regular graph needs degree < node count
            self.network_ports = n_switches - 1 - ((n_switches - 1) % 2 == 1
                                                   and (self.network_ports % 2 == 0))
            self.network_ports = min(self.network_ports, n_switches - 1)
        self.hosts_per_switch = switch_ports - self.network_ports
        self.seed = seed
        self._build()
        self.validate()

    def _build(self) -> None:
        import networkx as nx  # only the seeded random draws need it

        degree = self.network_ports
        if degree * self.n_switches % 2 == 1:
            degree -= 1  # regular graph needs even degree * node-count
        random_graph = None
        for attempt in range(16):
            candidate = nx.random_regular_graph(
                degree, self.n_switches, seed=self.seed + attempt
            )
            if nx.is_connected(candidate):
                random_graph = candidate
                break
        if random_graph is None:
            raise TopologyError(
                f"could not build a connected {degree}-regular graph on "
                f"{self.n_switches} switches"
            )
        for s in range(self.n_switches):
            self.add_switch(f"sw{s}")
        for a, b in random_graph.edges():
            self.add_link(f"sw{a}", f"sw{b}")
        host_index = 0
        for s in range(self.n_switches):
            for _ in range(self.hosts_per_switch):
                host = self.add_host(f"h{host_index}")
                host_index += 1
                self.add_link(host, f"sw{s}")

    @property
    def n_servers(self) -> int:
        return self.n_switches * self.hosts_per_switch

    @classmethod
    def for_servers(
        cls,
        n_servers: int,
        switch_ports: int = 24,
        rate_bps: float = 1 * GBPS,
        seed: int = 1,
    ) -> "Jellyfish":
        """Smallest jellyfish (with the default port split) holding at least
        ``n_servers`` hosts."""
        hosts_per_switch = switch_ports - (2 * switch_ports) // 3
        n_switches = max(3, -(-n_servers // hosts_per_switch))
        return cls(
            n_switches=n_switches,
            switch_ports=switch_ports,
            rate_bps=rate_bps,
            seed=seed,
        )
