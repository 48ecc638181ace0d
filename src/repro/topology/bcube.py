"""BCube(n, k) (Guo et al., SIGCOMM 2009), used in §5.5 and §6.

Servers have k+1 network interfaces. A server's address is the base-``n``
digit string (a_k, ..., a_0); at level ``l`` it connects to the level-l
switch whose identity is the address with digit ``l`` removed. BCube(2, 3)
-- the M-PDQ evaluation topology -- has 16 servers with 4 NICs each and
4 levels of 8 two-port switches.

The multiple NICs give k+1 parallel (link-disjoint at the server) paths,
which is what M-PDQ's subflow striping exploits.
"""

from __future__ import annotations


from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.units import GBPS


class BCube(Topology):
    """BCube_k built from n-port switches: n^(k+1) servers."""

    def __init__(self, n: int = 2, k: int = 3, rate_bps: float = 1 * GBPS):
        if n < 2:
            raise TopologyError(f"switch port count n must be >= 2, got {n}")
        if k < 0:
            raise TopologyError(f"level k must be >= 0, got {k}")
        super().__init__(default_rate_bps=rate_bps)
        self.n = n
        self.k = k
        self._build()
        self.validate()

    # -- addressing ---------------------------------------------------------------

    def address(self, server_index: int) -> tuple[int, ...]:
        """Base-n digits (a_k, ..., a_0) of a server index."""
        digits = []
        x = server_index
        for _ in range(self.k + 1):
            digits.append(x % self.n)
            x //= self.n
        return tuple(reversed(digits))

    def _switch_name(self, level: int, addr: tuple[int, ...]) -> str:
        """Level-l switch connecting servers whose addresses differ only in
        digit l; ``addr`` is the server address with digit l dropped."""
        return f"sw{level}_" + "".join(str(d) for d in addr)

    # -- construction ----------------------------------------------------------------

    def _build(self) -> None:
        n_servers = self.n ** (self.k + 1)
        for s in range(n_servers):
            self.add_host(f"h{s}")
        for level in range(self.k + 1):
            # digit positions in (a_k..a_0): digit 'level' is dropped
            for s in range(n_servers):
                addr = self.address(s)
                reduced = addr[: self.k - level] + addr[self.k - level + 1:]
                name = self._switch_name(level, reduced)
                if name not in self.graph:
                    self.add_switch(name)
                self.add_link(f"h{s}", name)

    # -- accessors -------------------------------------------------------------------

    @property
    def n_servers(self) -> int:
        return self.n ** (self.k + 1)

    def disjoint_paths(self, src: str, dst: str) -> list[list[str]]:
        """BCube address-based routing (Guo et al.; used by M-PDQ, §6).

        One path per differing digit: path ``r`` corrects the differing
        digit levels starting from rotation ``r``, hopping through the
        level-l switch at each correction. The resulting paths are
        node-disjoint apart from the endpoints (the classic BCube
        parallel-path construction).

        Returns node-name sequences including intermediate switches and
        relay servers, src first, dst last.
        """
        src_index, dst_index = int(src[1:]), int(dst[1:])
        src_addr = list(self.address(src_index))
        dst_addr = list(self.address(dst_index))
        levels = [
            self.k - i
            for i in range(self.k + 1)
            if src_addr[i] != dst_addr[i]
        ]
        if not levels:
            raise TopologyError(f"{src} and {dst} are the same server")
        paths: list[list[str]] = []
        for rotation in range(len(levels)):
            order = levels[rotation:] + levels[:rotation]
            here = list(src_addr)
            path = [src]
            for level in order:
                digit_pos = self.k - level
                nxt = list(here)
                nxt[digit_pos] = dst_addr[digit_pos]
                reduced = tuple(nxt[:digit_pos] + nxt[digit_pos + 1:])
                path.append(self._switch_name(level, reduced))
                here = nxt
                index = 0
                for d in here:
                    index = index * self.n + d
                path.append(f"h{index}")
            paths.append(path)
        return paths
