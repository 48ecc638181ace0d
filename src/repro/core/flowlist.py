"""Per-link switch flow state (paper §3.3.1).

Each egress link remembers ``<R_i, P_i, D_i, T_i, RTT_i>`` for the most
critical flows -- capacity ``max(2*kappa, min_capacity)`` where kappa is the
number of currently sending flows, hard-capped at M (``hard_flow_limit``).

The entries live in criticality order. Keys are unique (every
comparator ends with the flow id as a tiebreaker), so bisecting on
``entry.key`` finds a key's slot, and an entry's own index is
``entries.index(entry)``: a scan of a list that holds about two entries
on realistic workloads.

The switch's per-packet path (:class:`~repro.core.switch.PdqLinkState`)
reads ``entries`` and ``by_fid`` directly; everything that changes them
goes through this class.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter

from repro.core.comparator import CriticalityKey, FlowComparator
from repro.core.config import PdqConfig

_INF = float("inf")
_KEY = attrgetter("key")


class FlowEntry:
    """Switch-side record of one flow on one link."""

    __slots__ = (
        "fid", "rate", "pauseby", "deadline", "expected_tx", "rtt",
        "criticality", "requested", "last_update", "key",
    )

    def __init__(self, fid: int, now: float):
        self.fid = fid
        self.rate: float = 0.0          # R_i, committed on the reverse path
        self.pauseby: int | None = None  # P_i
        self.deadline: float | None = None  # D_i (absolute)
        self.expected_tx: float = 0.0   # T_i
        self.rtt: float = 0.0           # RTT_i
        self.criticality: float | None = None
        self.requested: float = 0.0     # R_H as the sender asked (pre-clamp)
        self.last_update: float = now
        self.key: CriticalityKey = (_INF, _INF, fid)

    @property
    def sending(self) -> bool:
        """A flow counts as sending when it holds a committed positive rate
        and no switch has paused it."""
        return self.rate > 0.0 and self.pauseby is None


class PdqFlowList:
    """Criticality-sorted bounded flow list for one egress link."""

    def __init__(self, config: PdqConfig, comparator: FlowComparator):
        self.config = config
        self.comparator = comparator
        self.entries: list[FlowEntry] = []   # sorted, most critical first
        self.by_fid: dict[int, FlowEntry] = {}
        self.evictions = 0

    # -- basic container ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    # -- sizing ----------------------------------------------------------------------

    @property
    def kappa(self) -> int:
        """Number of currently sending flows in the list."""
        return sum(1 for e in self.entries if e.sending)

    @property
    def capacity(self) -> int:
        soft = max(
            self.config.capacity_factor * max(self.kappa, 1),
            self.config.min_list_capacity,
        )
        return min(soft, self.config.hard_flow_limit)

    # -- mutation ---------------------------------------------------------------------

    def admit(self, fid: int, now: float, key: CriticalityKey) -> FlowEntry | None:
        """Try to add a new flow (Algorithm 1's admission test): succeeds if
        there is room or the flow beats the least critical entry. Returns
        the new entry, or None if the flow must use the RCP fallback."""
        capacity = self.capacity
        entries = self.entries
        if len(entries) >= capacity and \
                not self.comparator.more_critical(key, entries[-1].key):
            return None
        entry = FlowEntry(fid, now)
        entry.key = key
        entries.insert(bisect_right(entries, key, key=_KEY), entry)
        self.by_fid[fid] = entry
        while len(entries) > capacity:
            gone = entries.pop()
            self.evictions += 1
            del self.by_fid[gone.fid]
        return entry if fid in self.by_fid else None

    def remove(self, fid: int) -> bool:
        entry = self.by_fid.pop(fid, None)
        if entry is None:
            return False
        self.entries.remove(entry)
        return True

    def reposition(self, entry: FlowEntry, key: CriticalityKey) -> int:
        """Update an entry's key and restore sorted order; returns the new
        index."""
        entries = self.entries
        entries.remove(entry)
        entry.key = key
        pos = bisect_right(entries, key, key=_KEY)
        entries.insert(pos, entry)
        return pos

    def purge_expired(self, now: float, horizon: float) -> list[int]:
        """Drop entries not refreshed within ``horizon`` seconds (protects
        against lost TERMs; §5.6's loss resilience depends on it) and
        return their flow ids."""
        stale = [e for e in self.entries if now - e.last_update > horizon]
        for entry in stale:
            self.entries.remove(entry)
            del self.by_fid[entry.fid]
        return [e.fid for e in stale]
