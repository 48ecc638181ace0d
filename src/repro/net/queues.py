"""FIFO tail-drop queue with a byte-bounded buffer.

PDQ's whole point is to need nothing fancier than this at switches
(paper §1: "lightweight, using only FIFO tail-drop queues").

Packets wait in a :class:`collections.deque`; byte accounting is O(1) on
both ends. A packet that reaches an idle link never waits here:
``Link.enqueue`` applies the same drop test and ``peak_bytes`` update
itself and starts transmitting it (an ``offer`` and its ``pop`` cancel
out).
"""

from __future__ import annotations

from collections import deque

from repro.net.packet import Packet


class DropTailQueue:
    """Byte-limited FIFO. ``offer`` refuses (tail-drops) packets that would
    overflow the buffer."""

    __slots__ = (
        "capacity_bytes", "_q", "_bytes",
        "drops", "dropped_bytes", "peak_bytes",
    )

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._q: deque[Packet] = deque()
        self._bytes = 0
        self.drops = 0
        self.dropped_bytes = 0
        self.peak_bytes = 0

    def __len__(self) -> int:
        return len(self._q)

    @property
    def bytes(self) -> int:
        """Bytes currently waiting (excludes any packet in transmission)."""
        return self._bytes

    def offer(self, packet: Packet) -> bool:
        """Append if it fits; returns False (and counts a drop) otherwise."""
        nbytes = self._bytes + packet.size
        if nbytes > self.capacity_bytes:
            self.drops += 1
            self.dropped_bytes += packet.size
            return False
        self._q.append(packet)
        self._bytes = nbytes
        if nbytes > self.peak_bytes:
            self.peak_bytes = nbytes
        return True

    def pop(self) -> Packet | None:
        """Remove and return the head packet, or None when empty."""
        if not self._q:
            return None
        packet = self._q.popleft()
        self._bytes -= packet.size
        return packet
