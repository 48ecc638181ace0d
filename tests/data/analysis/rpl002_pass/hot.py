"""RPL002 pass fixture: a hot function that keeps its hands clean."""

from repro.net.packet import PacketKind

_DATA = PacketKind.DATA  # hoisted: hot code compares against the constant


class Engine:
    def __init__(self):
        self.count = 0
        self._cb = self.on_event

    def on_event(self, item):
        self.count += 1

    # repro: hot
    def drain(self, heap, pop):
        cb = self._cb
        while heap:
            item = pop(heap)
            cb(item)
            if item == _DATA:
                self.count += 1
            if item is None:
                raise ValueError(f"tombstone leaked into {heap!r}")
