"""RPL002 fail fixture: every construct the hot-path rules reject."""

import logging

from repro.net.packet import PacketKind

log = logging.getLogger(__name__)


class Thing:
    def __init__(self, item):
        self.item = item


class Engine:
    def __init__(self):
        self.count = 0
        self.sink = None

    # repro: hot
    def drain(self, heap, pop):
        def helper(item):  # closure: allocates per call
            return item

        cb = lambda item: item  # noqa: E731
        label = f"draining {len(heap)} items"  # f-string off a raise
        log.debug("drain tick %s", label)  # logging on the hot path
        while heap:
            item = pop(heap)
            box = {"item": item}  # dict literal per iteration
            wrapped = Thing(item)  # constructor per iteration
            self.sink.stats.counters.bump(item)  # deep chain in a loop
            if item == PacketKind.DATA:  # enum member read
                self.count += 1
            self.count += len([helper, cb, box, wrapped])
