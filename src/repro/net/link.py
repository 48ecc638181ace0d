"""Unidirectional store-and-forward link with a FIFO tail-drop queue.

Delay model per the paper's Figure 2: transmission delay = size/rate,
fixed propagation delay, and a per-hop processing delay charged at the
receiving node. Random wire loss (Fig 9) is applied after transmission,
independently in each direction.

A packet that never reaches the far node -- tail-dropped, lost on the
wire, or caught on a failed link -- is counted here and dropped.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING

import numpy as np

from repro.events.simulator import Simulator
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.node import Node


class Link:
    """One direction of a cable. Created in pairs; ``reverse`` points at the
    opposite direction."""

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        rate_bps: float,
        prop_delay: float,
        buffer_bytes: int,
        link_id: int,
    ):
        if not rate_bps > 0:  # NaN fails it too
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self.queue = DropTailQueue(buffer_bytes)
        self.link_id = link_id
        self.reverse: "Link" | None = None

        # random wire loss (Fig 9); set by repro.faults.apply_loss
        self.loss_rate: float = 0.0
        self._loss_rng: np.random.Generator | None = None
        self.wire_losses = 0

        # fault state (repro.faults): a down link refuses new packets
        # and drops its in-flight transmission
        self.up = True
        self.fault_drops = 0

        # statistics
        self.bytes_sent = 0
        self.packets_sent = 0
        self._busy_accum = 0.0  # completed transmissions only

        self._transmitting = False
        self._tx_started = 0.0  # start of the in-flight transmission

        # single-event transmission pipeline: each packet's serialization
        # finish chains into its propagation arrival through these
        # preallocated bound methods on the simulator's no-handle fast
        # path -- zero closures and zero cancellable handles per packet.
        # prop_delay and dst.processing_delay are frozen here: mutating
        # them after construction is unsupported (deliveries would keep
        # the cached sum)
        self._finish_cb = self._finish
        self._deliver_cb = dst.receive
        self._arrival_delay = prop_delay + dst.processing_delay

    # -- configuration ---------------------------------------------------------

    def set_loss(self, rate: float, rng: np.random.Generator) -> None:
        """Drop each transmitted packet with probability ``rate``."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.loss_rate = rate
        self._loss_rng = rng

    def fail(self) -> None:
        """Take the link down (fault injection).

        New packets are refused at :meth:`enqueue` and queued packets
        are drained here, both counted as fault drops. An in-flight
        transmission cannot be cancelled (the single-event pipeline
        keeps no handles); :meth:`_finish` drops it when the
        serialization completes.
        """
        self.up = False
        while self.queue.pop() is not None:
            self.fault_drops += 1

    def restore(self) -> None:
        """Bring the link back up; it resumes accepting packets."""
        self.up = True

    # -- data path ---------------------------------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        """Accept a packet for transmission; False means it was dropped
        (tail-drop, or the link is down)."""
        if not self.up:
            self.fault_drops += 1
            return False
        queue = self.queue
        if self._transmitting:
            return queue.offer(packet)
        # idle link: the packet would be offered and popped right back,
        # so only the queue's accounting runs (the same drop decision,
        # drop counters and peak_bytes update as offer + pop; the net
        # byte change is zero and the deque is never written), and the
        # transmission starts here
        size = packet.size
        nbytes = queue._bytes + size
        if nbytes > queue.capacity_bytes:
            queue.drops += 1
            queue.dropped_bytes += size
            return False
        if nbytes > queue.peak_bytes:
            queue.peak_bytes = nbytes
        self._transmitting = True
        # inlined sim.call_at (like the tx-start push in _finish): same
        # heap tuple, same seq ordering, one less Python frame. The tx
        # time keeps the exact expression (size * 8 / rate) so timestamps
        # stay bit-identical to the helper's
        sim = self.sim
        now = sim.now
        self._tx_started = now
        heappush(sim._heap, (now + size * 8 / self.rate_bps,
                             sim._seq, self._finish_cb, (packet,)))
        sim._seq += 1
        return True

    def _finish(self, packet: Packet) -> None:
        # busy time is charged as it elapses (pro-rated via the property
        # while in flight, folded into the accumulator here), so a
        # utilization window ending mid-transmission never overcounts
        sim = self.sim
        now = sim.now
        self._busy_accum += now - self._tx_started
        if not self.up:
            # the link failed mid-transmission: the packet never reaches
            # the far end. The queue was drained by fail() and enqueue
            # refuses while down, so there is nothing to start next.
            self._transmitting = False
            self.fault_drops += 1
            return
        self.bytes_sent += packet.size
        self.packets_sent += 1
        lost = (
            self.loss_rate > 0.0
            and self._loss_rng is not None
            and self._loss_rng.random() < self.loss_rate
        )
        if lost:
            self.wire_losses += 1
        else:
            # the delivery takes its seq here, at tx-finish, ahead of the
            # next transmission's; the packet digest pins hold this order
            # (test_a_delivery_seq_taken_at_tx_start_moves_the_pins)
            heappush(sim._heap, (now + self._arrival_delay, sim._seq,
                                 self._deliver_cb, (packet, self)))
            sim._seq += 1
        # start the next transmission, if a packet is waiting
        packet = self.queue.pop()
        if packet is None:
            self._transmitting = False
            return
        self._tx_started = now
        heappush(sim._heap, (now + packet.size * 8 / self.rate_bps,
                             sim._seq, self._finish_cb, (packet,)))
        sim._seq += 1

    # -- introspection ------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.src.name}->{self.dst.name}"

    @property
    def busy_time(self) -> float:
        """Cumulative transmitting time up to the current instant.

        The in-flight transmission contributes only its elapsed portion,
        so windowed utilization over ``busy_time`` deltas stays <= 1 even
        when the window ends mid-transmission."""
        busy = self._busy_accum
        if self._transmitting:
            busy += self.sim.now - self._tx_started
        return busy

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.rate_bps/1e9:.1f}Gbps q={self.queue.bytes}B>"
