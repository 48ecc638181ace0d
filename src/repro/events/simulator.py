"""The discrete-event simulator loop.

The heap holds two entry shapes, both ordered by a native ``(time, seq)``
tuple prefix (``seq`` is unique, so comparisons never reach the payload):

* ``(time, seq, callback, args)`` -- the *typed fast path* used by
  :meth:`Simulator.call_at`: no handle, no closure, not cancellable. Per-packet work (link transmissions, packet
  deliveries) schedules through this shape.
* ``(time, seq, event)`` -- a cancellable entry whose
  :class:`~repro.events.event.Event` handle carries ``(callback, args)``
  and the tombstone flag. Timers and any caller that keeps the return
  value of :meth:`Simulator.schedule` use this shape.

Cancelled entries stay in the heap as tombstones; when they exceed a
bounded fraction of the heap the simulator compacts them away in one
pass, so pathological cancel churn cannot bloat the heap.

Measured: with every entry an :class:`Event`, ``packet-incast-tcp``'s
median ``wall_s`` was 1.43x the fast path's, slower in 10 of 10 pairs.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from collections.abc import Callable
from typing import Any

from repro.errors import SimulationError
from repro.events.event import Event

#: compaction never triggers below this many tombstones (small heaps are
#: cheap to scan anyway and the hysteresis keeps cancel() amortized O(1))
_COMPACT_MIN_TOMBSTONES = 64


class Simulator:
    """Minimal discrete-event engine.

    Typical use::

        sim = Simulator()
        sim.schedule(1e-3, print, "fires at t=1ms")
        sim.run(until=1.0)

    Invariants:

    * ``now`` is monotonically non-decreasing.
    * events scheduled at the same timestamp fire in the order scheduled
      (fast-path and cancellable entries interleave in one sequence).
    * scheduling into the past raises :class:`SimulationError`.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        self._tombstones: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self.processed_events: int = 0
        self.compactions: int = 0

    # -- scheduling ----------------------------------------------------------

    def call_at(self, time: float, callback: Callable[..., Any],
                *args: Any) -> None:
        """Fast path: run ``callback(*args)`` at absolute ``time``.

        No handle is returned and the call cannot be cancelled; in
        exchange, nothing is allocated beyond the heap tuple itself.
        """
        if not time >= self.now:  # NaN fails it too
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        heappush(self._heap, (time, self._seq, callback, args))
        self._seq += 1

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now and
        return a cancellable :class:`Event` handle."""
        if not delay >= 0:  # NaN fails it too
            raise SimulationError(f"negative or NaN delay {delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time`` and
        return a cancellable :class:`Event` handle."""
        if not time >= self.now:  # NaN fails it too
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        event = Event(time, self._seq, callback, args)
        event._cancel_hook = self._note_cancelled
        heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        return event

    def _note_cancelled(self) -> None:
        self._tombstones += 1
        # bounded compaction: tombstones may never exceed half the heap
        # (past the hysteresis floor), so cancel churn stays amortized O(1)
        # and the heap's memory stays proportional to live events
        if (self._tombstones >= _COMPACT_MIN_TOMBSTONES
                and self._tombstones * 2 >= len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled tombstone, wherever it sits in the heap."""
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if len(entry) == 4 or not entry[2].cancelled
        ]
        heapq.heapify(heap)
        self._tombstones = 0
        self.compactions += 1

    # -- execution -----------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events until the heap drains, ``until`` passes, or
        ``max_events`` have fired.

        ``until`` is inclusive: an event at exactly ``until`` still fires.
        After returning because of ``until``, ``now`` equals ``until`` so a
        subsequent ``run`` resumes cleanly. After :meth:`stop`, ``now``
        stays at the stopping event's timestamp and a subsequent ``run``
        resumes from there.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        # hot loop: sentinel floats fold the None checks into one float
        # compare each, heappop binds locally, and the _stopped check sits
        # after event processing (it is reset above, so only a fired event
        # can set it -- checking at the bottom is equivalent and skips one
        # branch per iteration)
        fired = 0
        heap = self._heap
        pop = heappop
        until_v = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > until_v or fired >= budget:
                    break
                pop(heap)
                try:
                    # typed fast path: (time, seq, callback, args). The
                    # IndexError probe replaces a len() call per event;
                    # cancellable 3-tuples take the exception path
                    args = entry[3]
                except IndexError:
                    event = entry[2]
                    if event.cancelled:
                        self._tombstones -= 1
                        continue
                    # a fired event has left the heap: a late cancel()
                    # (e.g. a timer stopped from its own callback) must
                    # not count it as a tombstone
                    event._cancel_hook = None
                    self.now = time
                    event.callback(*event.args)
                else:
                    self.now = time
                    entry[2](*args)
                fired += 1
                self.processed_events += 1
                if self._stopped:
                    break
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    # -- introspection ---------------------------------------------------------

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): every heap entry is live except the cancelled tombstones,
        which are counted as they are made and as they leave."""
        return len(self._heap) - self._tombstones
