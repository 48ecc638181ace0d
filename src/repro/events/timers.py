"""Cancellable and restartable timers on top of the event heap.

Transport protocols need two recurring idioms:

* :class:`Timer` -- a one-shot timeout that is constantly pushed back
  (retransmission timers), restarted, or cancelled.
* :class:`PeriodicTimer` -- a repeating callback whose period can change
  between firings (PDQ's rate-controller update every 2 RTTs, probe timers
  whose interval is set by Suppressed Probing).

Restarting a :class:`Timer` cancels its heap entry and pushes a new
one; the simulator compacts the cancelled tombstones away.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.events.event import Event
from repro.events.simulator import Simulator


class Timer:
    """One-shot, restartable timeout."""

    __slots__ = ("_sim", "_callback", "_event", "expiry")

    def __init__(self, sim: Simulator, callback: Callable[[], Any]):
        self._sim = sim
        self._callback = callback
        self._event: Event | None = None
        #: absolute time at which the timer will fire, or None when not
        #: armed (read-only for callers; per-packet transport code tests
        #: ``expiry is not None`` instead of calling :attr:`armed`)
        self.expiry: float | None = None

    @property
    def armed(self) -> bool:
        return self.expiry is not None

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now, replacing any
        previously armed expiry."""
        if self._event is not None:
            self._event.cancel()
        self.expiry = self._sim.now + delay
        self._event = self._sim.schedule_at(self.expiry, self._fire)

    def cancel(self) -> None:
        self.expiry = None
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.expiry = None
        self._callback()


class PeriodicTimer:
    """Repeating timer; the period may be changed at any time.

    The callback may call :meth:`stop`, :meth:`start` (restarting the
    cadence from the moment of the call) or change :attr:`period`, and
    the change takes effect for the next firing.
    """

    __slots__ = ("_sim", "period", "_callback", "_event", "_running", "_epoch")

    def __init__(self, sim: Simulator, period: float, callback: Callable[[], Any]):
        if not period > 0:  # NaN fails it too
            raise ValueError(f"period must be positive, got {period}")
        self._sim = sim
        self.period = period
        self._callback = callback
        self._event: Event | None = None
        self._running = False
        # bumped by every start()/stop(): _fire only re-schedules if the
        # callback did not itself restart the timer mid-fire (a restart
        # used to be silently overwritten, leaving a duplicate event)
        self._epoch = 0

    @property
    def running(self) -> bool:
        return self._running

    def start(self, first_delay: float | None = None) -> None:
        """Start firing; first firing after ``first_delay`` (default: one
        period)."""
        self.stop()
        self._running = True
        self._epoch += 1
        delay = self.period if first_delay is None else first_delay
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        self._running = False
        self._epoch += 1
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if not self._running:
            return
        epoch = self._epoch
        self._callback()
        if self._running and self._epoch == epoch:
            self._event = self._sim.schedule(self.period, self._fire)
