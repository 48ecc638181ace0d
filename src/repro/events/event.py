"""Event handle scheduled on a :class:`~repro.events.simulator.Simulator`."""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


class Event:
    """A cancellable scheduled callback.

    The simulator's heap is keyed by plain ``(time, seq)`` tuples (``seq``
    is unique, so comparisons never reach the payload and run at native
    tuple speed); an :class:`Event` is the *handle* riding in the entry,
    carrying ``(callback, args)`` plus the tombstone flag. Cancellation is
    O(1): the entry stays in the heap and is skipped (and eventually
    compacted away) by the simulator.

    Hot paths that never cancel should use
    :meth:`~repro.events.simulator.Simulator.call_at`, which skips the
    handle allocation entirely.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_cancel_hook")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 args: tuple = ()):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # set by the owning Simulator so its tombstone count (and with it
        # pending()) stays exact without scanning the heap
        self._cancel_hook: Any = None

    def cancel(self) -> None:
        """Prevent this event from firing; safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._cancel_hook is not None:
            self._cancel_hook()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} seq={self.seq}{state}>"
