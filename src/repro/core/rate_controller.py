"""PDQ per-link rate controller (paper §3.3.3).

Maintains the single variable C that caps the aggregate sending rate
handed out by the flow controller:

    C <- max(0, r_PDQ - q / (2 * RTT))

updated every 2 RTTs (one RTT for the adjusted rate to take effect, one to
measure the result). Draining the Early-Start queue and absorbing transient
inconsistencies (e.g. lost pause messages) both fall out of this rule.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.config import PdqConfig
from repro.events.simulator import Simulator
from repro.events.timers import PeriodicTimer
from repro.net.link import Link
from repro.units import BITS_PER_BYTE


class PdqRateController:
    """Controls C for one egress link."""

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        config: PdqConfig,
        rtt_avg: Callable[[], float],
    ):
        self.sim = sim
        self.link = link
        self.config = config
        self._rtt_avg = rtt_avg
        self.r_pdq = config.pdq_rate_fraction * link.rate_bps
        self.capacity = self.r_pdq
        self.updates = 0
        # the 2-RTT cadence tracks the measured RTT: each update writes
        # the next period back into the timer before it re-arms
        self._timer = PeriodicTimer(sim, self._period(), self._update)
        #: whether the update timer is armed; a plain attribute because
        #: the switch reads it on every forward packet and calls
        #: :meth:`start` only while it is False
        self.running = False

    def start(self) -> None:
        if not self.running:
            self._timer.period = self._period()
            self._timer.start()
            self.running = True

    def stop(self) -> None:
        self._timer.stop()
        self.running = False
        self.capacity = self.r_pdq

    # -- internals ---------------------------------------------------------------

    def _period(self) -> float:
        return self.config.rate_controller_rtts * self._rtt_avg()

    def _update(self) -> None:
        rtt = self._rtt_avg()
        queue_drain_rate = (
            self.link.queue.bytes * BITS_PER_BYTE / (2.0 * rtt) if rtt > 0 else 0.0
        )
        self.capacity = max(0.0, self.r_pdq - queue_drain_rate)
        self.updates += 1
        self._timer.period = self._period()
