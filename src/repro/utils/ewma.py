"""Exponentially-weighted moving averages.

PDQ senders estimate RTT "by an exponential decay" (paper §3.1); switches
keep a per-link average of the RTTs observed in scheduling headers to time
the rate controller (every 2 RTTs) and the dampening window.
"""

from __future__ import annotations



class Ewma:
    """Plain EWMA: ``value <- (1-alpha)*value + alpha*sample``.

    ``default`` is a *fallback*, not a prior: before the first sample,
    :meth:`value_or` reads ``default`` (when not None), and the first
    sample **replaces** it outright rather than decaying it. This is
    deliberate — d3/rcp switches seed ``rtt_avg`` (and the PDQ switch,
    which inlines this update on its per-packet path, its own) with
    a configured RTT purely so timers have something to run on before
    any header has been observed; a configured guess must carry zero
    weight once a real measurement exists (the same contract as RFC 6298
    seeding ``srtt`` from the first sample). Callers that want a true
    prior should call ``update(prior)`` instead of passing ``default``.
    """

    __slots__ = ("alpha", "_value", "samples")

    def __init__(self, alpha: float = 0.125, default: float | None = None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value = default
        self.samples = 0

    def update(self, sample: float) -> float:
        """Fold one sample in and return the new average.

        The first sample discards any ``default`` (see class docstring);
        ``samples`` counts only real observations, never the fallback.
        """
        self._value = (
            sample if self._value is None or self.samples == 0
            else (1.0 - self.alpha) * self._value + self.alpha * sample
        )
        self.samples += 1
        return self._value

    def value_or(self, fallback: float) -> float:
        return self._value if self._value is not None else fallback


class RttEstimator:
    """RFC6298-style smoothed RTT + variance, used for retransmission timers.

    ``rto()`` is clamped to ``[rto_min, rto_max]``.

    ``TcpSender.on_packet`` writes :meth:`update` and :meth:`rto` out on
    its per-ACK path: a change here must be mirrored there (the TCP
    digest pins in ``tests/test_pdq_digest_pins.py`` catch a drift).
    """

    def __init__(self, rto_min: float = 2e-3, rto_max: float = 1.0,
                 initial_rtt: float | None = None):
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.srtt: float | None = initial_rtt
        self.rttvar: float = (initial_rtt / 2.0) if initial_rtt else 0.0

    def update(self, sample: float) -> None:
        if sample < 0:
            raise ValueError(f"negative RTT sample {sample}")
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample

    def rto(self) -> float:
        if self.srtt is None:
            return self.rto_max
        rto = self.srtt + max(4.0 * self.rttvar, 1e-6)
        return min(self.rto_max, max(self.rto_min, rto))
