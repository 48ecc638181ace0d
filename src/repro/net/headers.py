"""Scheduling headers carried inside packets.

The PDQ header mirrors the paper's 16-byte scheduling header (§7,
footnote 11): rate, pauseby, deadline and expected transmission time on the
forward path, with the RTT and inter-probing fields sharing wire space on
the reverse path. We model the fields explicitly and charge the wire size
separately via each protocol's ``header_bytes``.
"""

from __future__ import annotations

import math

#: sentinel for "no switch" in the pauseby field (paper's \"ø\")
NO_SWITCH: int | None = None


class PdqHeader:
    """PDQ scheduling header (paper §3.1).

    Attributes map 1:1 onto the paper's fields:

    * ``rate``        -- R_H, bits/s. Senders set it to their maximal rate;
      switches clamp it down or zero it.
    * ``pauseby``     -- P_H, id of the switch pausing the flow, or None.
    * ``deadline``    -- D_H, absolute deadline in seconds, or None.
    * ``expected_tx`` -- T_H, expected remaining transmission time (s).
    * ``rtt``         -- RTT_H, the sender's measured RTT (s).
    * ``inter_probe`` -- I_H, inter-probing interval in units of RTTs.
    * ``criticality`` -- extra field used by the Random / Estimation
      comparators of §5.6 (not on the wire in the paper; carried here so
      switches can apply operator-defined comparators uniformly).
    """

    __slots__ = (
        "rate",
        "pauseby",
        "deadline",
        "expected_tx",
        "rtt",
        "inter_probe",
        "criticality",
    )

    def __init__(
        self,
        rate: float,
        pauseby: int | None = NO_SWITCH,
        deadline: float | None = None,
        expected_tx: float = 0.0,
        rtt: float = 0.0,
        inter_probe: float = 1.0,
        criticality: float | None = None,
    ):
        self.rate = rate
        self.pauseby = pauseby
        self.deadline = deadline
        self.expected_tx = expected_tx
        self.rtt = rtt
        self.inter_probe = inter_probe
        self.criticality = criticality

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PdqHeader R={self.rate:.3e} P={self.pauseby} "
            f"T={self.expected_tx:.6f} I={self.inter_probe:.2f}>"
        )


class RcpHeader:
    """RCP header: the bottleneck fair-share rate stamped along the path."""

    __slots__ = ("rate", "rtt")

    def __init__(self, rate: float, rtt: float = 0.0):
        self.rate = rate
        self.rtt = rtt


class D3Header:
    """D3 header: desired rate request plus previous allocation.

    ``allocated`` is filled by switches on the forward path (min along the
    path); ``prev_alloc`` lets each switch return the sender's previous
    reservation before allocating afresh.
    """

    __slots__ = ("desired", "prev_alloc", "allocated", "rtt", "deadline")

    def __init__(
        self,
        desired: float,
        prev_alloc: float = 0.0,
        allocated: float = math.inf,
        rtt: float = 0.0,
        deadline: float | None = None,
    ):
        self.desired = desired
        self.prev_alloc = prev_alloc
        self.allocated = allocated
        self.rtt = rtt
        self.deadline = deadline
