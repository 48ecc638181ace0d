"""PDQ protocol configuration and the paper's named variants."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.units import KBYTE, USEC


#: the variant flags each named preset fixes (§5.1), by classmethod
#: name; an override may not name one. PDQ(Full) fixes none: it is the
#: defaults, so its overrides may switch any variant off
PRESET_FLAGS: dict[str, dict[str, bool]] = {
    "basic": {"early_start": False, "early_termination": False,
              "suppressed_probing": False},
    "es": {"early_start": True, "early_termination": False,
           "suppressed_probing": False},
    "es_et": {"early_start": True, "early_termination": True,
              "suppressed_probing": False},
    "full": {},
}


@dataclass(frozen=True)
class PdqConfig:
    """All PDQ knobs, defaults straight from the paper.

    Variant flags (§5.1):

    * ``early_start`` -- Early Start with threshold ``K`` (§3.3.2; K=2).
    * ``early_termination`` -- sender-side TERM heuristic (§3.1).
    * ``suppressed_probing`` -- I_H = max(I_H, X * index) with X = 0.2 RTTs
      (§3.3.2).

    Switch state sizing (§3.3.1): the flow list keeps the most critical
    ``2*kappa`` flows (kappa = currently sending), floored at
    ``min_list_capacity`` and hard-capped at ``hard_flow_limit`` (the
    paper's memory bound M); flows beyond the list fall back to an RCP-style
    leftover rate.

    ``aging_rate`` is the §7 fairness knob: senders advertise
    T_H / 2^(aging_rate * t) with t the flow's waiting time in units of
    ``aging_time_unit``.

    ``criticality_mode`` selects the §5.6 comparator input: ``"deadline"``
    (the paper's default EDF-then-SJF), ``"random"``, or ``"estimate"``
    (bytes sent so far, quantized to ``estimate_chunk``).
    """

    # variant switches
    early_start: bool = True
    early_termination: bool = True
    suppressed_probing: bool = True

    # algorithm parameters
    K: float = 2.0
    probing_x: float = 0.2
    dampening: bool = True
    dampening_rtts: float = 1.0
    # whether a flow more critical than the one just accepted bypasses the
    # dampening window. Measured on PDQ(ES), fig5.vl2 on single_rooted at
    # 10 000 flows/s, seeds 1-4 (864 deadline flows): the default misses
    # 43 deadlines, dampening=False 11, this exemption 0. It stays off
    # because it floods the link on Fig 7's 50-flow burst: utilisation
    # during preemption falls from 0.929 to 0.784 and the peak queue rises
    # from 63 to 334 packets
    dampening_preemption_exempt: bool = False

    # switch state sizing
    min_list_capacity: int = 16
    capacity_factor: int = 2
    hard_flow_limit: int = 64
    entry_expiry_rtts: float = 50.0

    # rate controller
    rate_controller_rtts: float = 2.0
    pdq_rate_fraction: float = 1.0

    # misc
    default_rtt: float = 150 * USEC
    min_rate: float = 1_000.0  # below this, a computed rate counts as "paused"
    # pause rather than grant a sliver: a flow is only accepted when it gets
    # at least this fraction of the rate it asked for (PDQ pauses contending
    # flows instead of trickling bandwidth to them, §2.2/§3.3)
    crumb_fraction: float = 0.05
    probe_interval_rtts: float = 1.0

    # fairness / criticality research knobs (§5.6, §7)
    aging_rate: float = 0.0
    aging_time_unit: float = 0.1
    criticality_mode: str = "deadline"
    estimate_chunk: int = 50 * KBYTE

    def __post_init__(self) -> None:
        if self.K < 0:
            raise ValueError(f"K must be >= 0, got {self.K}")
        if self.capacity_factor < 1:
            raise ValueError("capacity_factor must be >= 1")
        if self.criticality_mode not in ("deadline", "random", "estimate"):
            raise ValueError(
                f"unknown criticality_mode {self.criticality_mode!r}"
            )

    # -- named variants (paper §5.1) -------------------------------------------

    @classmethod
    def basic(cls, **overrides) -> "PdqConfig":
        """PDQ(Basic): no Early Start, Early Termination or Suppressed
        Probing."""
        return cls(**PRESET_FLAGS["basic"], **overrides)

    @classmethod
    def es(cls, **overrides) -> "PdqConfig":
        """PDQ(ES): Basic + Early Start."""
        return cls(**PRESET_FLAGS["es"], **overrides)

    @classmethod
    def es_et(cls, **overrides) -> "PdqConfig":
        """PDQ(ES+ET): Early Start + Early Termination."""
        return cls(**PRESET_FLAGS["es_et"], **overrides)

    @classmethod
    def full(cls, **overrides) -> "PdqConfig":
        """PDQ(Full): everything on (the paper's headline configuration)."""
        return cls(**PRESET_FLAGS["full"], **overrides)

    def with_(self, **changes) -> "PdqConfig":
        return replace(self, **changes)

    @property
    def variant_name(self) -> str:
        if self.early_start and self.early_termination and self.suppressed_probing:
            return "PDQ(Full)"
        if self.early_start and self.early_termination:
            return "PDQ(ES+ET)"
        if self.early_start:
            return "PDQ(ES)"
        return "PDQ(Basic)"
