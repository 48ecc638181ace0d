"""Aggregate summaries for experiment reports."""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Any

from repro.metrics.collector import MetricsCollector
from repro.utils.stats import mean, percentile


@dataclass(frozen=True)
class SummaryStats:
    """One-line summary of a run, as printed by the benchmark harness."""

    n_flows: int
    n_completed: int
    n_terminated: int
    mean_fct: float | None
    p95_fct: float | None
    max_fct: float | None
    application_throughput: float | None
    total_retransmissions: int

    @classmethod
    def from_collector(cls, collector: MetricsCollector) -> "SummaryStats":
        summarize = getattr(collector, "summarize", None)
        if summarize is not None:
            # streaming collectors evicted their records; their summary
            # comes from the run-long accumulators instead
            return summarize()
        records = collector.all_records()
        fcts: list[float] = [r.fct for r in records if r.completed]
        has_deadlines = any(r.spec.has_deadline for r in records)
        return cls(
            n_flows=len(records),
            n_completed=sum(1 for r in records if r.completed),
            n_terminated=sum(1 for r in records if r.terminated),
            mean_fct=mean(fcts) if fcts else None,
            p95_fct=percentile(fcts, 95) if fcts else None,
            max_fct=max(fcts) if fcts else None,
            application_throughput=(
                collector.application_throughput() if has_deadlines else None
            ),
            total_retransmissions=sum(r.retransmissions for r in records),
        )

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe), inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SummaryStats":
        return cls(
            n_flows=data["n_flows"],
            n_completed=data["n_completed"],
            n_terminated=data["n_terminated"],
            mean_fct=data.get("mean_fct"),
            p95_fct=data.get("p95_fct"),
            max_fct=data.get("max_fct"),
            application_throughput=data.get("application_throughput"),
            total_retransmissions=data.get("total_retransmissions", 0),
        )

    def describe(self) -> str:
        parts = [
            f"flows={self.n_flows}",
            f"completed={self.n_completed}",
            f"terminated={self.n_terminated}",
        ]
        if self.mean_fct is not None:
            parts.append(f"mean_fct={self.mean_fct * 1e3:.3f}ms")
        if self.max_fct is not None:
            parts.append(f"max_fct={self.max_fct * 1e3:.3f}ms")
        if self.application_throughput is not None:
            parts.append(f"app_tput={self.application_throughput * 100:.1f}%")
        return " ".join(parts)


def digest(data: Any) -> str:
    """SHA-256 hex digest of ``canonical_json(data)``: the recipe of
    every pinned run digest. A collector is hashed as its ``to_dict()``,
    so the digest covers each flow record and ``stats``."""
    from repro.campaign.spec import canonical_json

    if isinstance(data, MetricsCollector):
        data = data.to_dict()
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()
