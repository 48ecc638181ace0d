"""Flow specification shared by the packet-level and flow-level simulators."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import WorkloadError


@dataclass(frozen=True)
class FlowSpec:
    """One flow to simulate.

    ``deadline`` is *relative* to ``arrival`` (the paper draws "time until
    deadline" distributions); ``absolute_deadline`` converts. ``criticality``
    optionally overrides the comparator input (used by the Random criticality
    scheme of §5.6); None means "derive from deadline/size as usual".
    """

    fid: int
    src: str
    dst: str
    size_bytes: int
    arrival: float = 0.0
    deadline: float | None = None
    criticality: float | None = None

    def __post_init__(self) -> None:
        # spelled so that NaN fails them too
        if not self.size_bytes > 0:
            raise WorkloadError(f"flow {self.fid}: size must be positive")
        if not self.arrival >= 0:
            raise WorkloadError(
                f"flow {self.fid}: negative or NaN arrival time")
        if self.deadline is not None and not self.deadline > 0:
            raise WorkloadError(f"flow {self.fid}: deadline must be positive")
        if self.src == self.dst:
            raise WorkloadError(f"flow {self.fid}: src == dst ({self.src})")

    @property
    def has_deadline(self) -> bool:
        return self.deadline is not None

    @property
    def absolute_deadline(self) -> float | None:
        if self.deadline is None:
            return None
        return self.arrival + self.deadline

    def with_(self, **changes) -> "FlowSpec":
        """Functional update (frozen dataclass)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe), inverse of :meth:`from_dict`."""
        return {
            "fid": self.fid,
            "src": self.src,
            "dst": self.dst,
            "size_bytes": self.size_bytes,
            "arrival": self.arrival,
            "deadline": self.deadline,
            "criticality": self.criticality,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FlowSpec":
        return cls(
            fid=data["fid"],
            src=data["src"],
            dst=data["dst"],
            size_bytes=data["size_bytes"],
            arrival=data.get("arrival", 0.0),
            deadline=data.get("deadline"),
            criticality=data.get("criticality"),
        )
