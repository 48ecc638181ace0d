"""Exception hierarchy for the PDQ reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulator is used incorrectly."""


class TopologyError(ReproError):
    """Raised for malformed topology parameters or unreachable endpoints."""


class RoutingError(ReproError):
    """Raised when no route exists between two nodes."""


class ProtocolError(ReproError):
    """Raised on protocol state-machine violations (bugs, not packet loss)."""


class WorkloadError(ReproError):
    """Raised for invalid workload specifications."""


class ExperimentError(ReproError):
    """Raised when an experiment is configured inconsistently."""


class CampaignError(ExperimentError):
    """Raised for invalid scenario specs, cache corruption, or failed
    campaign runs (subclasses :class:`ExperimentError` so experiment-level
    callers can catch either)."""


class FaultError(CampaignError):
    """Raised for malformed fault schedules or loss rules, which the spec
    schema reads and names by JSON path (``scenario faults events[0]
    time: must be >= 0, got -1``), or for fault events naming links or
    switches the topology does not have (subclasses
    :class:`CampaignError`: a bad ``faults`` field is an invalid spec)."""
