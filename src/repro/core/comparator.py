"""Flow criticality comparison (paper §3.3).

"We say a flow is more critical than another one if it has smaller deadline
(emulating EDF) ... When there is a tie or flows have no deadline, we break
it by giving priority to the flow with smaller expected transmission time
(emulating SJF). If a tie remains, we break it by flow ID."

Criticality is expressed as a sortable key: smaller key = more critical.
The optional ``criticality`` header field (the §5.6 Random / Estimation
schemes and §7 aging advertise through it / through T_H) replaces the SJF
component when present.
"""

from __future__ import annotations


_INF = float("inf")

#: key type: (deadline-or-inf, sjf-or-override, flow id)
CriticalityKey = tuple[float, float, int]


def criticality_key(
    fid: int,
    deadline: float | None,
    expected_tx: float,
    criticality: float | None = None,
) -> CriticalityKey:
    """Build a sortable criticality key. Smaller sorts first (more
    critical). ``deadline`` is the absolute deadline (None = no deadline);
    ``criticality``, when set, overrides the expected-transmission-time
    component."""
    d = deadline if deadline is not None else _INF
    c = criticality if criticality is not None else expected_tx
    return (d, c, fid)


class FlowComparator:
    """Pluggable comparator; operators can override (paper §3.3, §7).

    The default implements the paper's EDF-then-SJF-then-fid order. Custom
    disciplines subclass and override :meth:`key`.
    """

    #: ``key(fid, deadline, expected_tx, criticality=None)``; the switch
    #: builds one per forwarded packet, so the default is the key function
    #: itself rather than a method that forwards to it
    key = staticmethod(criticality_key)

    def more_critical(self, a: CriticalityKey, b: CriticalityKey) -> bool:
        return a < b

