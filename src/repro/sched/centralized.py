"""The centralized scheduler PDQ approximates (paper §3).

    1. B_e = available bandwidth of link e, initialized to e's line rate.
    2. For each flow i, in increasing order of expected transmission time:
       (a) P_i = flow i's path
       (b) send flow i with rate min(Rmax_i, min_{e in P_i} B_e)
       (c) B_e -= rate for each e on the path

The flow-level simulator's PdqModel is this algorithm plus deadlines,
aging and the crumb rule; this module exposes the bare textbook version
for tests and for the formal-property checks (distributed PDQ's
equilibrium must match it). ``TestCentralizedOracle`` in
``tests/test_pdq_event_driven.py`` holds ``PdqModel.allocate`` — first
call and event-driven calls alike — to exact equality with it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

Edge = tuple[str, str]


def centralized_rates(
    flows: Sequence[tuple[int, float, Sequence[Edge], float]],
    capacities: Mapping[Edge, float],
) -> dict[int, float]:
    """Rates for (fid, expected_tx_time, path, max_rate) tuples.

    Flows are served in increasing expected transmission time (ties by
    fid); each takes as much as its path still has, capped at its maximal
    rate.
    """
    residual = dict(capacities)
    rates: dict[int, float] = {}
    ordered = sorted(flows, key=lambda f: (f[1], f[0]))
    for fid, _, path, max_rate in ordered:
        available = min((residual[e] for e in path), default=0.0)
        rate = max(0.0, min(max_rate, available))
        rates[fid] = rate
        for edge in path:
            residual[edge] -= rate
    return rates
