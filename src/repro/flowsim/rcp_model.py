"""RCP equilibrium rate model: max-min fair sharing.

RCP's fixed point is max-min fairness over the network (every flow gets the
fair share of its bottleneck link), computed here by standard progressive
water-filling with per-flow rate caps.

``capacities`` may be a dict keyed by ``(src, dst)`` name tuples or a flat
list indexed by dense edge ids; flow paths hold the matching edge tokens.
"""

from __future__ import annotations


from repro.flowsim.progress import EdgeToken, FlowProgress


_INF = float("inf")


def max_min_rates(flows: list[FlowProgress],
                  capacities) -> dict[int, float]:
    """Progressive-filling max-min allocation honoring per-flow max rates.

    Each round either freezes the flows capped below the tightest
    edge's fair share at their cap, or raises every unfrozen flow by
    that share and freezes the flows crossing a saturated edge.
    Unfrozen flows have all received the same increments, so one scalar
    ``level`` is their common rate; each edge in use carries a count of
    the unfrozen flows crossing it, decremented as flows freeze, next to
    its residual. Paths are simple (no edge twice). The answer is certified
    by :func:`repro.flowsim.certify.check_max_min`: feasible, and every
    flow below its cap is bottlenecked on a saturated edge.
    """
    rates: dict[int, float] = {}
    # per edge in use, in first-use order: [unfrozen flows crossing it,
    # residual capacity]
    links: dict[EdgeToken, list] = {}
    for flow in flows:
        rates[flow.fid] = 0.0
        for edge in flow.path:
            if edge in links:
                links[edge][0] += 1
            else:
                links[edge] = [1, capacities[edge]]
    unfrozen = flows
    level = 0.0

    for _ in range(len(flows) + len(links) + 1):
        # the tightest link determines the next increment
        bottleneck_share = _INF
        for crossing, residual in links.values():
            if crossing:
                share = residual / crossing
                if share < bottleneck_share:
                    bottleneck_share = share
        if bottleneck_share == _INF:
            break
        # flows capped below the share freeze at their cap first
        limit = bottleneck_share + 1e-9
        capped = []
        still = []
        for flow in unfrozen:
            if flow.max_rate - level <= limit:
                capped.append(flow)
            else:
                still.append(flow)
        if capped:
            for flow in capped:
                increment = flow.max_rate - level
                rates[flow.fid] = flow.max_rate
                for edge in flow.path:
                    link = links[edge]
                    link[0] -= 1
                    link[1] -= increment
            unfrozen = still
            continue
        # otherwise saturate the bottleneck link(s)
        level += bottleneck_share
        for link in links.values():
            link[1] -= bottleneck_share * link[0]
        still = []
        for flow in unfrozen:
            for edge in flow.path:
                if links[edge][1] <= 1e-6:
                    rates[flow.fid] = level
                    for crossed in flow.path:
                        links[crossed][0] -= 1
                    break
            else:
                still.append(flow)
        unfrozen = still
    for flow in unfrozen:
        rates[flow.fid] = level
    return rates


class RcpModel:
    """Max-min fair rates; no deadline awareness, no termination."""

    name = "RCP"

    def allocate(self, flows: list[FlowProgress], capacities,
                 now: float) -> dict[int, float]:
        return max_min_rates(flows, capacities)

    def terminations(self, flows, rates, now) -> list[tuple[int, str]]:
        return []
