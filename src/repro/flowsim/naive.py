"""Reference (pre-optimization) fluid simulation engine and rate models.

These are the frozen PR-1 implementations of
:class:`~repro.flowsim.engine.FlowLevelSimulation` and the three rate
models, kept verbatim as the golden baseline: per-event full ``sorted()``
key recomputation, O(n) scans of the waiting/active lists, and
string-tuple edge-capacity dicts. The optimized engine must produce
**bit-identical** MetricsCollector output (pinned by
``tests/test_flowsim_parity.py``); this module exists only as the
reference those tests compare against. Do not optimize it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.comparator import FlowComparator
from repro.core.config import PdqConfig
from repro.errors import ExperimentError
from repro.net.routing import Router
from repro.flowsim.progress import FlowProgress
from repro.metrics.collector import MetricsCollector
from repro.topology.base import Topology
from repro.units import USEC, tx_time
from repro.utils.rng import spawn_rng
from repro.workload.flow import FlowSpec

Edge = tuple[str, str]

#: per-hop one-way latency components used for the RTT estimate, matching
#: the packet-level defaults (processing dominates)
_PER_HOP_DELAY = 25 * USEC + 0.1 * USEC


class NaiveFlowLevelSimulation:
    """Runs a workload through a rate model over a topology (baseline)."""

    def __init__(
        self,
        topology: Topology,
        model,
        mtu: int = 1500,
        header_bytes: int = 56,
        init_rtts: float = 2.0,
        refresh_interval: float = 1e-3,
        metrics: MetricsCollector | None = None,
    ):
        if mtu <= header_bytes:
            raise ExperimentError("mtu must exceed header size")
        self.topology = topology
        self.model = model
        self.mtu = mtu
        self.header_bytes = header_bytes
        self.payload = mtu - header_bytes
        self.init_rtts = init_rtts
        self.refresh_interval = refresh_interval
        self.metrics = metrics or MetricsCollector()
        self.router = Router(topology)
        self.capacities = self.router.capacities()
        self.now = 0.0
        self.recomputations = 0
        self.iterations = 0

    # -- setup helpers --------------------------------------------------------------

    def _wire_size(self, size_bytes: int) -> float:
        packets = -(-size_bytes // self.payload)
        return size_bytes + packets * self.header_bytes

    def _estimate_rtt(self, path: Sequence[tuple[str, str]]) -> float:
        rtt = 0.0
        for a, b in path:
            rate = self.capacities[(a, b)]
            rtt += 2.0 * (_PER_HOP_DELAY + tx_time(self.header_bytes, rate))
        return rtt

    def _make_progress(self, spec: FlowSpec) -> FlowProgress:
        path = self.router.flow_path(spec.fid, spec.src, spec.dst)
        max_rate = min(self.capacities[edge] for edge in path)
        rtt = self._estimate_rtt(path)
        return FlowProgress(
            spec=spec,
            path=path,
            max_rate=max_rate,
            rtt=rtt,
            wire_size=self._wire_size(spec.size_bytes),
            transfer_start=spec.arrival + self.init_rtts * rtt,
        )

    # -- main loop -------------------------------------------------------------------

    def run(self, flows: Sequence[FlowSpec], deadline: float = 60.0,
            max_recomputations: int = 2_000_000) -> MetricsCollector:
        pending = sorted(
            (self._make_progress(self.metrics.register(s).spec) for s in flows),
            key=lambda f: f.spec.arrival,
        )
        for flow in pending:
            self.metrics.on_start(flow.fid, flow.spec.arrival)
        waiting: list[FlowProgress] = list(pending)  # not yet transferring
        active: list[FlowProgress] = []

        while (waiting or active) and self.now <= deadline:
            self.iterations += 1
            if not active and waiting:
                # jump to the next transfer start
                self.now = max(self.now, min(f.transfer_start for f in waiting))
            self._promote(waiting, active)
            if not active:
                continue

            rates = self.model.allocate(active, self.capacities, self.now)
            self.recomputations += 1
            if self.recomputations > max_recomputations:
                raise ExperimentError(
                    "flow-level simulation did not converge "
                    f"({max_recomputations} recomputations)"
                )
            self._apply_rates(active, rates)
            if self._terminate_flows(active, rates):
                continue  # rates changed; recompute immediately

            horizon = self._next_event_time(waiting, active, deadline)
            dt = horizon - self.now
            if dt < 0:
                raise ExperimentError("fluid engine time went backwards")
            for flow in active:
                flow.advance(dt)
            self.now = horizon
            self._complete_finished(active)
        return self.metrics

    # -- helpers ---------------------------------------------------------------------------

    def _promote(self, waiting: list[FlowProgress],
                 active: list[FlowProgress]) -> None:
        # single pass: repeated list.remove would be quadratic at scale
        cutoff = self.now + 1e-12
        still_waiting: list[FlowProgress] = []
        for flow in waiting:
            if flow.transfer_start <= cutoff:
                active.append(flow)
            else:
                still_waiting.append(flow)
        if len(still_waiting) != len(waiting):
            waiting[:] = still_waiting

    def _apply_rates(self, active: list[FlowProgress],
                     rates: dict[int, float]) -> None:
        now = self.now
        for flow in active:
            rate = rates.get(flow.fid, 0.0)
            if rate <= 0 and flow.paused_since is None:
                flow.paused_since = now
            elif rate > 0 and flow.paused_since is not None:
                flow.waited += now - flow.paused_since
                flow.paused_since = None
            flow.rate = rate

    def _terminate_flows(self, active: list[FlowProgress],
                         rates: dict[int, float]) -> bool:
        doomed = self.model.terminations(active, rates, self.now)
        if not doomed:
            return False
        doomed_fids = set()
        for fid, reason in doomed:
            doomed_fids.add(fid)
            self.metrics.on_terminated(fid, self.now, reason)
        active[:] = [f for f in active if f.fid not in doomed_fids]
        return True

    def _next_event_time(self, waiting: list[FlowProgress],
                         active: list[FlowProgress], deadline: float) -> float:
        horizon = self.now + self.refresh_interval
        if waiting:
            horizon = min(horizon, min(f.transfer_start for f in waiting))
        for flow in active:
            horizon = min(horizon, flow.completion_eta(self.now))
            # ET condition boundaries also warrant a recomputation
            if flow.spec.absolute_deadline is not None and \
                    flow.spec.absolute_deadline > self.now:
                horizon = min(horizon, flow.spec.absolute_deadline)
        return min(horizon, deadline + self.refresh_interval)

    def _complete_finished(self, active: list[FlowProgress]) -> None:
        finished = [f for f in active if f.remaining_wire <= 1e-6]
        if not finished:
            return
        done_fids = set()
        for flow in finished:
            done_fids.add(flow.fid)
            self.metrics.on_bytes(flow.fid, flow.spec.size_bytes)
            self.metrics.on_complete(flow.fid, self.now)
        active[:] = [f for f in active if f.fid not in done_fids]


# -- frozen pre-optimization rate models ------------------------------------------


class NaivePdqModel:
    """Seed PdqModel: full key recomputation on every allocate call."""

    name = "PDQ"

    def __init__(self, config: PdqConfig | None = None,
                 comparator: FlowComparator | None = None):
        self.config = config or PdqConfig.full()
        self.comparator = comparator or FlowComparator()

    def _criticality(self, flow: FlowProgress, now: float) -> float | None:
        mode = self.config.criticality_mode
        if flow.criticality is not None:
            return flow.criticality
        if mode == "random":
            flow.criticality = float(
                spawn_rng(flow.fid, "criticality").random()
            )
            return flow.criticality
        if mode == "estimate":
            chunk = self.config.estimate_chunk
            return float(int(flow.sent_wire // chunk) * chunk)
        return None

    def _aged_expected_tx(self, flow: FlowProgress, now: float) -> float:
        expected = flow.expected_tx()
        if self.config.aging_rate <= 0:
            return expected
        waited = flow.waited
        if flow.paused_since is not None:
            waited += now - flow.paused_since
        units = waited / self.config.aging_time_unit
        return expected / (2.0 ** (self.config.aging_rate * units))

    def _key(self, flow: FlowProgress, now: float):
        return self.comparator.key(
            flow.spec.fid,
            flow.spec.absolute_deadline,
            self._aged_expected_tx(flow, now),
            self._criticality(flow, now),
        )

    def allocate(self, flows: list[FlowProgress],
                 capacities: dict[Edge, float],
                 now: float) -> dict[int, float]:
        residual = dict(capacities)
        rates: dict[int, float] = {}
        ordered = sorted(flows, key=lambda f: self._key(f, now))
        for flow in ordered:
            available = min(
                (residual[edge] for edge in flow.path), default=0.0
            )
            rate = min(flow.max_rate, available)
            floor = max(
                self.config.min_rate,
                self.config.crumb_fraction * flow.max_rate,
            )
            if rate < floor:
                rates[flow.spec.fid] = 0.0
                continue
            rates[flow.spec.fid] = rate
            for edge in flow.path:
                residual[edge] -= rate
        return rates

    def terminations(self, flows: list[FlowProgress],
                     rates: dict[int, float], now: float) -> list[tuple[int, str]]:
        if not self.config.early_termination:
            return []
        doomed = []
        for flow in flows:
            deadline = flow.spec.absolute_deadline
            if deadline is None:
                continue
            if now > deadline:
                doomed.append((flow.spec.fid, "early_termination:deadline_passed"))
            elif now + flow.expected_tx() > deadline:
                doomed.append((flow.spec.fid, "early_termination:cannot_finish"))
            elif rates.get(flow.spec.fid, 0.0) <= 0 and now + flow.rtt > deadline:
                doomed.append(
                    (flow.spec.fid, "early_termination:paused_near_deadline")
                )
        return doomed


def naive_max_min_rates(flows: list[FlowProgress],
                        capacities: dict[Edge, float]) -> dict[int, float]:
    """Seed max-min water-filling over string-tuple capacity dicts."""
    rates: dict[int, float] = {f.spec.fid: 0.0 for f in flows}
    residual = dict(capacities)
    unfrozen: set[int] = {f.spec.fid for f in flows}
    by_fid = {f.spec.fid: f for f in flows}
    link_flows: dict[Edge, set[int]] = {}
    for flow in flows:
        for edge in flow.path:
            link_flows.setdefault(edge, set()).add(flow.spec.fid)

    for _ in range(len(flows) + len(link_flows) + 1):
        if not unfrozen:
            break
        bottleneck_share = float("inf")
        for edge, members in link_flows.items():
            active = members & unfrozen
            if not active:
                continue
            share = residual[edge] / len(active)
            bottleneck_share = min(bottleneck_share, share)
        if bottleneck_share == float("inf"):
            break
        capped = [
            fid for fid in unfrozen
            if by_fid[fid].max_rate - rates[fid] <= bottleneck_share + 1e-9
        ]
        if capped:
            for fid in capped:
                increment = by_fid[fid].max_rate - rates[fid]
                rates[fid] = by_fid[fid].max_rate
                for edge in by_fid[fid].path:
                    residual[edge] -= increment
                unfrozen.discard(fid)
            continue
        for fid in list(unfrozen):
            rates[fid] += bottleneck_share
        for edge, members in link_flows.items():
            active = members & unfrozen
            residual[edge] -= bottleneck_share * len(active)
        for edge, members in link_flows.items():
            if residual[edge] <= 1e-6:
                for fid in members & unfrozen:
                    unfrozen.discard(fid)
    return rates


class NaiveRcpModel:
    """Seed RcpModel: max-min fair rates, dict-keyed capacities."""

    name = "RCP"

    def allocate(self, flows: list[FlowProgress],
                 capacities: dict[Edge, float],
                 now: float) -> dict[int, float]:
        return naive_max_min_rates(flows, capacities)

    def terminations(self, flows, rates, now) -> list[tuple[int, str]]:
        return []


class NaiveD3Model:
    """Seed D3Model: arrival-order reservations plus max-min leftovers."""

    name = "D3"

    def allocate(self, flows: list[FlowProgress],
                 capacities: dict[Edge, float],
                 now: float) -> dict[int, float]:
        residual = dict(capacities)
        reserved: dict[int, float] = {f.spec.fid: 0.0 for f in flows}

        deadline_flows = sorted(
            (f for f in flows if f.spec.has_deadline),
            key=lambda f: (f.spec.arrival, f.spec.fid),
        )
        for flow in deadline_flows:
            deadline = flow.spec.absolute_deadline
            time_left = deadline - now
            if time_left <= 0:
                continue  # quenching will remove it
            demand = min(flow.max_rate, flow.remaining_wire * 8.0 / time_left)
            available = min(
                (residual[edge] for edge in flow.path), default=0.0
            )
            grant = max(0.0, min(demand, available))
            if grant > 0:
                reserved[flow.spec.fid] = grant
                for edge in flow.path:
                    residual[edge] -= grant

        leftovers = [
            _NaiveShadow(f, max(0.0, f.max_rate - reserved[f.spec.fid]))
            for f in flows
        ]
        shares = naive_max_min_rates(leftovers, residual)
        return {
            f.spec.fid: reserved[f.spec.fid] + shares.get(f.spec.fid, 0.0)
            for f in flows
        }

    def terminations(self, flows: list[FlowProgress],
                     rates: dict[int, float], now: float) -> list[tuple[int, str]]:
        return [
            (f.spec.fid, "quenching:deadline_passed")
            for f in flows
            if f.spec.absolute_deadline is not None
            and now > f.spec.absolute_deadline
        ]


class _NaiveShadow:
    """FlowProgress stand-in with a reduced max rate for the leftover
    water-filling phase."""

    __slots__ = ("spec", "path", "max_rate")

    def __init__(self, flow: FlowProgress, headroom: float):
        self.spec = flow.spec
        self.path = flow.path
        self.max_rate = headroom


#: optimized-model class -> its frozen baseline counterpart
def naive_model_for(model):
    """Build the frozen counterpart of an optimized rate model instance."""
    from repro.flowsim.d3_model import D3Model
    from repro.flowsim.pdq_model import PdqModel
    from repro.flowsim.rcp_model import RcpModel

    if isinstance(model, PdqModel):
        return NaivePdqModel(model.config, model.comparator)
    if isinstance(model, RcpModel):
        return NaiveRcpModel()
    if isinstance(model, D3Model):
        return NaiveD3Model()
    raise ExperimentError(
        f"no naive baseline for model {type(model).__name__}"
    )
