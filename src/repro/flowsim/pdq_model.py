"""PDQ equilibrium rate model (the §3 centralized algorithm as fluid).

For a stable set of flows, distributed PDQ converges to the allocation the
centralized scheduler computes (paper §4): process flows in criticality
order, give each the most bandwidth its path still has. The flow-level
simulator therefore uses the centralized algorithm directly, with the same
crumb rule as the packet-level switch (a flow offered only a sliver of its
maximal rate is paused instead).

``capacities`` may be a dict keyed by ``(src, dst)`` name tuples or a flat
list indexed by dense edge ids — flow paths just have to hold the matching
edge tokens (see :mod:`repro.flowsim.progress`).
"""

from __future__ import annotations


from repro.core.comparator import FlowComparator
from repro.core.config import PdqConfig
from repro.flowsim.progress import FlowProgress
from repro.utils.rng import spawn_rng


class PdqModel:
    """Water-filling in criticality order; supports ET, aging and the
    alternative criticality schemes (§5.6, §7)."""

    name = "PDQ"

    def __init__(self, config: PdqConfig | None = None,
                 comparator: FlowComparator | None = None):
        self.config = config or PdqConfig.full()
        self.comparator = comparator or FlowComparator()
        # comparator-key telemetry: static keys reused from the previous
        # sorted order vs recomputed
        self.cache_hits = 0
        self.cache_misses = 0
        # incremental-sort state, only used under the begin_run() contract:
        # the previous call's sorted (key, flow, remaining_wire) entries.
        # A key is reused while the flow's remaining_wire has not moved;
        # only valid while its other inputs are static (_keys_are_static)
        self._incremental = False
        self._prev_keyed: list | None = None

    def begin_run(self) -> None:
        """Opt into incremental sorting (called by the engine).

        Engine contract: between ``allocate`` calls the flows list only
        changes by *appending* newly promoted flows at the end and by
        removing flows whose ``departed`` flag is set (relative order
        otherwise preserved). Under that contract the model keeps the
        previous sorted order and re-sorts only flows whose key changed.
        Direct ``allocate`` calls without ``begin_run`` always rebuild."""
        self._incremental = True
        self._prev_keyed = None

    def invalidate_keys(self) -> None:
        """Drop the incremental-sort state and the comparator keys it
        carries. The engine calls this at fault-epoch reroutes: a flow's
        ``max_rate`` (and so ``expected_tx``) can change without its
        ``remaining_wire`` moving, which is the one invalidation signal
        key reuse watches."""
        self._prev_keyed = None

    # -- criticality -------------------------------------------------------------

    def _criticality(self, flow: FlowProgress, now: float) -> float | None:
        """Resolve the comparator's criticality input for ``flow``.

        Caching contract (relied on by comparator-key reuse):

        * a spec-provided ``criticality`` always wins and never changes;
        * ``random`` mode draws once per flow (seeded by fid) and caches
          the draw in ``flow.criticality`` — stable for the flow's life;
        * ``estimate`` mode is intentionally **dynamic**: it derives from
          bytes sent so far (quantized to ``estimate_chunk``) and is never
          cached on the flow, so every call reflects current progress;
        * ``deadline`` mode has no criticality override (returns None).
        """
        if flow.criticality is not None:
            return flow.criticality
        mode = self.config.criticality_mode
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
            flow.fid,
            flow.abs_deadline,
            self._aged_expected_tx(flow, now),
            self._criticality(flow, now),
        )

    def _keys_are_static(self) -> bool:
        """True when a flow's comparator key can only change through its
        own transmission progress (``remaining_wire``), so cached keys
        stay valid between recomputations. Aging keys decay with wall
        time and estimate-mode criticality moves with bytes sent below
        chunk granularity — both must be recomputed every time."""
        return (self.config.aging_rate <= 0
                and self.config.criticality_mode != "estimate")

    # -- allocation ------------------------------------------------------------------

    def allocate(self, flows: list[FlowProgress], capacities,
                 now: float) -> dict[int, float]:
        config = self.config
        comparator_key = self.comparator.key
        static = self._keys_are_static()
        prev = self._prev_keyed if (static and self._incremental) else None
        # entries are (key, flow, remaining_wire_at_key); keys embed the
        # fid, so they are unique and tuple comparison never reaches the
        # (incomparable) FlowProgress in second position
        if prev is not None:
            # previous sorted order, minus departures; only flows that
            # progressed (or newly arrived at the list's tail, per the
            # begin_run contract) need fresh keys and a near-sorted sort
            keyed = []
            tail = []
            for entry in prev:
                flow = entry[1]
                if flow.departed:
                    continue
                if flow.remaining_wire == entry[2]:
                    keyed.append(entry)
                else:
                    tail.append((
                        comparator_key(
                            flow.fid, flow.abs_deadline, flow.expected_tx(),
                            self._criticality(flow, now),
                        ),
                        flow, flow.remaining_wire,
                    ))
            n_new = len(flows) - len(keyed) - len(tail)
            if n_new:
                for flow in flows[len(flows) - n_new:]:
                    tail.append((
                        comparator_key(
                            flow.fid, flow.abs_deadline, flow.expected_tx(),
                            self._criticality(flow, now),
                        ),
                        flow, flow.remaining_wire,
                    ))
            self.cache_hits += len(keyed)
            self.cache_misses += len(tail)
            if tail:
                keyed.extend(tail)
                keyed.sort()
            self._prev_keyed = keyed
        else:
            keyed = [(self._key(flow, now), flow, flow.remaining_wire)
                     for flow in flows]
            keyed.sort()
            if static:
                self.cache_misses += len(flows)
                if self._incremental:
                    self._prev_keyed = keyed

        residual = capacities.copy()
        rates: dict[int, float] = {}
        min_rate = config.min_rate
        crumb_fraction = config.crumb_fraction
        for entry in keyed:
            flow = entry[1]
            path = flow.path
            max_rate = flow.max_rate
            available = residual[path[0]] if path else 0.0
            for edge in path:
                cap = residual[edge]
                if cap < available:
                    available = cap
            rate = max_rate if max_rate < available else available
            floor = crumb_fraction * max_rate
            if floor < min_rate:
                floor = min_rate
            if rate < floor:
                rates[flow.fid] = 0.0
                continue
            rates[flow.fid] = rate
            for edge in path:
                residual[edge] -= rate
        return rates

    # -- early termination (§3.1) -----------------------------------------------------

    def terminations(self, flows: list[FlowProgress],
                     rates: dict[int, float], now: float) -> list[tuple[int, str]]:
        if not self.config.early_termination:
            return []
        doomed = []
        for flow in flows:
            deadline = flow.abs_deadline
            if deadline is None:
                continue
            if now > deadline:
                doomed.append((flow.fid, "early_termination:deadline_passed"))
            elif now + flow.expected_tx() > deadline:
                doomed.append((flow.fid, "early_termination:cannot_finish"))
            elif rates.get(flow.fid, 0.0) <= 0 and now + flow.rtt > deadline:
                doomed.append((flow.fid, "early_termination:paused_near_deadline"))
        return doomed
