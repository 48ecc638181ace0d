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

Event-driven allocation
-----------------------
PDQ preempts: at the equilibrium almost every active flow is paused, and
nothing about a paused flow changes until an event touches the edge that
blocks it. Under the engine's :meth:`PdqModel.begin_run` contract with
static keys the model therefore keeps, between ``allocate`` calls,

* last call's *senders* (rate > 0) in key order with the rate granted, and
* per edge, the paused flows *parked* on it as ``(key, flow)`` — each
  paused flow on the one edge that blocked it (its path's minimum
  residual, which was below the flow's floor).

A call evaluates only *candidates*, in key order, against a fresh
``residual = capacities.copy()`` with the full pass's float operations in
the full pass's order: every surviving sender (rekeyed iff its
``remaining_wire`` moved), the newly promoted tail of ``flows``, and the
parked flows that were *woken*:

* a sender that departed wakes the flows parked on its edges behind it;
* a candidate granted less than last call (paused included) wakes the
  flows parked on its edges whose key is greater than its own;
* if two surviving senders swapped key order, or a sender's key grew,
  everything is woken (a full pass; ``reorder_wakes`` counts them).

Why an unwoken parked flow is still paused: every sender is re-evaluated
in every call, so each candidate sees the exact residual the full pass
would show it. A parked flow's blocking residual is ``cap - r1 - r2 ...``
over the lower-key senders on that edge in key order; float subtraction is
monotone in the minuend and in the subtrahend, so a sender that joins the
sequence or grows can only lower the result. Unless one of those senders
leaves, shrinks or is reordered against another — the three wake rules —
the residual is ``<=`` the value that blocked the flow, which was below
its floor, and the flow's own key, floor and path have not moved (it made
no progress). Dynamic-key modes (aging, ``estimate``), direct calls
without ``begin_run()`` and the first call after ``invalidate_keys()``
start from no state, which makes every flow a candidate of the same loop.

The returned dict has an entry for every *evaluated* flow. An absent fid
was paused last call and stays paused.
"""

from __future__ import annotations

import heapq
from bisect import insort
from math import inf, nextafter

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
        # comparator-key telemetry per allocate call with static keys:
        # misses = keys computed (senders that progressed + new flows),
        # hits = every other flow offered (its key, stored with the
        # sender or parked entry, is still valid)
        self.cache_hits = 0
        self.cache_misses = 0
        #: calls in which a sender reorder woke every parked flow
        self.reorder_wakes = 0
        self._incremental = False
        self._seq = 0  # deadline flows registered; admission order
        self._forget()

    def _forget(self) -> None:
        """Drop everything kept between calls: the next ``allocate``
        sees every flow as new."""
        #: last call's (key, flow, remaining_wire_at_key, rate), key order
        self._senders: list[tuple] = []
        #: edge -> [(key, flow)] paused flows blocked by that edge
        self._parked: dict = {}
        #: fids in ``_senders`` or ``_parked``: whatever follows them at
        #: the tail of ``flows`` is newly promoted
        self._known: set[int] = set()
        #: Early-Termination watch window: (watch_from, seq, flow) heap of
        #: deadline flows that cannot be doomed yet, and the (seq, flow)
        #: list, in admission order, of those that can
        self._unwatched: list[tuple[float, int, FlowProgress]] = []
        self._watched: list[tuple[int, FlowProgress]] = []

    def begin_run(self) -> None:
        """Opt into event-driven allocation (called by the engine).

        Engine contract: between ``allocate`` calls the flows list only
        changes by *appending* newly promoted flows at the end and by
        removing flows whose ``departed`` flag is set (relative order
        otherwise preserved); a flow's path, ``max_rate`` and ``rtt``
        change only before an ``invalidate_keys()``; ``terminations`` is
        asked after each ``allocate`` and the flows it names depart.
        Direct ``allocate`` calls without ``begin_run`` keep no state."""
        self._incremental = True
        self._forget()

    def invalidate_keys(self) -> None:
        """Drop the state kept between calls and the comparator keys it
        carries. The engine calls this at fault-epoch reroutes: a flow's
        path, ``max_rate`` (and so ``expected_tx`` and its floor) and
        ``rtt`` can change without its ``remaining_wire`` moving, which
        is the one invalidation signal key reuse watches."""
        self._forget()

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
        own transmission progress (``remaining_wire``), so stored keys
        stay valid between recomputations. Aging keys decay with wall
        time and estimate-mode criticality moves with bytes sent below
        chunk granularity — both must be recomputed every time."""
        return (self.config.aging_rate <= 0
                and self.config.criticality_mode != "estimate")

    # -- allocation ------------------------------------------------------------------

    def allocate(self, flows: list[FlowProgress], capacities,
                 now: float) -> dict[int, float]:
        config = self.config
        key_of = self._key
        static = self._keys_are_static()
        keeps_state = static and self._incremental
        if not keeps_state:
            self._forget()
        parked = self._parked
        known = self._known

        # candidates are (key, flow, rate granted last call); keys embed
        # the fid, so they are unique and tuple comparison never reaches
        # the (incomparable) FlowProgress in second position
        candidates: list[tuple] = []
        misses = 0
        reordered = False
        last_key = None
        for key, flow, wire, rate in self._senders:
            if flow.departed:
                known.discard(flow.fid)
                candidates.extend(self._wake(flow.path, key))
                continue
            if flow.remaining_wire != wire:
                misses += 1
                new_key = key_of(flow, now)
                if new_key > key:
                    reordered = True
                key = new_key
            if last_key is not None and key < last_key:
                reordered = True
            last_key = key
            candidates.append((key, flow, rate))
        first_new = len(flows) if known else 0
        while first_new and flows[first_new - 1].fid not in known:
            first_new -= 1
        new = flows[first_new:] if first_new else flows
        misses += len(new)
        for flow in new:
            candidates.append((key_of(flow, now), flow, 0.0))
        if keeps_state:
            for flow in new:
                known.add(flow.fid)
                if flow.abs_deadline is not None and config.early_termination:
                    self._watch_later(flow)
        if reordered:
            self.reorder_wakes += 1
            for entries in parked.values():
                candidates.extend(
                    (key, flow, 0.0) for key, flow in entries
                    if not flow.departed
                )
            parked.clear()
        if static:
            self.cache_misses += misses
            self.cache_hits += len(flows) - misses
        candidates.sort()

        residual = capacities.copy()
        rates: dict[int, float] = {}
        senders: list[tuple] = []
        min_rate = config.min_rate
        crumb_fraction = config.crumb_fraction
        woken: list[tuple] = []  # heap of flows woken while evaluating
        heappop = heapq.heappop
        heappush = heapq.heappush
        index = 0
        n_sorted = len(candidates)
        while index < n_sorted or woken:
            if woken and (index == n_sorted or woken[0] < candidates[index]):
                key, flow, granted = heappop(woken)
            else:
                key, flow, granted = candidates[index]
                index += 1
            path = flow.path
            max_rate = flow.max_rate
            # the path's minimum residual and the (first) edge holding it
            tight = None
            available = 0.0
            if path:
                tight = path[0]
                available = residual[tight]
                for edge in path:
                    cap = residual[edge]
                    if cap < available:
                        available = cap
                        tight = edge
            rate = max_rate if max_rate < available else available
            floor = crumb_fraction * max_rate
            if floor < min_rate:
                floor = min_rate
            if rate < floor or rate <= 0.0:
                rate = 0.0
                entries = parked.get(tight)
                if entries is None:
                    parked[tight] = [(key, flow)]
                else:
                    entries.append((key, flow))
            else:
                senders.append((key, flow, flow.remaining_wire, rate))
                for edge in path:
                    residual[edge] -= rate
            rates[flow.fid] = rate
            if rate < granted:
                for entry in self._wake(path, key):
                    heappush(woken, entry)
        self._senders = senders
        return rates

    def _wake(self, path, key) -> list[tuple]:
        """Unpark the flows parked on ``path``'s edges whose key is greater
        than ``key`` and return them as candidates; departed ones drop out
        of every list scanned on the way."""
        parked = self._parked
        woken = []
        for edge in path:
            entries = parked.get(edge)
            if not entries:
                continue
            kept = []
            for entry in entries:
                if entry[1].departed:
                    continue
                if entry[0] > key:
                    woken.append((entry[0], entry[1], 0.0))
                else:
                    kept.append(entry)
            parked[edge] = kept
        return woken

    # -- early termination (§3.1) -----------------------------------------------------

    def _watch_later(self, flow: FlowProgress) -> None:
        """Queue a new deadline flow until it can possibly be doomed.

        With ``bound >= max(expected_tx, rtt)`` now — ``expected_tx`` only
        shrinks from here — and ``watch_from + bound <= deadline`` checked
        in floats, every ``now <= watch_from`` has ``now + expected_tx <=
        now + bound <= watch_from + bound <= deadline`` (float addition
        is monotone), likewise for ``rtt`` and for ``now`` alone: all
        three predicates of :meth:`terminations` are false, no epsilon."""
        deadline = flow.abs_deadline
        bound = max(flow.expected_tx(), flow.rtt)
        watch_from = deadline - bound
        while watch_from + bound > deadline:
            watch_from = nextafter(watch_from, -inf)
        self._seq += 1
        heapq.heappush(self._unwatched, (watch_from, self._seq, flow))

    def _watch(self, now: float) -> list[FlowProgress]:
        """The live flows whose watch window has opened, in admission
        order."""
        unwatched = self._unwatched
        watched = self._watched
        while unwatched and unwatched[0][0] < now:
            _, seq, flow = heapq.heappop(unwatched)
            insort(watched, (seq, flow))
        live = [entry for entry in watched if not entry[1].departed]
        if len(live) != len(watched):
            watched[:] = live
        return [flow for _, flow in live]

    def terminations(self, flows: list[FlowProgress],
                     rates: dict[int, float], now: float) -> list[tuple[int, str]]:
        if not self.config.early_termination:
            return []
        keeps_state = self._incremental and self._keys_are_static()
        if keeps_state:
            # a flow outside its watch window passes all three tests
            flows = self._watch(now)
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
        if keeps_state:
            # they depart without a further allocate seeing them
            self._known.difference_update(fid for fid, _ in doomed)
        return doomed
