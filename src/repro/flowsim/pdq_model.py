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
one event changes the state of only a few flows. Under the engine's
:meth:`PdqModel.begin_run` contract with static keys the model therefore
keeps, between ``allocate`` calls,

* last call's *senders* (rate > 0) as :class:`_Sender` records in key
  order, each with the rate granted;
* per edge, the sender records *crossing* it, in key order;
* per edge, the paused flows *parked* on it as ``(key, flow)`` — each
  paused flow on one edge that holds it below its floor.

The residual a flow sees on an edge is ``capacities[e]`` minus the rates
of the records before it on that edge's crossing list, subtracted in key
order: the full pass's float operations in the full pass's order.
Surviving senders are rekeyed first (iff their ``remaining_wire``
moved); then a call evaluates only *candidates*, in key order: the newly
promoted tail of ``flows``, the parked flows that were *woken* and the
senders that are *dirty*:

* a sender that departed leaves its crossing lists, dirties the records
  behind it on them and wakes the flows parked on its edges behind it;
* a candidate granted another rate than last call (a new sender
  included) dirties the records behind it on its edges; if it was
  granted less (paused included), it also wakes the flows parked on its
  edges whose key is greater than its own;
* if two surviving senders swapped key order, or a sender's key grew,
  the call is a full pass: the crossing lists are cleared, every
  survivor is evaluated as a fresh record and every parked flow is woken
  (``reorder_wakes`` counts these calls).

Why a clean sender keeps its rate: no crossing list of its edges lost
or gained a record ahead of it, and every record ahead of it kept its
rate, so — by induction in key order — each of its residuals, and so
its rate, is the full pass's. It is absent from the returned dict.

A woken flow is first checked against the edge it was parked on. If
that edge's residual at the flow's key is below the flow's floor (or
not positive), ``rate <= residual < floor`` holds with no path scan: the
flow goes back on the same edge, unevaluated (``reparked`` counts it).
The check reads this call's exact residual, so it holds in a full pass
too.

Why an unwoken parked flow is still paused: a paused flow's rate is at
most ``min(max_rate, residual)`` on any one of its edges, and that was
below its floor (or not positive) on the edge it is parked on. That
residual is ``cap - r1 - r2 ...`` over the lower-key senders on the edge
in key order; float subtraction is monotone in the minuend and in the
subtrahend, so a sender that joins the sequence or grows can only lower
the result. Unless one of those senders leaves, shrinks or is reordered
against another — the three wake rules — the bound still holds, and the
flow's own key, floor and path have not moved (it made no progress).
This is why any edge below the floor will do, not only the tightest.
Dynamic-key modes (aging, ``estimate``), direct calls without
``begin_run()`` and the first call after ``invalidate_keys()`` start
from no state, which makes every flow a candidate of the same loop.

The returned dict has an entry for every *evaluated* flow (``evaluated``
counts them). An absent fid keeps its rate: a clean sender, or a flow
paused last call that stays paused.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import defaultdict
from math import inf, nextafter
from operator import attrgetter

from repro.core.comparator import CriticalityKey, FlowComparator
from repro.core.config import PdqConfig
from repro.flowsim.progress import EdgeToken, FlowProgress
from repro.utils.rng import spawn_rng


class _Sender:
    """A flow granted rate > 0: its key, the ``remaining_wire`` the key
    was computed at, the rate granted, and the last call that queued it
    for evaluation (so it is queued once per call)."""

    __slots__ = ("key", "flow", "wire", "rate", "stamp")

    def __init__(self, key: CriticalityKey, flow: FlowProgress,
                 rate: float, stamp: int):
        self.key = key
        self.flow = flow
        self.wire = flow.remaining_wire
        self.rate = rate
        self.stamp = stamp


#: an allocate candidate: (key, flow, rate granted last call, its sender
#: record while that sits on crossing lists, the edge a woken flow was
#: parked on). Keys embed the fid, so they are unique and tuple
#: comparison never reaches the (incomparable) flow in second position.
_Candidate = tuple[CriticalityKey, FlowProgress, float,
                   _Sender | None, EdgeToken | None]

_key_order = attrgetter("key")


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
        #: host-free work counters: flows whose rate was computed, and
        #: woken flows put back on their edge by the blocker check
        self.evaluated = 0
        self.reparked = 0
        self._incremental = False
        self._seq = 0  # deadline flows registered; admission order
        self._stamp = 0  # allocate calls so far
        self._forget()

    def _forget(self) -> None:
        """Drop everything kept between calls: the next ``allocate``
        sees every flow as new."""
        #: last call's senders, key order
        self._senders: list[_Sender] = []
        #: edge -> the senders crossing it, key order
        self._crossing: defaultdict[EdgeToken, list[_Sender]] = \
            defaultdict(list)
        #: edge -> [(key, flow)] paused flows held below their floor by
        #: that edge (None: the flows with an empty path)
        self._parked: dict[EdgeToken | None,
                           list[tuple[CriticalityKey, FlowProgress]]] = {}
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
        asked after each ``allocate``, once its rates are applied to the
        flows (an absent fid reads ``flow.rate``), and the flows it names
        depart.
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
        static = self._keys_are_static()
        keeps_state = static and self._incremental
        if not keeps_state:
            self._forget()
        crossing = self._crossing
        parked = self._parked
        known = self._known
        self._stamp = stamp = self._stamp + 1

        # rekey the surviving senders (only kept state has any: static
        # keys, so ``_key`` is the comparator on ``expected_tx()`` and
        # the criticality cached on the flow) and check their order
        comparator_key = self.comparator.key
        survivors: list[_Sender] = []
        departed: list[_Sender] = []
        misses = 0
        reordered = False
        last_key: CriticalityKey | None = None
        for sender in self._senders:
            flow = sender.flow
            if flow.departed:
                known.discard(flow.fid)
                departed.append(sender)
                continue
            key = sender.key
            wire = flow.remaining_wire
            if wire != sender.wire:
                misses += 1
                new_key = comparator_key(flow.fid, flow.abs_deadline,
                                         wire * 8.0 / flow.max_rate,
                                         flow.criticality)
                if new_key > key:
                    reordered = True
                sender.key = key = new_key
                sender.wire = wire
            if last_key is not None and key < last_key:
                reordered = True
            last_key = key
            survivors.append(sender)

        candidates: list[_Candidate] = []
        first_new = len(flows) if known else 0
        while first_new and flows[first_new - 1].fid not in known:
            first_new -= 1
        new = flows[first_new:] if first_new else flows
        misses += len(new)
        key_of = self._key
        for flow in new:
            candidates.append((key_of(flow, now), flow, 0.0, None, None))
        if keeps_state:
            for flow in new:
                known.add(flow.fid)
                if flow.abs_deadline is not None and config.early_termination:
                    self._watch_later(flow)
        if reordered:
            self.reorder_wakes += 1
            crossing.clear()
            for sender in survivors:
                candidates.append(
                    (sender.key, sender.flow, sender.rate, None, None))
            survivors = []
            for parked_on, sleepers in parked.items():
                candidates.extend(
                    (key, flow, 0.0, None, parked_on)
                    for key, flow in sleepers if not flow.departed
                )
                sleepers.clear()
        else:
            for sender in departed:
                for edge in sender.flow.path:
                    line = crossing[edge]
                    at = line.index(sender)
                    del line[at]
                    # a record behind it that departed too is skipped
                    # here and unlinked by its own turn of this loop
                    for behind in line[at:]:
                        if behind.stamp != stamp and not behind.flow.departed:
                            behind.stamp = stamp
                            candidates.append((behind.key, behind.flow,
                                               behind.rate, behind, None))
                candidates.extend(self._wake(sender.flow.path, sender.key))
        if static:
            self.cache_misses += misses
            self.cache_hits += len(flows) - misses
        candidates.sort()

        rates: dict[int, float] = {}
        joined: list[_Sender] = []  # senders new this call, key order
        paused = 0                  # survivors paused this call
        evaluated = reparked = 0
        min_rate = config.min_rate
        crumb_fraction = config.crumb_fraction
        pending: list[_Candidate] = []  # heap queued while evaluating
        heappop = heapq.heappop
        heappush = heapq.heappush
        index = 0
        n_sorted = len(candidates)
        while index < n_sorted or pending:
            if pending and (index == n_sorted
                            or pending[0] < candidates[index]):
                key, flow, granted, record, blocker = heappop(pending)
            else:
                key, flow, granted, record, blocker = candidates[index]
                index += 1
            max_rate = flow.max_rate
            floor = crumb_fraction * max_rate
            if floor < min_rate:
                floor = min_rate
            if blocker is not None:
                # woken: still held below its floor by that edge?
                # Measured: evaluating every woken flow instead made
                # fluid-batch-pdq's median wall_s 1.25x, slower in 10 of
                # 10 pairs
                cap = capacities[blocker]
                for other in crossing[blocker]:
                    if not other.key < key:
                        break
                    cap -= other.rate
                if cap < floor or cap <= 0.0:
                    parked[blocker].append((key, flow))
                    reparked += 1
                    continue
            evaluated += 1
            path = flow.path
            # the path's minimum residual, the (first) edge holding it,
            # and this flow's place in each crossing list
            tight: EdgeToken | None = None
            available = 0.0
            places: list[tuple[list[_Sender], int]] = []
            for edge in path:
                cap = capacities[edge]
                on_edge = crossing[edge]
                at = 0
                for other in on_edge:
                    if not other.key < key:
                        break
                    cap -= other.rate
                    at += 1
                if tight is None or cap < available:
                    available = cap
                    tight = edge
                places.append((on_edge, at))
            rate = max_rate if max_rate < available else available
            if rate < floor or rate <= 0.0:
                rate = 0.0
                entries = parked.get(tight)
                if entries is None:
                    parked[tight] = [(key, flow)]
                else:
                    entries.append((key, flow))
                behind_from = 0
                if record is not None:
                    record.rate = 0.0
                    paused += 1
                    for on_edge, at in places:
                        del on_edge[at]
            elif record is None:
                record = _Sender(key, flow, rate, stamp)
                joined.append(record)
                for on_edge, at in places:
                    on_edge.insert(at, record)
                behind_from = 1
            else:
                record.rate = rate
                behind_from = 1
            rates[flow.fid] = rate
            if rate != granted:
                for on_edge, at in places:
                    for behind in on_edge[at + behind_from:]:
                        if behind.stamp != stamp:
                            behind.stamp = stamp
                            heappush(pending, (behind.key, behind.flow,
                                               behind.rate, behind, None))
                if rate < granted:
                    for entry in self._wake(path, key):
                        heappush(pending, entry)
        if paused:
            survivors = [sender for sender in survivors if sender.rate > 0.0]
        if joined:
            survivors += joined
            survivors.sort(key=_key_order)
        self._senders = survivors
        self.evaluated += evaluated
        self.reparked += reparked
        return rates

    def _wake(self, path, key) -> list[_Candidate]:
        """Unpark the flows parked on ``path``'s edges whose key is greater
        than ``key`` and return them as candidates, each with the edge it
        was parked on; departed ones drop out of every list scanned on
        the way."""
        parked = self._parked
        woken: list[_Candidate] = []
        for edge in path:
            entries = parked.get(edge)
            if not entries:
                continue
            kept: list[tuple[CriticalityKey, FlowProgress]] = []
            for entry in entries:
                if entry[1].departed:
                    continue
                if entry[0] > key:
                    woken.append((entry[0], entry[1], 0.0, None, edge))
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
            elif (rates.get(flow.fid, flow.rate) <= 0
                  and now + flow.rtt > deadline):
                doomed.append((flow.fid, "early_termination:paused_near_deadline"))
        if keeps_state:
            # they depart without a further allocate seeing them
            self._known.difference_update(fid for fid, _ in doomed)
        return doomed
