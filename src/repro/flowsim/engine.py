"""Event-driven fluid simulation engine (optimized hot path).

Rates are recomputed at every arrival, transfer start, completion and
termination, plus at a periodic refresh (needed when criticality drifts
over time, e.g. flow aging); between recomputations rates are constant and
progress is linear, so completions are located exactly.

Protocol inefficiencies modeled (paper §5.5): per-packet header overhead
(flows carry wire bytes) and flow-initialization latency (data starts
flowing ``init_rtts`` round-trips after arrival).

There is one event loop, :meth:`FlowLevelSimulation.run`, for closed
batches (a list), open-system arrival processes (a lazy
:class:`~repro.workload.stream.FlowStream`) and faulted runs alike; its
docstring states the four rules on which the input shapes could differ.

Hot-path structure: paths are tuples of dense edge ids indexing a flat
capacity list, and each distinct path is priced (``max_rate``, RTT)
once per fault epoch; the waiting set is a heap keyed on
``transfer_start``; completion ETAs live in a lazy min-heap (an entry
is stale once its flow's ``eta_version`` moved on and is dropped when
it reaches the top — an unchanged rate means an unchanged absolute
ETA) and deadline boundaries in a second lazy heap, so locating the
next event does not scan every flow. A rate model answers with the
flows whose rate it computed (PDQ: only the few an event touched); an
absent flow keeps its rate, and one loop applies the answer, traced or
not. After a departure the active list is copied from the by-fid map,
which holds the live flows in promotion order, and the fused
advance-and-completion pass runs over the sending set (rate > 0) — a
paused flow costs nothing per epoch.
Digest pins hold the collector output bit-identical for both input
shapes, and every rate vector a model answers in those runs is checked
by :mod:`repro.flowsim.certify`.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from itertools import chain
from operator import attrgetter

from repro.errors import ExperimentError, RoutingError
from repro.faults.spec import FaultState, validate_events
from repro.flowsim.progress import FlowProgress
from repro.metrics.collector import MetricsCollector
from repro.net.routing import Router
from repro.topology.base import Topology
from repro.units import USEC, tx_time
from repro.workload.flow import FlowSpec
from repro.workload.stream import FlowStream

#: per-hop one-way latency components used for the RTT estimate, matching
#: the packet-level defaults (processing dominates)
_PER_HOP_DELAY = 25 * USEC + 0.1 * USEC

_INF = float("inf")

#: admission order of a promoted flow (orders same-epoch completions)
_seq = attrgetter("seq")


class FlowLevelSimulation:
    """Runs a workload through a rate model over a topology."""

    def __init__(
        self,
        topology: Topology,
        model,
        mtu: int = 1500,
        header_bytes: int = 56,
        init_rtts: float = 2.0,
        refresh_interval: float = 1e-3,
        metrics: MetricsCollector | None = None,
        faults: Sequence | None = None,
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
        # explicit None test: an injected-but-empty collector is falsy
        self.metrics = MetricsCollector() if metrics is None else metrics
        self.router = Router(topology)
        #: flat list indexed by dense directed-edge id (FlowProgress.path
        #: holds the matching ids); rate models copy and index it directly
        self.capacities: list[float] = self.router.capacity_vector()
        #: path -> (max_rate, rtt): both depend on the path and the
        #: capacity vector alone, and a streamed flow almost always rides
        #: a path an earlier flow already priced (one entry per distinct
        #: pinned path: host pairs on a tree). Dropped whenever a fault
        #: epoch rewrites the capacities. Measured: pricing every path
        #: afresh made fluid-stream-rcp's median wall_s 1.15x, slower in
        #: 9 of 10 pairs.
        self._path_costs: dict[tuple[int, ...], tuple[float, float]] = {}
        self.now = 0.0
        self.recomputations = 0  # allocate() calls
        self.iterations = 0      # main-loop passes (event boundaries)
        self.pauses = 0          # flows preempted (rate driven to zero)
        self.resumes = 0         # paused flows granted rate again
        self.stream_batches = 0  # non-empty admission pulls, lazy input only
        self._admitted = 0       # flows admitted so far (next promotion seq)
        #: promoted, not yet departed flows by fid (rate models answer in
        #: fids) and, of those, the ones with rate > 0 — the only flows
        #: an advance moves or a completion check reads
        self._by_fid: dict[int, FlowProgress] = {}
        self._sending: dict[int, FlowProgress] = {}
        self._lazy = False       # the current run's input is a lazy stream
        #: per-event-boundary samplers (repro.obs.probes); empty unless a
        #: scenario requested probes, so the default run pays one truth
        #: test per iteration
        self.samplers: list = []
        #: fault injection (repro.faults.spec.FaultEvent schedule): fault
        #: epochs splice into the main loop exactly like unadmitted
        #: arrivals — the advance horizon never crosses the next event,
        #: and due events reroute (or reject) flows before rates are
        #: recomputed. Mirrors the packet engine's FaultController.
        self.fault_events: tuple = tuple(
            sorted(faults, key=lambda e: e.time)
        ) if faults else ()
        self._fault_idx = 0
        self.fault_events_applied = 0
        self.fault_reroutes = 0
        self.flows_rejected = 0
        #: the packet FaultController's down state, same derivation
        self._fault_state = FaultState()
        self._base_capacities: list[float] | None = (
            list(self.capacities) if self.fault_events else None
        )
        validate_events(self.fault_events, topology)

    # -- setup helpers --------------------------------------------------------------

    def _estimate_rtt(self, path: Sequence[int]) -> float:
        rtt = 0.0
        capacities = self.capacities
        for eid in path:
            rate = capacities[eid]
            rtt += 2.0 * (_PER_HOP_DELAY + tx_time(self.header_bytes, rate))
        return rtt

    def _pinned_path(
        self, spec: FlowSpec,
    ) -> tuple[tuple[int, ...], float, float]:
        """``(path, max_rate, rtt)`` of ``spec`` on the current topology;
        the path's cost is cached until the next fault epoch rewrites
        the capacities."""
        path = self.router.flow_path_ids(spec.fid, spec.src, spec.dst)
        costs = self._path_costs.get(path)
        if costs is None:
            capacities = self.capacities
            costs = self._path_costs[path] = (
                min(capacities[eid] for eid in path),
                self._estimate_rtt(path),
            )
        return (path, *costs)

    def _make_progress(self, spec: FlowSpec) -> FlowProgress:
        """The per-flow constructor of admission: :meth:`_pinned_path`
        and the wire size (payload plus per-packet headers)."""
        path, max_rate, rtt = self._pinned_path(spec)
        size = spec.size_bytes
        return FlowProgress(
            spec, path, max_rate, rtt,
            size + -(-size // self.payload) * self.header_bytes,
            spec.arrival + self.init_rtts * rtt,
        )

    # -- main loop -------------------------------------------------------------------

    def run(self, flows: Sequence[FlowSpec] | FlowStream,
            deadline: float = 60.0,
            max_recomputations: int | None = None) -> MetricsCollector:
        """Run ``flows`` until every flow resolves or ``deadline`` passes.

        One event loop serves both input shapes: a materialised list is
        fed through a :class:`FlowStream` over its arrival-sorted copy,
        so lists and lazy streams share admission, fault splicing and
        the event mechanics. Four rules are fixed here:

        1. ``stream_batches`` counts non-empty admission pulls from a
           caller-supplied lazy stream only; it stays 0 for a list.
        2. ``max_recomputations`` is a hard cap when given. The default
           (``None``) budget is ``2_000_000 + 64 * admitted``, so an
           open-ended stream never trips it by size alone.
        3. Every flow of a list is registered and started exactly once,
           even if it arrives after ``deadline`` (it comes back
           unfinished). A lazy stream is admitted only up to
           ``deadline``, so an unbounded generator cannot hang the run.
        4. Promotion order is admission order: the arrival-sorted order
           of the stream, and for a list a stable sort, so ties keep
           their input order.

        A pass takes the catch-up step (:meth:`_catch_up`: due faults,
        then the arrivals of the next ``refresh_interval`` window) when
        either is due, and again after an idle engine jumps ahead, so a
        flow is in the waiting heap before simulated time reaches it and
        memory is O(concurrent flows). An idle engine never jumps past
        ``deadline``.

        The rest of a pass is inline, one frame per epoch: promotion,
        one loop applying the model's rates (admission order when a
        tracer records them), terminations, the next-event search, the
        advance and the completion pass. Builtin ``min``/``max`` calls
        are spelled as the comparisons they make (``b if b < a else a``
        is ``min(a, b)``, ties and NaNs included), so every float and
        every tie resolves as the builtins would (the digest pins hold
        it).
        """
        begin_run = getattr(self.model, "begin_run", None)
        if begin_run is not None:
            # the engine honors the model's contract: the active list
            # only gains flows at its tail and sheds departed flows
            begin_run()
        self._lazy = isinstance(flows, FlowStream)
        stream = flows if self._lazy else FlowStream(
            iter(sorted(flows, key=lambda s: s.arrival)))
        # waiting flows keyed on (transfer_start, admission seq)
        waiting: list[tuple[float, int, FlowProgress]] = []
        active: list[FlowProgress] = []
        eta_heap: list[tuple[float, int, int, FlowProgress]] = []
        deadline_heap: list[tuple[float, int, FlowProgress]] = []

        allocate = self.model.allocate
        terminations = self.model.terminations
        capacities = self.capacities  # fault epochs rewrite it in place
        metrics = self.metrics
        tracer = metrics.tracer
        by_fid = self._by_fid
        sending = self._sending
        samplers = self.samplers
        refresh = self.refresh_interval
        end = deadline + refresh
        heappush = heapq.heappush
        heappop = heapq.heappop
        # the two external event sources, as times (inf when drained):
        # the next unadmitted arrival and the next fault epoch, re-read
        # only by a catch-up step that admitted or applied one
        arrival = stream.peek_arrival()
        if arrival is None:
            arrival = _INF
        fault_time = self._next_fault_time()
        budget = (2_000_000 + 64 * self._admitted
                  if max_recomputations is None else max_recomputations)
        now = self.now

        while (waiting or active or arrival != _INF) and now <= deadline:
            self.iterations += 1
            if not (active or waiting):
                # a fully idle engine skips straight to the next arrival
                # (the loop condition guarantees there is one)
                if arrival > deadline:
                    break
                if arrival > now:
                    self.now = now = arrival
            if fault_time <= now or arrival <= now + refresh:
                arrival, fault_time = self._catch_up(
                    stream, waiting, active, arrival, fault_time)
            if not active and waiting:
                # then to the first transfer start, but never past an
                # unadmitted arrival (its transfer start could come
                # first) or a fault epoch (waiting flows may need
                # rerouting or rejecting before they are promoted)
                external = fault_time if fault_time < arrival else arrival
                start = waiting[0][0]
                jump = external if external < start else start
                if jump > deadline:
                    break
                if jump > now:
                    self.now = now = jump
                if fault_time <= now or arrival <= now + refresh:
                    arrival, fault_time = self._catch_up(
                        stream, waiting, active, arrival, fault_time)

            # promotion: every waiting flow whose transfer has started,
            # in admission order
            cutoff = now + 1e-12
            if waiting and waiting[0][0] <= cutoff:
                batch: list[tuple[int, FlowProgress]] = []
                while waiting and waiting[0][0] <= cutoff:
                    _, seq, flow = heappop(waiting)
                    batch.append((seq, flow))
                batch.sort()
                for seq, flow in batch:
                    flow.seq = seq
                    by_fid[flow.fid] = flow
                    active.append(flow)
                    if flow.abs_deadline is not None:
                        heappush(deadline_heap,
                                 (flow.abs_deadline, seq, flow))
            if not active:
                continue

            rates = allocate(active, capacities, now)
            self.recomputations += 1
            if self.recomputations > budget and max_recomputations is None:
                # the default budget grows with admissions
                budget = 2_000_000 + 64 * self._admitted
            if self.recomputations > budget:
                raise ExperimentError(
                    "flow-level simulation did not converge "
                    f"({budget} recomputations)"
                )
            # set the rates the model answered with, track pause spans
            # and keep the sending set (rate > 0) current. A flow absent
            # from ``rates`` keeps its rate, pause span and ETA; a flow
            # whose rate changed gets a fresh ETA entry (a constant rate
            # keeps its absolute ETA, so stale entries stay valid until
            # the next rate change bumps the version). A traced run
            # visits them in admission order, the order of its events
            updates = rates.items() if tracer is None else sorted(
                rates.items(), key=lambda item: by_fid[item[0]].seq)
            for fid, rate in updates:
                flow = by_fid[fid]
                if rate <= 0 and flow.paused_since is None:
                    flow.paused_since = now
                    self.pauses += 1
                elif rate > 0 and flow.paused_since is not None:
                    flow.waited += now - flow.paused_since
                    flow.paused_since = None
                    self.resumes += 1
                if rate != flow.rate:
                    if tracer is not None:
                        tracer.on_rate(fid, now, rate)
                    flow.rate = rate
                    flow.eta_version += 1
                    if rate > 0:
                        sending[fid] = flow
                        heappush(eta_heap, (
                            now + flow.remaining_wire * 8.0 / rate,
                            flow.eta_version, fid, flow,
                        ))
                    else:
                        sending.pop(fid, None)
            doomed = terminations(active, rates, now)
            if doomed:
                for fid, reason in doomed:
                    self._depart(by_fid[fid])
                    metrics.on_terminated(fid, now, reason)
                active[:] = by_fid.values()
                continue  # rates changed; recompute immediately

            # rates hold until the next event: a refresh, a transfer
            # start, a completion or a deadline boundary (ET conditions
            # warrant a recomputation), never past ``deadline`` by more
            # than one refresh, and they must not integrate across an
            # unadmitted arrival or a fault epoch either
            horizon = now + refresh
            if waiting:
                start = waiting[0][0]
                if start < horizon:
                    horizon = start
            while eta_heap:
                _, version, _, flow = eta_heap[0]
                if flow.departed or version != flow.eta_version:
                    heappop(eta_heap)  # stale: rate changed or flow gone
                    continue
                # recompute at current time: FP-identical to a
                # per-iteration scan of every flow's ETA
                rate = flow.rate
                eta = _INF if rate <= 0 \
                    else now + flow.remaining_wire * 8.0 / rate
                if eta < horizon:
                    horizon = eta
                break
            while deadline_heap:
                dl, _, flow = deadline_heap[0]
                if flow.departed or dl <= now:
                    heappop(deadline_heap)  # boundary passed for good
                    continue
                if dl < horizon:
                    horizon = dl
                break
            if not horizon < end:
                horizon = end
            external = fault_time if fault_time < arrival else arrival
            if external < horizon:
                horizon = external
            dt = horizon - now
            if dt < 0:
                raise ExperimentError("fluid engine time went backwards")
            # advance (FlowProgress.advance, same arithmetic) and collect
            # the flows that crossed the completion threshold; only flows
            # that advanced with rate > 0 can cross it
            finished = []
            for flow in sending.values():
                remaining = flow.remaining_wire - flow.rate * dt / 8.0
                if not remaining > 0.0:
                    remaining = 0.0
                flow.remaining_wire = remaining
                if remaining <= 1e-6:
                    finished.append(flow)
            self.now = now = horizon
            if finished:
                if len(finished) > 1:
                    # callbacks fire in admission order
                    finished.sort(key=_seq)
                for flow in finished:
                    fid = flow.fid
                    flow.departed = True
                    del by_fid[fid]
                    del sending[fid]
                    metrics.on_bytes(fid, flow.spec.size_bytes)
                    metrics.on_complete(fid, now)
                active[:] = by_fid.values()
            if samplers:
                for sampler in samplers:
                    sampler.on_step(self, active)
        if not self._lazy:
            # rule 3: list flows the loop never reached (they arrive
            # after ``deadline``) still come back as unfinished records
            for spec in stream.materialize():
                metrics.register(spec)
                metrics.on_start(spec.fid, spec.arrival)
        return metrics

    def _catch_up(self, stream: FlowStream, waiting: list, active: list,
                  arrival: float, fault_time: float) -> tuple[float, float]:
        """The step :meth:`run` takes when a fault epoch is due or the
        next unadmitted ``arrival`` falls inside the next refresh window:
        due faults first, so arrivals compute their paths on the
        post-fault topology, then the window's arrivals. Returns the
        next unadmitted arrival and the next fault epoch (inf when
        drained)."""
        now = self.now
        if fault_time <= now:
            self._apply_due_faults(waiting, active)
            fault_time = self._next_fault_time()
        if arrival <= now + self.refresh_interval:
            self._admit(stream, waiting)
            arrival = stream.peek_arrival()
            if arrival is None:
                arrival = _INF
        return arrival, fault_time

    def _next_fault_time(self) -> float:
        """The time of the next unapplied fault event (inf when none)."""
        faults = self.fault_events
        return faults[self._fault_idx].time \
            if self._fault_idx < len(faults) else _INF

    def _admit(self, stream: FlowStream, waiting: list) -> None:
        """Admission step: register, start and queue every arrival
        inside the next refresh window (:meth:`_catch_up` calls it only
        when the stream's next arrival falls inside that window).

        Under fault injection an arrival may find its endpoints
        partitioned; it is rejected (terminated on arrival) instead of
        crashing the run, matching the packet engine."""
        batch = stream.take_until(self.now + self.refresh_interval)
        if self._lazy:
            self.stream_batches += 1
        register = self.metrics.register
        on_start = self.metrics.on_start
        make_progress = self._make_progress
        push = heapq.heappush
        for seq, spec in enumerate(batch, self._admitted):
            record = register(spec)
            on_start(spec.fid, spec.arrival)
            try:
                flow = make_progress(record.spec)
            except RoutingError:
                if not self.fault_events:
                    raise  # no fault can explain it: a broken scenario
                self.flows_rejected += 1
                self.metrics.on_terminated(
                    spec.fid, self.now, "fault: unroutable at arrival"
                )
                continue
            push(waiting, (flow.transfer_start, seq, flow))
        self._admitted += len(batch)

    # -- fault epochs (repro.faults) ---------------------------------------------------

    def _apply_due_faults(self, waiting: list, active: list) -> None:
        """Apply every fault event scheduled at or before ``now``
        (:meth:`run` calls it only when at least one is due).

        Updates the fault state, hands the down edges it derives to the
        router and the capacity vector, then re-pins the path of every
        admitted flow that lost an edge — or terminates it when no route
        remains (the fluid analogue of the packet FaultController's
        reroute sweep; both engines route through the same
        :class:`~repro.net.routing.Router`, so surviving flows land on
        the same repaired paths).
        """
        events = self.fault_events
        idx = self._fault_idx
        while idx < len(events) and events[idx].time <= self.now:
            self._fault_state.apply(events[idx])
            idx += 1
        self.fault_events_applied += idx - self._fault_idx
        self._fault_idx = idx

        down_ids = self._fault_state.down_edges(self.router.edge_index)
        self.router.set_down_edges(down_ids)
        base = self._base_capacities
        capacities = self.capacities
        for eid in range(len(capacities)):
            capacities[eid] = 0.0 if eid in down_ids else base[eid]
        self._path_costs.clear()
        self._reroute_fluid_flows(waiting, active, down_ids)

    def _reroute_fluid_flows(self, waiting: list, active: list,
                             down_ids: set[int]) -> None:
        hit = [
            flow for flow in chain(active, (entry[2] for entry in waiting))
            if any(eid in down_ids for eid in flow.path)
        ]
        if not hit:
            return
        rerouted = sum(map(self._repath_flow, hit))
        self.fault_reroutes += rerouted
        if rerouted < len(hit):
            self.flows_rejected += len(hit) - rerouted
            active[:] = self._by_fid.values()
            waiting[:] = [entry for entry in waiting
                          if not entry[2].departed]
            heapq.heapify(waiting)
        # cached comparator keys embed expected_tx, which moved with
        # max_rate for every rerouted flow; models that keep key caches
        # (PDQ) must rebuild them
        invalidate = getattr(self.model, "invalidate_keys", None)
        if invalidate is not None:
            invalidate()

    def _repath_flow(self, flow: FlowProgress) -> bool:
        """Re-pin ``flow`` on the surviving topology; False (and the flow
        terminated) when no route is left."""
        try:
            flow.path, flow.max_rate, flow.rtt = self._pinned_path(flow.spec)
        except RoutingError:
            self._depart(flow)
            self.metrics.on_terminated(
                flow.fid, self.now, "fault: no route after failure"
            )
            return False
        return True

    # -- helpers ---------------------------------------------------------------------------

    def _depart(self, flow: FlowProgress) -> None:
        """Every departure other than a completion (termination, no
        route left after a fault) goes through here; a waiting flow is
        in neither map."""
        flow.departed = True
        self._by_fid.pop(flow.fid, None)
        self._sending.pop(flow.fid, None)
