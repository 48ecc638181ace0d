"""Multipath PDQ (paper §6).

The M-PDQ sender splits a flow into subflows, sends a SYN per subflow, and
periodically shifts load from paused subflows to the sending subflow with
the minimal remaining load. Switches need nothing beyond flow-level ECMP
(each subflow's distinct flow id hashes onto its own path). The receiver
keeps a shared resequencing buffer across subflows; completion is the
instant the union of subflow deliveries covers the flow (we model that
buffer as the coordinator's aggregate byte count).
"""

from __future__ import annotations


from repro.core.config import PdqConfig
from repro.core.receiver import PdqReceiver
from repro.core.sender import PdqSender
from repro.core.stack import PdqStack
from repro.errors import WorkloadError
from repro.events.timers import PeriodicTimer
from repro.metrics.records import FlowRecord

#: subflow fids live far above workload fids so they can never collide
SUBFLOW_FID_BASE = 1_000_000
MAX_SUBFLOWS = 64


def subflow_fid(parent_fid: int, index: int) -> int:
    if parent_fid >= SUBFLOW_FID_BASE:
        raise WorkloadError(
            f"flow id {parent_fid} too large for M-PDQ (must be < "
            f"{SUBFLOW_FID_BASE})"
        )
    return (parent_fid + 1) * SUBFLOW_FID_BASE + index


class _SubflowMetrics:
    """Metrics adapter: translates subflow callbacks onto the parent flow."""

    #: subflow rate changes are internal scheduling detail, not parent
    #: flow lifecycle — lifecycle tracing sees only the real collector
    tracer = None

    def __init__(self, coordinator: "MpdqCoordinator"):
        self._coord = coordinator

    def on_bytes(self, fid: int, n: int) -> None:
        self._coord.on_subflow_bytes(n)

    def on_complete(self, fid: int, time: float) -> None:
        pass  # completion is decided by the coordinator's aggregate count

    def on_terminated(self, fid: int, time: float, reason: str) -> None:
        self._coord.on_subflow_terminated(reason)

    def on_retransmit(self, fid: int) -> None:
        self._coord.net.metrics.on_retransmit(self._coord.spec.fid)

    def on_probe(self, fid: int) -> None:
        self._coord.net.metrics.on_probe(self._coord.spec.fid)

    def on_start(self, fid: int, time: float) -> None:
        pass


class _NetworkProxy:
    """Delegates to the real network but reroutes metrics to the adapter."""

    def __init__(self, network, metrics: _SubflowMetrics):
        self._network = network
        self.metrics = metrics

    def __getattr__(self, item):
        return getattr(self._network, item)


class MpdqCoordinator:
    """Sender-side coordinator owning one flow's subflows."""

    def __init__(self, network, stack: "MpdqStack", spec, record: FlowRecord,
                 n_subflows: int):
        if not 1 <= n_subflows <= MAX_SUBFLOWS:
            raise WorkloadError(
                f"n_subflows must be in [1, {MAX_SUBFLOWS}], got {n_subflows}"
            )
        self.net = network
        self.sim = network.sim
        self.stack = stack
        self.spec = spec
        self.record = record
        self.n_subflows = min(n_subflows, spec.size_bytes)  # no empty subflows
        self.bytes_delivered = 0
        self.done = False
        self.terminated = False
        self.senders: list[PdqSender] = []
        self.receivers: list[PdqReceiver] = []
        self._adapter = _SubflowMetrics(self)
        self._proxy = _NetworkProxy(network, self._adapter)
        self._build_subflows()
        shift_period = stack.shift_interval_rtts * stack.config.default_rtt
        self._shift_timer = PeriodicTimer(self.sim, shift_period, self._shift_load)

    # -- construction -------------------------------------------------------------

    def _build_subflows(self) -> None:
        spec = self.spec
        src = self.net.host(spec.src)
        dst = self.net.host(spec.dst)
        base = spec.size_bytes // self.n_subflows
        remainder = spec.size_bytes - base * self.n_subflows
        # BCube exposes address-based disjoint parallel paths (§6: "We
        # implement BCube address-based routing to derive multiple parallel
        # paths"); elsewhere subflows rely on per-subflow ECMP hashing.
        source_routes = None
        if hasattr(self.net.topology, "disjoint_paths"):
            source_routes = [
                self.net.links_for_path(names)
                for names in self.net.topology.disjoint_paths(spec.src,
                                                              spec.dst)
            ]
        for k in range(self.n_subflows):
            chunk = base + (1 if k < remainder else 0)
            if chunk == 0:
                continue
            fid = subflow_fid(spec.fid, k)
            sub_spec = spec.with_(fid=fid, size_bytes=chunk)
            sub_record = FlowRecord(spec=sub_spec)  # scratch, not collected
            fwd = (source_routes[k % len(source_routes)] if source_routes
                   else self.net.flow_path(fid, spec.src, spec.dst))
            rev = self.net.reverse_path(fwd)
            sender = PdqSender(self._proxy, self.stack, sub_spec, sub_record,
                               fwd, src, self.stack.config)
            sender.et_enabled = False  # ET is the coordinator's call
            receiver = PdqReceiver(self._proxy, self.stack, sub_spec,
                                   sub_record, rev, dst)
            src.register_sender(fid, sender)
            dst.register_receiver(fid, receiver)
            self.senders.append(sender)
            self.receivers.append(receiver)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        self.record.start_time = self.sim.now
        for sender in self.senders:
            sender.start()
        self._shift_timer.start()

    def _stop(self) -> None:
        self._shift_timer.stop()

    # -- subflow callbacks ----------------------------------------------------------

    def on_subflow_bytes(self, n: int) -> None:
        if self.done:
            return
        self.bytes_delivered += n
        self.net.metrics.on_bytes(self.spec.fid, n)
        if self.bytes_delivered >= self.spec.size_bytes:
            self.done = True
            self.net.metrics.on_complete(self.spec.fid, self.sim.now)
            self._stop()

    def on_subflow_terminated(self, reason: str) -> None:
        """Any subflow giving up (Early Termination) kills the whole flow."""
        if self.done or self.terminated:
            return
        self.terminated = True
        self.net.metrics.on_terminated(self.spec.fid, self.sim.now, reason)
        for sender in self.senders:
            if not sender.term_sent and not sender.closed:
                sender.terminate(reason)
        self._stop()

    # -- load re-shifting (§6) ----------------------------------------------------------

    def _sending(self) -> list[PdqSender]:
        return [s for s in self.senders
                if not s.closed and not s.term_sent and s.rate > 0]

    def _paused(self) -> list[PdqSender]:
        """Subflows paused long enough to be worth stripping: commit races
        pause subflows for an RTT or two routinely, and shifting on those
        transients degenerates the flow to a single path."""
        now = self.sim.now
        min_paused = (self.stack.shift_interval_rtts
                      * self.stack.config.default_rtt)
        return [
            s for s in self.senders
            if not s.closed and not s.term_sent and s.handshake_done
            and s.rate <= 0
            and s._paused_since is not None
            and now - s._paused_since >= min_paused
        ]

    def _shift_load(self) -> None:
        """Move unsent bytes from paused subflows to the sending subflow
        with the minimal remaining load; also run flow-wide Early
        Termination."""
        if self.done or self.terminated:
            self._stop()
            return
        if self._check_early_termination():
            return
        sending = self._sending()
        if not sending:
            return
        target = min(sending, key=lambda s: s.remaining_payload)
        for paused in self._paused():
            transferable = paused.size - paused.next_offset
            if transferable <= 0:
                continue
            paused.size -= transferable
            target.size += transferable
            target._schedule_send()
            if paused.bytes_acked >= paused.size and not paused.term_sent:
                paused._finish()  # fully stripped: release its switch state

    def _check_early_termination(self) -> bool:
        """Flow-wide ET (§3.1 conditions applied to the aggregate): the
        coordinator owns the decision because individual subflows cannot
        judge the whole flow's feasibility."""
        if not self.stack.config.early_termination:
            return False
        deadline = self.spec.absolute_deadline
        if deadline is None:
            return False
        now = self.sim.now
        if now > deadline:
            self.on_subflow_terminated("early_termination:deadline_passed")
            return True
        alive = [s for s in self.senders if not s.closed and not s.term_sent]
        if not alive:
            return False
        aggregate_rate = sum(s.max_rate for s in alive)
        remaining = self.spec.size_bytes - self.bytes_delivered
        if aggregate_rate > 0 and now + remaining * 8.0 / aggregate_rate > deadline:
            self.on_subflow_terminated("early_termination:cannot_finish")
            return True
        return False


class MpdqStack(PdqStack):
    """Multipath PDQ: PDQ switches, coordinator-managed subflow endpoints."""

    def __init__(self, config: PdqConfig | None = None, n_subflows: int = 3,
                 shift_interval_rtts: float = 2.0,
                 comparator=None):
        super().__init__(config, comparator)
        if n_subflows < 1:
            raise WorkloadError(f"n_subflows must be >= 1, got {n_subflows}")
        self.n_subflows = n_subflows
        self.shift_interval_rtts = shift_interval_rtts
        self.name = f"M-PDQ({n_subflows})"

    def make_endpoints(self, network, spec, record, fwd_path, rev_path):
        coordinator = MpdqCoordinator(network, self, spec, record,
                                      self.n_subflows)
        # the coordinator plays the sender role; subflow receivers are
        # already registered on the destination host
        return coordinator, coordinator.receivers
