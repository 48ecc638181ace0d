"""PDQ sender (paper §3.1).

On top of the shared paced sender this adds: the scheduling header,
pause/resume driven by switch feedback, probing while paused (with the
Suppressed Probing interval), the Early Termination heuristic, flow aging
(§7) and the alternative criticality schemes of §5.6.
"""

from __future__ import annotations


from repro.core.config import PdqConfig
from repro.events.timers import Timer
from repro.net.headers import PdqHeader
from repro.net.packet import Packet, PacketKind
from repro.transport.base import RateBasedSender
from repro.utils.rng import spawn_rng


class PdqSender(RateBasedSender):
    """One PDQ flow's sending half."""

    def __init__(self, network, stack, spec, record, fwd_path, host,
                 config: PdqConfig):
        super().__init__(network, stack, spec, record, fwd_path, host)
        self.config = config
        self.pauseby: int | None = None
        #: when the last fault reroute happened; feedback sent before it
        #: carries the old path's state
        self._rerouted_at = -float("inf")
        self.inter_probe: float = config.probe_interval_rtts
        self.deadline = spec.absolute_deadline
        # M-PDQ coordinators take over Early Termination for their subflows
        self.et_enabled = config.early_termination

        # aging (§7): accumulated paused time
        self._paused_since: float | None = None
        self._waited: float = 0.0

        # §5.6 criticality schemes
        self._random_criticality: float | None = None
        if config.criticality_mode == "random":
            rng = spawn_rng(spec.fid, "criticality")
            self._random_criticality = float(rng.random())
        if spec.criticality is not None:
            self._random_criticality = spec.criticality

        self._probe_timer = Timer(self.sim, self._probe)
        # per-flow jitter stream: keeps probe timers of paused flows from
        # phase-locking (a locked order would make the same flow win every
        # admission race at a freed link)
        self._jitter_rng = spawn_rng(spec.fid, "probe-jitter")

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._hopeless_at_start():
            self.record.start_time = self.sim.now
            self.terminate("early_termination:hopeless_at_start")
            return
        super().start()

    def on_close(self) -> None:
        self._probe_timer.cancel()

    def reroute(self, forward, reverse) -> None:
        """Forget the pausing switch: it may be off the new path, and no
        switch on the new path would ever clear a ``pauseby`` naming it
        (each passes such a flow through untouched)."""
        super().reroute(forward, reverse)
        self.pauseby = None
        self._rerouted_at = self.sim.now

    def _hopeless_at_start(self) -> bool:
        return (
            self.et_enabled
            and self.deadline is not None
            and self.sim.now + self.expected_tx_time() > self.deadline
        )

    # -- scheduling header -----------------------------------------------------------

    def make_sched_header(self, kind: PacketKind) -> PdqHeader:
        """The header every packet carries. T_H is T_S, aged (§7) when
        ``aging_rate`` is on: T_S / 2^(aging_rate * waited /
        aging_time_unit). The §5.6 criticality field is the Random value
        (or the spec's own), else the Estimation bytes-sent quantum in
        ``"estimate"`` mode, else unset."""
        config = self.config
        expected_tx = self.expected_tx_time()
        if config.aging_rate > 0:
            waited = self._waited
            if self._paused_since is not None:
                waited += self.sim.now - self._paused_since
            age_units = waited / config.aging_time_unit
            expected_tx = expected_tx / (2.0 ** (config.aging_rate * age_units))
        criticality = self._random_criticality
        if criticality is None and config.criticality_mode == "estimate":
            chunk = config.estimate_chunk
            criticality = float((self.next_offset // chunk) * chunk)
        srtt = self.rtt.srtt
        return PdqHeader(
            self.max_rate,
            self.pauseby,
            self.deadline,
            expected_tx,
            srtt if srtt is not None else config.default_rtt,
            config.probe_interval_rtts,
            criticality,
        )

    # -- feedback ----------------------------------------------------------------------

    def process_feedback(self, packet: Packet) -> None:
        if packet.echo_time < self._rerouted_at:
            # feedback from the old path would write its stale pauseby
            # back; keep the current rate (and probing, if paused)
            self.on_rate_change()
            return
        header = packet.sched  # the receiver echoes this flow's PdqHeader
        config = self.config
        self.pauseby = header.pauseby
        # max(probe_interval_rtts, I_H) and min(rate, max_rate), spelled
        # out with the builtins' operand order
        inter_probe = header.inter_probe
        floor = config.probe_interval_rtts
        self.inter_probe = inter_probe if inter_probe > floor else floor
        rate = header.rate if header.rate > config.min_rate else 0.0
        max_rate = self.max_rate
        self.set_rate(max_rate if max_rate < rate else rate)

    def on_rate_change(self) -> None:
        now = self.sim.now
        probe_timer = self._probe_timer
        if self.rate <= 0:
            if self._paused_since is None:
                self._paused_since = now
                self.net.flow_pauses += 1
            if (
                self.handshake_done
                and not self.term_sent
                and not self.closed
                and probe_timer.expiry is None
            ):
                probe_timer.start(self._probe_interval())
        else:
            if self._paused_since is not None:
                self._waited += now - self._paused_since
                self._paused_since = None
                self.net.flow_resumes += 1
            if probe_timer.expiry is not None:
                probe_timer.cancel()

    def _probe_interval(self) -> float:
        rtt = self.rtt.srtt if self.rtt.srtt is not None else self.config.default_rtt
        interval = max(self.inter_probe, self.config.probe_interval_rtts) * rtt
        return interval * (0.7 + 0.6 * float(self._jitter_rng.random()))

    def _probe(self) -> None:
        if self.closed or self.term_sent or self.rate > 0:
            return
        if self.check_early_termination():
            return
        self.net.metrics.on_probe(self.spec.fid)
        self._send_control(PacketKind.PROBE)
        self._probe_timer.start(self._probe_interval())

    # -- Early Termination (§3.1) ----------------------------------------------------------

    def check_early_termination(self) -> bool:
        if not self.et_enabled or self.deadline is None:
            return False
        if self.term_sent or self.closed:
            return False
        now = self.sim.now
        rtt = self.rtt.srtt if self.rtt.srtt is not None else self.config.default_rtt
        if now > self.deadline:
            self.terminate("early_termination:deadline_passed")
            return True
        if now + self.expected_tx_time() > self.deadline:
            self.terminate("early_termination:cannot_finish")
            return True
        if self.rate <= 0 and now + rtt > self.deadline:
            self.terminate("early_termination:paused_near_deadline")
            return True
        return False
