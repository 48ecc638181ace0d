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

    def _hopeless_at_start(self) -> bool:
        return (
            self.et_enabled
            and self.deadline is not None
            and self.sim.now + self.expected_tx_time() > self.deadline
        )

    # -- scheduling header -----------------------------------------------------------

    def _aged_expected_tx(self) -> float:
        expected = self.expected_tx_time()
        if self.config.aging_rate <= 0:
            return expected
        waited = self._waited
        if self._paused_since is not None:
            waited += self.sim.now - self._paused_since
        age_units = waited / self.config.aging_time_unit
        return expected / (2.0 ** (self.config.aging_rate * age_units))

    def _criticality_value(self) -> float | None:
        mode = self.config.criticality_mode
        if mode == "random" or self._random_criticality is not None:
            return self._random_criticality
        if mode == "estimate":
            chunk = self.config.estimate_chunk
            return float((self.next_offset // chunk) * chunk)
        return None

    def make_sched_header(self, kind: PacketKind) -> PdqHeader:
        rtt = self.rtt.srtt if self.rtt.srtt is not None else self.config.default_rtt
        return PdqHeader(
            self.max_rate,
            self.pauseby,
            self.deadline,
            self._aged_expected_tx(),
            rtt,
            self.config.probe_interval_rtts,
            self._criticality_value(),
        )

    # -- feedback ----------------------------------------------------------------------

    def process_feedback(self, packet: Packet) -> None:
        header = packet.sched
        if not isinstance(header, PdqHeader):
            return
        self.pauseby = header.pauseby
        self.inter_probe = max(
            self.config.probe_interval_rtts, header.inter_probe
        )
        rate = header.rate if header.rate > self.config.min_rate else 0.0
        self.set_rate(min(rate, self.max_rate))

    def on_rate_change(self) -> None:
        now = self.sim.now
        if self.rate <= 0:
            if self._paused_since is None:
                self._paused_since = now
                self.net.flow_pauses += 1
            if (
                self.handshake_done
                and not self.term_sent
                and not self.closed
                and not self._probe_timer.armed
            ):
                self._probe_timer.start(self._probe_interval())
        else:
            if self._paused_since is not None:
                self._waited += now - self._paused_since
                self._paused_since = None
                self.net.flow_resumes += 1
            self._probe_timer.cancel()

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
