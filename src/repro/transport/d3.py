"""D3 baseline (Wilson et al., SIGCOMM 2011), re-implemented per §5.1.

D3 is a deadline-aware, *first-come-first-reserve* explicit-rate protocol:

* Once per RTT each sender asks for its desired rate ``d = s / t`` (remaining
  size over time to deadline; 0 for no-deadline flows).
* Each router satisfies the requests greedily in flow-arrival order and
  adds the fair share ``fs`` of what remains; non-deadline flows receive
  ``fs`` alone. We compute the allocation as a per-interval table in
  first-seen order, which realizes the paper's "first-come first-reserve"
  semantics deterministically (the original D3 router keeps only
  aggregate allocation and demand counters, which approximate the same
  order without per-flow state).
* ``fs`` follows the RCP-style rate-adaptation law with the paper's
  suggested parameters alpha = 0.1, beta = 1:

      fs <- fs + (alpha*(C - y) - beta*q/T) / N

  where y is measured arrival traffic and q the instantaneous queue. This
  implementation adds the non-negativity constraint on fs that the PDQ
  authors found necessary ("we add a constraint to enforce the fair share
  bandwidth fs to always be non-negative, which improves D3's
  performance").
* Quenching: senders terminate flows whose deadline already passed.

The pathology PDQ's Fig 1 illustrates -- early-arriving far-deadline flows
holding reservations against later urgent flows -- emerges directly from
the arrival-order allocation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.events.timers import Timer
from repro.net.headers import D3Header
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.transport.base import AckingReceiver, ProtocolStack, RateBasedSender
from repro.transport.rcp import floor_rate
from repro.units import BITS_PER_BYTE, USEC
from repro.utils.ewma import Ewma

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

ALPHA = 0.1
BETA = 1.0
FLOW_EXPIRY_RTTS = 50.0
DEFAULT_RTT = 150 * USEC


class D3LinkState:
    """Per-egress-link D3 state: demands, fair share, allocation table."""

    def __init__(self, protocol: "D3SwitchProtocol", link: Link):
        self.protocol = protocol
        self.link = link
        # fid -> (first_seen, last_seen, desired_rate)
        self.flows: dict[int, tuple[float, float, float]] = {}
        self.grants: dict[int, float] = {}
        self.rtt_avg = Ewma(alpha=0.1, default=DEFAULT_RTT)
        self.fair_share = link.rate_bps / 8.0
        self._last_bytes = 0.0
        self._last_update = protocol.sim.now
        self._timer = Timer(protocol.sim, self._update)

    # -- forward path -------------------------------------------------------------

    def observe(self, packet: Packet, now: float) -> None:
        header: D3Header | None = packet.sched
        if packet.kind == PacketKind.TERM:
            self.flows.pop(packet.fid, None)
            self.grants.pop(packet.fid, None)
            if not self.flows:
                self._timer.cancel()
            return
        state = self.flows.get(packet.fid)
        first_seen = state[0] if state else now
        desired = state[2] if state else 0.0
        if header is not None:
            if header.rtt > 0:
                self.rtt_avg.update(header.rtt)
            desired = header.desired
        self.flows[packet.fid] = (first_seen, now, desired)
        if not self._timer.armed:
            self._last_bytes = (self.link.bytes_sent
                                + self.link.queue.dropped_bytes)
            self._last_update = now
            self._allocate()
            self._timer.start(self.rtt_avg.value_or(DEFAULT_RTT))
        if header is not None:
            rtt = self.rtt_avg.value_or(DEFAULT_RTT)
            grant = self.grants.get(packet.fid)
            if grant is None:
                # not allocated yet this interval: hand out the fair share
                grant = max(self.fair_share, floor_rate(rtt))
            header.allocated = min(header.allocated, grant)

    # -- rate adaptation and allocation ------------------------------------------------

    def _allocate(self) -> None:
        """First-come-first-reserve: grant desired rates in flow-arrival
        order, then add the fair share on top for everyone."""
        rtt = self.rtt_avg.value_or(DEFAULT_RTT)
        floor = floor_rate(rtt)
        remaining = self.link.rate_bps
        grants: dict[int, float] = {}
        ordered = sorted(self.flows.items(), key=lambda kv: (kv[1][0], kv[0]))
        for fid, (_, _, desired) in ordered:
            reserved = min(desired, max(0.0, remaining))
            grants[fid] = reserved
            remaining -= reserved
        for fid in grants:
            share = min(self.fair_share, max(0.0, remaining))
            grants[fid] = max(grants[fid] + share, floor)
            remaining -= share
        self.grants = grants

    def _update(self) -> None:
        now = self.protocol.sim.now
        rtt = self.rtt_avg.value_or(DEFAULT_RTT)
        horizon = FLOW_EXPIRY_RTTS * rtt
        self.flows = {
            fid: state for fid, state in self.flows.items()
            if now - state[1] <= horizon
        }
        n = max(1, len(self.flows))
        elapsed = max(now - self._last_update, 1e-9)
        sent = self.link.bytes_sent + self.link.queue.dropped_bytes
        y = (sent - self._last_bytes) * BITS_PER_BYTE / elapsed
        self._last_bytes = sent
        self._last_update = now
        q_term = self.link.queue.bytes * BITS_PER_BYTE / rtt
        delta = (ALPHA * (self.link.rate_bps - y) - BETA * q_term) / n
        # non-negative fs (the PDQ authors' fix to the original algorithm)
        self.fair_share = max(0.0, self.fair_share + delta)
        self._allocate()
        if self.flows:
            self._timer.start(rtt)


class D3SwitchProtocol:
    """Per-switch D3: arrival-order reservation plus fair-share stamping."""

    def __init__(self, network: "Network", switch):
        self.net = network
        self.sim = network.sim
        self.switch_id = switch.id
        self._states: dict[int, D3LinkState] = {}

    def process(self, packet: Packet, out_link: Link) -> None:
        if packet.kind in (PacketKind.SYN, PacketKind.DATA,
                           PacketKind.PROBE, PacketKind.TERM):
            state = self._states.get(out_link.link_id)
            if state is None:
                state = D3LinkState(self, out_link)
                self._states[out_link.link_id] = state
            state.observe(packet, self.sim.now)


class D3Sender(RateBasedSender):
    """D3 sending half: one rate request per RTT, quenching on missed
    deadlines."""

    def __init__(self, network, stack, spec, record, fwd_path, host):
        super().__init__(network, stack, spec, record, fwd_path, host)
        self.deadline = spec.absolute_deadline
        self.prev_alloc = 0.0
        self._last_request = -float("inf")
        # D3 has no pause state; start at a conservative probe rate until
        # the first allocation arrives
        self.rate = floor_rate(DEFAULT_RTT)

    # -- desired rate ------------------------------------------------------------

    def _desired_rate(self) -> float:
        if self.deadline is None:
            return 0.0
        time_left = self.deadline - self.sim.now
        if time_left <= 0:
            return self.max_rate
        return min(self.max_rate, self.wire_remaining * 8.0 / time_left)

    def _rtt_now(self) -> float:
        return self.rtt.srtt if self.rtt.srtt is not None else DEFAULT_RTT

    def make_sched_header(self, kind: PacketKind) -> D3Header | None:
        request_due = (
            kind == PacketKind.SYN
            or kind == PacketKind.TERM
            or self.sim.now - self._last_request >= self._rtt_now()
        )
        if not request_due:
            return None
        self._last_request = self.sim.now
        return D3Header(
            self._desired_rate(),
            self.prev_alloc,
            rtt=self._rtt_now(),
            deadline=self.deadline,
        )

    # -- feedback -----------------------------------------------------------------

    def process_feedback(self, packet: Packet) -> None:
        header = packet.sched
        if not isinstance(header, D3Header):
            return
        if header.allocated == float("inf"):
            return
        self.prev_alloc = header.allocated
        rtt = self.rtt.srtt if self.rtt.srtt is not None else DEFAULT_RTT
        self.set_rate(
            min(max(header.allocated, floor_rate(rtt)), self.max_rate)
        )

    def check_early_termination(self) -> bool:
        """D3's quenching: kill flows whose deadline already passed."""
        if self.deadline is None or self.term_sent or self.closed:
            return False
        if self.sim.now > self.deadline:
            self.terminate("quenching:deadline_passed")
            return True
        return False


class D3Receiver(AckingReceiver):
    """D3 receiving half: headers echo back unchanged."""


class D3Stack(ProtocolStack):
    """D3 endpoints plus per-switch reservation logic.

    Wire overhead: 40-byte TCP/IP plus two rate fields and the previous
    allocation (~ 12 bytes).
    """

    name = "D3"
    header_bytes = 52
    ack_bytes = 52

    def make_switch_protocol(self, network, switch) -> D3SwitchProtocol:
        return D3SwitchProtocol(network, switch)

    def make_endpoints(self, network, spec, record, fwd_path, rev_path):
        src_host = network.host(spec.src)
        dst_host = network.host(spec.dst)
        sender = D3Sender(network, self, spec, record, fwd_path, src_host)
        receiver = D3Receiver(network, self, spec, record, rev_path, dst_host)
        src_host.register_sender(spec.fid, sender)
        dst_host.register_receiver(spec.fid, receiver)
        return sender, receiver
