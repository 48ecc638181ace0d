"""PDQ switch: the flow controller (Algorithms 1-3) plus the rate
controller, attached per egress link (paper §3.3).

Forward-path packets (SYN / DATA / PROBE) run Algorithm 1 against the
egress link the packet leaves on; TERM removes flow state; reverse-path
packets (SYN-ACK / ACK) run Algorithm 3 against the flow's forward-link
state at this switch. Acceptance is two-phase: the forward pass tentatively
grants a rate in the header, and the reverse pass commits it into switch
state when no downstream switch pauses the flow.

Algorithm 2's decision -- the grant a flow gets and, when it gets none,
why -- is the one function :func:`decide`; :class:`PdqLinkState` keeps
the bookkeeping around it (admission, the list order, the dampening
window, the counters and the header writes).

Every PDQ packet runs this at every hop, over flow lists that hold about
two entries on realistic workloads, so the per-packet cost is Python
frames, not the algorithm. A forward packet therefore costs
:meth:`PdqSwitchProtocol.process`, one :meth:`PdqLinkState.on_forward`
body (the RTT average is inline), one :func:`decide` call and the flow
list's expiry scan, and a reverse packet ``process`` plus one
:meth:`PdqLinkState.on_reverse` body.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.comparator import CriticalityKey, FlowComparator
from repro.core.config import PdqConfig
from repro.core.flowlist import FlowEntry, PdqFlowList
from repro.core.rate_controller import PdqRateController
from repro.net.headers import PdqHeader
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.net.node import Switch

#: kinds that run Algorithm 1 on the egress link they leave on
_FORWARD_KINDS = frozenset((PacketKind.SYN, PacketKind.DATA, PacketKind.PROBE))
#: kinds that run Algorithm 3 against the flow's forward-link state
_REVERSE_KINDS = frozenset((PacketKind.SYN_ACK, PacketKind.ACK))
#: the kind that removes a flow's state from the link it leaves on
_TERM = PacketKind.TERM

#: weight of a new header RTT in the per-link average (an EWMA)
_RTT_ALPHA = 0.1
_RTT_KEEP = 1.0 - _RTT_ALPHA
_INF = float("inf")

#: the dampening window: when it opened, and the fid and key of the flow
#: whose tentative accept opened it
Window = tuple[float, int, CriticalityKey]


def decide(entries: list[FlowEntry], index: int, fid: int,
           key: CriticalityKey, requested: float, sending: bool, now: float,
           window: Window | None, rtt_avg: float, capacity: float,
           r_pdq: float, config: PdqConfig) -> tuple[float, str]:
    """Algorithm 2 (arXiv 1206.2057 §3.3) for the flow at ``entries[index]``.

    Returns ``(grant, cause)``: the rate to write into the header and one
    of ``"accepted"``; ``"dampened"`` (another flow was accepted inside
    the window); ``"crumb"`` (the grant is below ``max(min_rate,
    crumb_fraction * min(r_pdq, requested))``); or ``"no_capacity"``
    (the more critical flows hold all of ``capacity``). The grant is 0
    for every cause but ``"accepted"``.
    """
    # the bandwidth held by the more critical flows. Nearly-completed
    # ones fall into the Early-Start budget instead of counting their
    # rate. One that is sending counts its committed rate; one
    # tentatively accepted or paused *by this switch* counts its
    # requested rate -- the switch is holding the link for it (this is
    # what makes the equilibrium of §4 -- drivers accepted, everyone else
    # paused -- reachable in O(1) probes instead of through admission
    # races).
    allocated = 0.0
    if index:
        early_start = config.early_start
        k = config.K
        early_start_budget = 0.0
        for i in range(index):
            other = entries[i]
            if early_start and early_start_budget < k:
                other_rtt = other.rtt if other.rtt > 0 else rtt_avg
                ratio = (other.expected_tx / other_rtt if other_rtt > 0
                         else _INF)
                if ratio < k:
                    early_start_budget += ratio
                    continue
            if other.pauseby is None and other.rate > 0:
                allocated += other.rate
            else:
                allocated += other.requested
    available = 0.0 if allocated >= capacity else capacity - allocated

    # the builtin min/max spelled out, operands in the same order:
    # grant = min(available, requested), min_useful = max(min_rate,
    # crumb_fraction * min(requested, r_pdq))
    grant = requested if requested < available else available
    crumb = config.crumb_fraction * (
        r_pdq if r_pdq < requested else requested)
    min_useful = crumb if crumb > config.min_rate else config.min_rate
    # Pause semantics (§2.2/§3.3): flows are paused, never trickled a
    # sliver -- a paused sender probes every RTT, so pausing *is* the
    # recovery path when capacity frees up again.
    if grant < min_useful:
        return 0.0, ("no_capacity" if allocated >= capacity else "crumb")
    # Dampening suppresses redundant switching among peers; a flow MORE
    # critical than the one just accepted is a preemption and must go
    # through when dampening_preemption_exempt is set, or the most
    # critical flow starves behind admission races (§4's convergence
    # argument assumes preemption is never delayed).
    if config.dampening and not sending and window is not None:
        opened, window_fid, window_key = window
        if (window_fid != fid
                and now - opened < config.dampening_rtts * rtt_avg
                and not (config.dampening_preemption_exempt
                         and key < window_key)):
            return 0.0, "dampened"
    return grant, "accepted"


class PdqLinkState:
    """All PDQ state for one egress link."""

    def __init__(self, protocol: "PdqSwitchProtocol", link: Link):
        self.protocol = protocol
        self.sim = protocol.sim
        self.switch_id = protocol.switch_id
        self.link = link
        config = protocol.config
        self.config = config
        self.flows = PdqFlowList(config, protocol.comparator)
        #: average of the RTTs seen in headers; ``default_rtt`` stands in
        #: until the first sample, which replaces it rather than being
        #: averaged with it (the :class:`~repro.utils.ewma.Ewma` contract)
        self.rtt_avg: float = config.default_rtt
        self._rtt_sampled = False
        self.rate_controller = PdqRateController(
            protocol.sim, link, config, self.rtt_avg_value
        )
        #: the dampening window, closed (None) when the flow that opened
        #: it turns out paused: left open it would block genuinely
        #: acceptable flows for nothing (phantom accepts on multi-hop
        #: paths otherwise stall convergence badly)
        self.window: Window | None = None
        # flows that did not fit in the list (RCP fallback, §3.3.1)
        self.outside: dict[int, float] = {}
        self.pauses = 0
        self.accepts = 0

    def rtt_avg_value(self) -> float:
        """The RTT average, for the rate controller's 2-RTT cadence."""
        return self.rtt_avg

    # -- Algorithm 1 --------------------------------------------------------------

    def on_forward(self, packet: Packet) -> None:
        """Algorithm 1 for one forward packet: refresh the RTT average,
        expire stale entries, admit or reposition the flow, then write
        :func:`decide`'s grant or pause into the header and keep the
        dampening window."""
        header: PdqHeader = packet.sched
        fid = packet.fid
        now = self.sim.now
        config = self.config
        flows = self.flows

        rtt = header.rtt
        if rtt > 0:
            if self._rtt_sampled:
                rtt_avg = _RTT_KEEP * self.rtt_avg + _RTT_ALPHA * rtt
            else:
                rtt_avg = rtt
                self._rtt_sampled = True
            self.rtt_avg = rtt_avg
        else:
            rtt_avg = self.rtt_avg
        rate_controller = self.rate_controller
        if not rate_controller.running:
            rate_controller.start()
        # entries not refreshed within the horizon lost their TERM
        horizon = config.entry_expiry_rtts * rtt_avg
        for other in flows.entries:
            if now - other.last_update > horizon:
                for stale in flows.purge_expired(now, horizon):
                    self.protocol.forget(stale, self)
                break
        if self.outside:
            cutoff = now - horizon
            self.outside = {f: t for f, t in self.outside.items()
                            if t >= cutoff}

        # paused by another switch: drop our state and pass through
        my_id = self.switch_id
        pauseby = header.pauseby
        if pauseby is not None and pauseby != my_id:
            if flows.remove(fid):
                self.protocol.forget(fid, self)
            self.outside.pop(fid, None)
            if self.window and self.window[1] == fid:
                self.window = None
            return

        deadline = header.deadline
        expected_tx = header.expected_tx
        criticality = header.criticality
        key = flows.comparator.key(fid, deadline, expected_tx, criticality)
        entry = flows.by_fid.get(fid)
        if entry is None:
            entry = flows.admit(fid, now, key)
            if entry is None:
                self._rcp_fallback(fid, header, now)
                return
            self.protocol.remember(fid, self)
            self.outside.pop(fid, None)

        # refresh <D_i, T_i, RTT_i> from the header and re-sort
        requested = header.rate
        entry.deadline = deadline
        entry.expected_tx = expected_tx
        if rtt > 0:
            entry.rtt = rtt
        entry.criticality = criticality
        entry.requested = requested
        entry.last_update = now
        index = flows.reposition(entry, key)

        sending = entry.rate > 0.0 and entry.pauseby is None
        window = self.window
        grant, cause = decide(
            flows.entries, index, fid, key, requested, sending, now, window,
            rtt_avg, rate_controller.capacity, rate_controller.r_pdq, config)
        if cause == "accepted":
            # start the dampening window once per newly accepted flow; a
            # tentatively-accepted flow re-confirming every packet must not
            # keep resetting it, or it locks out more-critical preempters
            # indefinitely
            if not sending and (window is None or window[1] != fid):
                self.window = (now, fid, key)
            header.pauseby = None
            header.rate = grant
            self.accepts += 1
            return
        if cause != "dampened" and window is not None and window[1] == fid:
            self.window = None
        header.pauseby = my_id
        header.rate = 0.0
        entry.pauseby = my_id
        self.pauses += 1

    def _rcp_fallback(self, fid: int, header: PdqHeader, now: float) -> None:
        """Flows beyond the list get the leftover capacity, RCP-style
        (§3.3.1); zero leftover means pause. Leftover accounts for listed
        flows' reservations, not just committed rates -- a burst of listed
        but not-yet-committed flows still owns the link."""
        self.outside[fid] = now
        my_id = self.switch_id
        listed_rate = 0.0
        for entry in self.flows.entries:
            if entry.pauseby is None and entry.rate > 0:
                listed_rate += entry.rate
            elif entry.pauseby in (None, my_id):
                listed_rate += entry.requested
        leftover = max(0.0, self.rate_controller.capacity - listed_rate)
        share = leftover / max(1, len(self.outside))
        if share <= self.config.min_rate:
            header.pauseby = my_id
            header.rate = 0.0
            self.pauses += 1
        else:
            header.rate = min(header.rate, share)

    # -- Algorithm 3 --------------------------------------------------------------

    def on_reverse(self, packet: Packet) -> None:
        """Algorithm 3 for one reverse packet of a flow indexed here."""
        header: PdqHeader = packet.sched
        fid = packet.fid
        flows = self.flows
        pauseby = header.pauseby
        if pauseby is not None:
            if pauseby != self.switch_id and flows.remove(fid):
                self.protocol.forget(fid, self)
            header.rate = 0.0  # a paused flow's committed rate is zero
            if self.window and self.window[1] == fid:
                self.window = None
        entry = flows.by_fid.get(fid)
        if entry is None:
            return
        entry.pauseby = pauseby
        if self.config.suppressed_probing:
            # I_H = max(I_H, X * index)
            floor = self.config.probing_x * flows.entries.index(entry)
            if floor > header.inter_probe:
                header.inter_probe = floor
        entry.rate = header.rate

    # -- termination --------------------------------------------------------------

    def on_term(self, packet: Packet) -> None:
        if self.flows.remove(packet.fid):
            self.protocol.forget(packet.fid, self)
        self.outside.pop(packet.fid, None)
        if len(self.flows) == 0 and not self.outside:
            self.rate_controller.stop()


class PdqSwitchProtocol:
    """Per-switch PDQ protocol: routes packets to per-egress-link state and
    resolves reverse-path lookups (which forward link a flow's state lives
    on at this switch)."""

    def __init__(self, network: "Network", switch: "Switch", config: PdqConfig,
                 comparator: FlowComparator | None = None):
        self.net = network
        self.sim = network.sim
        self.switch_id = switch.id
        self.config = config
        self.comparator = comparator or FlowComparator()
        self._states: dict[int, PdqLinkState] = {}
        self._flow_index: dict[int, PdqLinkState] = {}

    # -- state registry -----------------------------------------------------------

    def state_for(self, link: Link) -> PdqLinkState:
        state = self._states.get(link.link_id)
        if state is None:
            state = PdqLinkState(self, link)
            self._states[link.link_id] = state
        return state

    def remember(self, fid: int, state: PdqLinkState) -> None:
        self._flow_index[fid] = state

    def forget(self, fid: int, state: PdqLinkState) -> None:
        if self._flow_index.get(fid) is state:
            del self._flow_index[fid]

    # -- packet dispatch ----------------------------------------------------------

    def process(self, packet: Packet, out_link: Link) -> None:
        header = packet.sched
        if header.__class__ is not PdqHeader:
            return
        kind = packet.kind
        if kind in _FORWARD_KINDS:
            state = self._states.get(out_link.link_id)
            if state is None:
                state = self.state_for(out_link)
            state.on_forward(packet)
        elif kind in _REVERSE_KINDS:
            state = self._flow_index.get(packet.fid)
            if state is not None:
                state.on_reverse(packet)
            elif header.pauseby is not None:
                # stateless part of Algorithm 3: a paused flow's rate is 0
                header.rate = 0.0
        elif kind == _TERM:
            # no state for this link means no SYN of this flow left on it
            # (Early Termination at start sends a bare TERM): nothing to
            # clean up, and nothing to allocate
            state = self._states.get(out_link.link_id)
            if state is not None:
                state.on_term(packet)
        # TERM_ACK needs no processing: TERM already cleaned up
