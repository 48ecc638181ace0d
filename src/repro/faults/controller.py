"""Packet-engine fault injection: scheduled outages and loss rules.

The :class:`FaultController` registers one simulator event per scheduled
:class:`~repro.faults.spec.FaultEvent`. Applying an event updates the
controller's :class:`~repro.faults.spec.FaultState`, derives the failed
directed edges from it once, flips every :class:`~repro.net.link.Link`'s
``up`` flag from that set (a failed link drops its queued packets and
refuses new ones) and hands the same set to the network's
:class:`~repro.net.routing.Router` — the fluid engine derives its set
through the same helper. It then reroutes every live flow whose pinned
path crosses a failed link through the sender's ``reroute`` — or
terminates it when the fault partitioned its endpoints. Packets already
in flight on a stale path are dropped at the failed link; the
transports' retransmission machinery recovers them on the new path.

:func:`apply_loss` is the run-time half of the loss generalization: it
configures random wire loss from :class:`~repro.faults.spec.LossRule`
glob patterns.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import TYPE_CHECKING

from repro.errors import FaultError, RoutingError
from repro.faults.spec import FaultEvent, FaultState, LossRule, validate_events
from repro.utils.rng import spawn_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Sequence
    from repro.net.network import Network


class FaultController:
    """Applies a fault schedule to a built :class:`Network`."""

    def __init__(self, net: "Network", events: "Sequence[FaultEvent]"):
        self.net = net
        # stable sort: same-time events apply in declaration order
        self.events = tuple(sorted(events, key=lambda e: e.time))
        self.state = FaultState()
        self.events_applied = 0
        self.reroutes = 0
        self.flows_rejected = 0
        validate_events(self.events, net.topology)
        net.fault_controller = self

    def start(self) -> None:
        """Schedule every event at its simulated time."""
        for event in self.events:
            self.net.sim.call_at(event.time, self._apply, event)

    # -- event application ---------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        self.state.apply(event)
        self.events_applied += 1
        self._sync_links()
        self._reroute_live_flows()

    def _sync_links(self) -> None:
        """Reconcile every link's ``up`` flag and the router's down set
        with the fault state (derived from scratch, so overlapping
        faults compose)."""
        net = self.net
        down = self.state.down_edges(net.router.edge_index)
        for link in net.links:
            if link.link_id in down:
                if link.up:
                    link.fail()
            elif not link.up:
                link.restore()
        net.router.set_down_edges(down)

    def _reroute_live_flows(self) -> None:
        """Re-pin the path of every registered flow that lost a link.

        The sweep walks the hosts' sender registries (which include
        M-PDQ subflows under their subflow fids), recomputes the pinned
        forward path with the same fid-keyed ECMP hash, and hands it and
        its exact reverse to the sender, which moves its receiver too so
        scheduling state stays on the round-trip path. Flows whose
        endpoints are now partitioned are terminated — the open-system
        analogue of rejecting work when a machine disappears.
        """
        net = self.net
        for node in net.nodes:
            senders = getattr(node, "senders", None)
            if not senders:
                continue
            for fid, sender in list(senders.items()):
                path = getattr(sender, "path", None)
                if path is None or all(link.up for link in path):
                    continue
                try:
                    forward = net.flow_path(fid, node.name, sender.spec.dst)
                except RoutingError:
                    self._reject(fid, sender)
                    continue
                sender.reroute(forward, net.reverse_path(forward))
                self.reroutes += 1

    def _reject(self, fid: int, sender) -> None:
        self.flows_rejected += 1
        terminate = getattr(sender, "terminate", None)
        if terminate is not None:
            # explicit-rate transports: records the termination and
            # sends TERM down the (dead) old path; the packets drop at
            # the failed link and the close timer reaps the sender
            terminate("fault: no route after failure")
            return
        # window-based transports (TCP) have no TERM; record and close
        self.net.metrics.on_terminated(
            fid, self.net.sim.now, "fault: no route after failure"
        )
        close = getattr(sender, "_close", None)
        if close is not None:
            close()

    # -- diagnostics ---------------------------------------------------------------

    def packets_dropped(self) -> int:
        """Packets released at failed links (queue drains + in-flight)."""
        return sum(link.fault_drops for link in self.net.links)


# -- loss rules ---------------------------------------------------------------------


def apply_loss(net: "Network", loss: "Sequence[LossRule]") -> None:
    """Configure random wire loss from rules.

    Rules are applied in order over the links in link-id order, so
    later rules deterministically override earlier ones on overlapping
    links; every link draws from its own
    ``spawn_rng(seed, "loss:<link_id>")`` stream, so a link's loss
    pattern does not depend on which other links a rule matched.
    """
    for rule in loss:
        if not isinstance(rule, LossRule) or rule.seed is None:
            raise FaultError(f"expected a seeded LossRule, got {rule!r}")
        matched = 0
        for link in net.links:
            src, dst = link.src.name, link.dst.name
            hit = fnmatchcase(src, rule.src) and fnmatchcase(dst, rule.dst)
            if not hit and rule.both_directions:
                hit = (fnmatchcase(src, rule.dst)
                       and fnmatchcase(dst, rule.src))
            if hit:
                link.set_loss(
                    rule.rate, spawn_rng(rule.seed, f"loss:{link.link_id}")
                )
                matched += 1
        if not matched:
            raise FaultError(
                f"loss rule {rule.src!r} -> {rule.dst!r} matches no link "
                f"in the topology"
            )
