"""Digest pins for the PDQ packet path: every branch of the switch's
Algorithms 1-3 and of the PDQ endpoint hooks must leave simulated output
bit-identical.

Each case runs one short ``run_packet_level`` scenario, pinned in
``tests/data/pins.json`` by its :func:`repro.metrics.digest` and
headline statistics (see ``tests/pins.py``). The cases cover the four paper variants, aging,
both §5.6 criticality schemes, dampening off and preemption-exempt
dampening, a flow list small enough to force the RCP fallback, a lossy
fabric whose lost TERMs reach the entry-expiry purge (of listed flows,
and with the small list of fallback flows too), Early Termination
at start (a TERM with no SYN before it), M-PDQ subflows and the rate
tracer.

The same flows pin the baselines that share ``Host.send``, ``Link`` and
the ``Simulator`` with PDQ: TCP Reno on its own, under wire loss, behind
12 KB buffers (tail drops, so fast retransmit and NewReno partial ACKs
run) and across a ``tor0``-``root`` link flap (fault drops and rejected
flows), plus RCP and D3. ``collector.stats`` is part of the digest, so
the event and compaction counts are pinned as well.

On ``single_rooted`` ECMP never has a choice to make, so a second set
runs cross-pod flows on the 16-server fat-tree, where every flow's core
switch comes from the ECMP hash: PDQ(Full), M-PDQ (whose subflows hash
over the cores), TCP across an ``agg0_0`` switch flap and RCP across a
core link flap (fault reroutes pick their detours by the same hash).
PDQ(Full) across an ``agg0_0`` outage pins the reroute of paused flows:
a rerouted sender forgets the switch that paused it on the old path,
so every flow resolves.

A digest changes only when simulated behaviour changes; a failure names
each headline statistic that moved. If the change is deliberate,
re-baseline with ``tests/data/capture_pins.py packet``.

The pins also hold the engine's event order, which no number a small
test reads would show: a link that gives each delivery its heap seq when
the packet's transmission starts, rather than when it finishes, keeps
every timestamp yet flips same-timestamp ties (the fig3c defect), and
:func:`test_a_delivery_seq_taken_at_tx_start_moves_the_pins` checks
that the ``rcp`` pin sees it.
"""

from functools import partial
from heapq import heappush

import pytest

import pins
from repro.campaign.engines import run_packet_level
from repro.campaign.registry import build_topology, build_workload
from repro.faults.spec import FaultEvent, LossRule
from repro.net.link import Link
from repro.net.network import NetworkConfig
from repro.units import KBYTE, MSEC
from repro.workload.flow import FlowSpec

#: extra flows on top of the aggregation: background traffic without
#: deadlines between other host pairs, and two flows that cannot meet
#: their deadline even at line rate (Early Termination at start)
_EXTRA = (
    FlowSpec(fid=100, src="h8", dst="h1", size_bytes=400 * KBYTE),
    FlowSpec(fid=101, src="h11", dst="h6", size_bytes=200 * KBYTE,
             arrival=1 * MSEC),
    FlowSpec(fid=102, src="h0", dst="h7", size_bytes=300 * KBYTE,
             arrival=0.2 * MSEC),
    FlowSpec(fid=103, src="h5", dst="h10", size_bytes=600 * KBYTE,
             arrival=0.5 * MSEC, deadline=2 * MSEC),
    FlowSpec(fid=104, src="h3", dst="h10", size_bytes=1000 * KBYTE,
             arrival=2 * MSEC, deadline=3 * MSEC),
)

#: id -> (protocol, PdqConfig overrides, run_packet_level keywords)
CASES = {
    "full": ("PDQ(Full)", {}, {}),
    "es_et": ("PDQ(ES+ET)", {}, {}),
    "es": ("PDQ(ES)", {}, {}),
    "basic": ("PDQ(Basic)", {}, {}),
    "aging": ("PDQ(Full)", {"aging_rate": 4.0, "aging_time_unit": 1e-3}, {}),
    "random": ("PDQ(Full)", {"criticality_mode": "random"}, {}),
    "estimate": ("PDQ(Full)", {"criticality_mode": "estimate"}, {}),
    "no_dampening": ("PDQ(Full)", {"dampening": False}, {}),
    "preemption_exempt": ("PDQ(Full)",
                          {"dampening_preemption_exempt": True}, {}),
    "rcp_fallback": ("PDQ(Full)",
                     {"hard_flow_limit": 2, "min_list_capacity": 2}, {}),
    "lossy": ("PDQ(Full)", {},
              {"loss": [LossRule(src="*", dst="*", rate=0.05, seed=3)]}),
    "lossy_rcp_fallback": ("PDQ(Full)",
                           {"hard_flow_limit": 2, "min_list_capacity": 2},
                           {"loss": [LossRule(src="*", dst="*", rate=0.05,
                                              seed=7)]}),
    "mpdq": ("M-PDQ", {}, {}),
    "traced": ("PDQ(Full)", {}, {"trace": True}),
    "tcp": ("TCP", {}, {}),
    "tcp_lossy": ("TCP", {},
                  {"loss": [LossRule(src="*", dst="*", rate=0.05, seed=3)]}),
    "tcp_small_buffer": ("TCP", {},
                         {"network_config":
                          NetworkConfig(buffer_bytes=12 * KBYTE)}),
    "tcp_link_flap": ("TCP", {},
                      {"faults": [FaultEvent(1 * MSEC, "link_down",
                                             "tor0", "root"),
                                  FaultEvent(3 * MSEC, "link_up",
                                             "tor0", "root")]}),
    "rcp": ("RCP", {}, {}),
    "d3": ("D3", {}, {}),
}

def _flows(topology) -> list[FlowSpec]:
    base = build_workload("fig3.aggregation", topology, 1, {
        "n_flows": 24, "mean_size": 150 * KBYTE, "mean_deadline": 6 * MSEC,
    })
    return [*base, *_EXTRA]


def run(case: str) -> list:
    protocol, overrides, keywords = CASES[case]
    topology = build_topology("single_rooted", {})
    collector = run_packet_level(topology, protocol, _flows(topology),
                                 sim_deadline=1.0, **keywords, **overrides)
    assert collector.unfinished_count() == 0
    return [collector]


@pytest.mark.parametrize("case", sorted(CASES))
def test_packet_digest_is_pinned(case):
    pins.assert_pinned("packet", case, run(case))


def _deliver_at_tx_start(monkeypatch) -> None:
    """Patch :class:`Link` to push each delivery when its transmission
    starts: the same timestamp as at tx-finish, but an earlier seq. Wire
    loss and link faults are left out; the ``rcp`` case has neither."""

    def start(link, packet):
        sim = link.sim
        link._transmitting = True
        link._tx_started = sim.now
        done = sim.now + packet.size * 8 / link.rate_bps
        heappush(sim._heap, (done, sim._seq, link._finish_cb, (packet,)))
        heappush(sim._heap, (done + link._arrival_delay, sim._seq + 1,
                             link._deliver_cb, (packet, link)))
        sim._seq += 2

    def enqueue(link, packet):
        if link._transmitting:
            return link.queue.offer(packet)
        if not link.queue.offer(packet):
            return False
        start(link, link.queue.pop())
        return True

    def finish(link, packet):
        link._busy_accum += link.sim.now - link._tx_started
        link.bytes_sent += packet.size
        link.packets_sent += 1
        waiting = link.queue.pop()
        if waiting is None:
            link._transmitting = False
        else:
            start(link, waiting)

    monkeypatch.setattr(Link, "enqueue", enqueue)
    monkeypatch.setattr(Link, "_finish", finish)


def test_a_delivery_seq_taken_at_tx_start_moves_the_pins(monkeypatch):
    """The pins, not a lint rule, hold the link's tx-finish delivery
    order: with deliveries scheduled at tx-start the ``rcp`` digest
    moves, and the failure names the case."""
    assert not CASES["rcp"][2]
    _deliver_at_tx_start(monkeypatch)
    lines = pins.moved("packet", "rcp", run("rcp"))
    assert lines, "the rcp pin no longer sees a tx-start delivery seq"
    assert len(lines) == 1 and lines[0].startswith("packet rcp: digest ")


#: id -> (protocol, run_packet_level keywords), on the 16-server fat-tree
FATTREE_CASES = {
    "full": ("PDQ(Full)", {}),
    "full_switch_down": ("PDQ(Full)", {"faults": [
        FaultEvent(1 * MSEC, "switch_down", node="agg0_0")]}),
    "mpdq": ("M-PDQ", {}),
    "tcp_switch_flap": ("TCP", {"faults": [
        FaultEvent(1 * MSEC, "switch_down", node="agg0_0"),
        FaultEvent(3 * MSEC, "switch_up", node="agg0_0")]}),
    "rcp_link_flap": ("RCP", {"faults": [
        FaultEvent(1 * MSEC, "link_down", "agg0_0", "core0_0"),
        FaultEvent(3 * MSEC, "link_up", "agg0_0", "core0_0")]}),
}

def _fattree_flows() -> list[FlowSpec]:
    """24 cross-pod flows (hosts ``h4p`` to ``h4p+3`` share pod ``p``):
    mixed sizes, staggered arrivals, a deadline on every third."""
    flows = []
    for i in range(24):
        src = i % 16
        dst = ((src // 4 + 1 + i % 3) % 4) * 4 + (src + i // 16) % 4
        flows.append(FlowSpec(
            fid=i, src=f"h{src}", dst=f"h{dst}",
            size_bytes=(40 + 37 * (i * 7 % 11)) * KBYTE,
            arrival=(i * 3 % 8) * 0.25 * MSEC,
            deadline=(8 + i % 5) * MSEC if i % 3 == 0 else None))
    return flows


def run_fattree(case: str) -> list:
    protocol, keywords = FATTREE_CASES[case]
    topology = build_topology("fattree", {"n_servers": 16})
    collector = run_packet_level(topology, protocol, _fattree_flows(),
                                 sim_deadline=1.0, **keywords)
    assert collector.unfinished_count() == 0
    return [collector]


@pytest.mark.parametrize("case", sorted(FATTREE_CASES))
def test_fattree_digest_is_pinned(case):
    pins.assert_pinned("packet", f"fattree.{case}", run_fattree(case))


#: the ``packet`` family of ``tests/data/pins.json``: case -> run()
PINNED = {**{case: partial(run, case) for case in CASES},
          **{f"fattree.{case}": partial(run_fattree, case)
             for case in FATTREE_CASES}}
