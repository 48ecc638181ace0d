"""Digest pins for the PDQ packet path: every branch of the switch's
Algorithms 1-3 and of the PDQ endpoint hooks must leave simulated output
bit-identical.

Each case runs one short ``run_packet_level`` scenario and hashes
``canonical_json(collector.to_dict())`` with SHA-256 (the benchmark's
``sim.digest`` recipe). The cases cover the four paper variants, aging,
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
the event, timer push-back and compaction counts are pinned as well.

On ``single_rooted`` ECMP never has a choice to make, so a second set
runs cross-pod flows on the 16-server fat-tree, where every flow's core
switch comes from the ECMP hash: PDQ(Full), M-PDQ (whose subflows hash
over the cores), TCP across an ``agg0_0`` switch flap and RCP across a
core link flap (fault reroutes pick their detours by the same hash).
PDQ(Full) across an ``agg0_0`` outage pins the reroute of paused flows:
a rerouted sender forgets the switch that paused it on the old path,
so every flow resolves.

A digest changes only when simulated behaviour changes; if that is
deliberate, re-baseline by printing ``_digest(case)`` for each case.
"""

import hashlib

import pytest

from repro.campaign.engines import run_packet_level
from repro.campaign.registry import build_topology, build_workload
from repro.campaign.spec import canonical_json
from repro.faults.spec import FaultEvent, LossRule
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

PINS = {
    "full": "afb541d91959b64204aa07f973ba067479cc5d52443d7ff8b5b35f9a6e7abf31",
    "es_et": "ac597e40bbc98e6884c294205c5a86048859caeb63d7dad05977356c3a6e3721",
    "es": "ea4ff5c657bd9446c09648b395d3a87b038f7ca500e9be0f0f297baff04fbe8e",
    "basic": "8586d8e71e4a7b27ad8a44a5d067cf48792489b01c22baf2ec5d27e6ccbeb2e8",
    "aging": "1fe996d890285275a3f1672651ec19ff173f85d1b1ce9573aad9bbfae8995c56",
    "random": "5922c8f045b1d41f227982fef56ae47bb04521ccd4a8eb0d9a2b341646240665",
    "estimate":
        "65539fa95940d4591b34b26df7d31192e583a6c95069f6104e1f641e78757c44",
    "no_dampening":
        "6d133fd6763e455b0fac9938fa37c52c6f88cb759b3f1d6c69cf34a7d58d51c1",
    "preemption_exempt":
        "d773f583d2d21b5df45f12f3dafec273ab715e40e74f614a01c502e723a5e8f8",
    "rcp_fallback":
        "7cacda5adfb392a3f72da1b694339357ac0d0e8cc4cad26391f2b279584dbf7b",
    "lossy": "4afc810f858f0de564c18ce2d07a547f82be03d627de3190eec80173be229699",
    "lossy_rcp_fallback":
        "fca6dc47415867338f1412096ddb162c950905433484adc8147b972a788af138",
    "mpdq": "f5e34946e38c119eed966e117725466f173cd6150f87b65affdad0c194862d29",
    "traced":
        "6389966b90025eab9f719d1802c45be57040c385a9c8184cd30913d9913b9c12",
    "tcp": "6e55cf4b4574a54be8acdf94ee28d415b3b4a93a770bf527da5d571299595e0b",
    "tcp_lossy":
        "8ec024b0e75c149ad4059221490eb1030f5ac1a84c03ef6a9f7eeec1973a0126",
    "tcp_small_buffer":
        "23c35a52795347a5e83bdde76ef5888119ada077a7d99c28a5226067764b9964",
    "tcp_link_flap":
        "bcc36f2ca0cc8fc41cf5f2efee0655f382caf7ae22d4ed2721b862fe13dfcf87",
    "rcp": "e7e204e95c99d6374c944b42d599dc9aba0f4a69eb8ee79f2af9b328f719950c",
    "d3": "17b2d19087c473eaa076db9b8d0a9bbe15bd50c73b6a7157926ce5ef0265204f",
}


def _flows(topology) -> list[FlowSpec]:
    base = build_workload("fig3.aggregation", topology, 1, {
        "n_flows": 24, "mean_size": 150 * KBYTE, "mean_deadline": 6 * MSEC,
    })
    return [*base, *_EXTRA]


def _digest(case: str) -> str:
    protocol, overrides, keywords = CASES[case]
    topology = build_topology("single_rooted", {})
    collector = run_packet_level(topology, protocol, _flows(topology),
                                 sim_deadline=1.0, **keywords, **overrides)
    assert collector.unfinished_count() == 0
    text = canonical_json(collector.to_dict())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_packet_digest_is_pinned(case):
    assert _digest(case) == PINS[case]


#: id -> (protocol, run_packet_level keywords), on the 16-server fat-tree
FATTREE_CASES = {
    "full": ("PDQ(Full)", {}),
    "full_switch_down": ("PDQ(Full)", {"faults": [
        FaultEvent(1 * MSEC, "switch_down", "agg0_0")]}),
    "mpdq": ("M-PDQ", {}),
    "tcp_switch_flap": ("TCP", {"faults": [
        FaultEvent(1 * MSEC, "switch_down", "agg0_0"),
        FaultEvent(3 * MSEC, "switch_up", "agg0_0")]}),
    "rcp_link_flap": ("RCP", {"faults": [
        FaultEvent(1 * MSEC, "link_down", "agg0_0", "core0_0"),
        FaultEvent(3 * MSEC, "link_up", "agg0_0", "core0_0")]}),
}

FATTREE_PINS = {
    "full": "842a0255fa816cf58b00d02e1e5f5cd7eb2ae1523801d43429526135b82d978d",
    "full_switch_down":
        "1fd4409fc44bbd2bb274c07d933b15034e02d83eaf8a0336c55fa09163b86ed2",
    "mpdq": "1f539d2c9da2e9cea177333c9fe50c3d80e093cbb93dc5999e85fb8c0ce3cb4d",
    "tcp_switch_flap":
        "7880a007b2d53e6ad454045581572ec914b68210240efe00f9df4ef23011e319",
    "rcp_link_flap":
        "5bac9d002fdd420581c7965fa33a5443b8978d19cee6d4dcf795f65fa4edf3a3",
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


def _fattree_digest(case: str) -> str:
    protocol, keywords = FATTREE_CASES[case]
    topology = build_topology("fattree", {"n_servers": 16})
    collector = run_packet_level(topology, protocol, _fattree_flows(),
                                 sim_deadline=1.0, **keywords)
    assert collector.unfinished_count() == 0
    text = canonical_json(collector.to_dict())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(FATTREE_CASES))
def test_fattree_digest_is_pinned(case):
    assert _fattree_digest(case) == FATTREE_PINS[case]
