"""Digest pins for the fluid (flow-level) engine: the event loop,
stream admission, the open-system generator and the streaming collector
must leave simulated output bit-identical.

Each case runs one short ``run_flow_level`` scenario and hashes
``canonical_json(collector.to_dict())`` with SHA-256 (the benchmark's
``sim.digest`` recipe). ``collector.stats`` is part of the digest, so
the ``fluid.*`` counters (iterations, allocate calls, stream batches,
pauses and resumes) are pinned as well. The cases cover:

* RCP over an open-system VL2 stream with the streaming collector — the
  ``fluid-stream-rcp`` benchmark's shape, scaled down;
* D3 over a stream with Pareto arrivals and sizes and short-flow
  deadlines (deadline-met and terminated folds);
* PDQ(Full) over a stream of uniform sizes;
* PDQ(Full) with aging over a list whose last flows arrive after the
  run's deadline (they come back unfinished);
* a faulted stream on a fat-tree: an uplink and a host link go down and
  come back, so flows are rerouted, terminated and rejected on arrival;
* a traced run with a link probe and a rate probe (the tracer branch
  and the per-epoch samplers).

Separately, the materialised ``FlowSpec`` sequence of each size family
is pinned, so the generator's draws are guarded on their own.

A digest changes only when simulated behaviour changes; if that is
deliberate, re-baseline by printing ``_digest(case)`` for each case.
"""

import hashlib

import pytest

from repro.campaign.engines import run_flow_level
from repro.campaign.registry import build_topology, build_workload
from repro.campaign.spec import canonical_json
from repro.faults.spec import FaultEvent
from repro.metrics.streaming import streaming_collector
from repro.units import KBYTE, MSEC
from repro.workload.flow import FlowSpec
from repro.workload.open_system import open_system


def _sha(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _rcp_stream():
    topology = build_topology("single_rooted", {})
    stream = build_workload("open_system", topology, 3, {
        "duration": 5_000 / 100_000.0, "rate_per_sec": 100_000.0,
        "size_scale": 0.005,
    })
    return run_flow_level(topology, "RCP", stream,
                          sim_deadline=stream.horizon,
                          metrics=streaming_collector(True, seed=3))


def _d3_pareto_stream():
    topology = build_topology("single_rooted", {})
    stream = open_system(topology, 5, duration=0.02, rate_per_sec=20_000.0,
                         arrival="pareto", sizes="pareto",
                         mean_size_bytes=20 * KBYTE,
                         mean_deadline=2 * MSEC,
                         deadline_cutoff=40 * KBYTE)
    return run_flow_level(topology, "D3", stream,
                          sim_deadline=stream.horizon,
                          metrics=streaming_collector({"reservoir": 64},
                                                      seed=5))


def _pdq_uniform_stream():
    topology = build_topology("single_rooted", {})
    stream = open_system(topology, 7, duration=0.02, rate_per_sec=10_000.0,
                         sizes="uniform", mean_size_bytes=20 * KBYTE,
                         mean_deadline=5 * MSEC, size_scale=0.5)
    return run_flow_level(topology, "PDQ(Full)", stream,
                          sim_deadline=stream.horizon)


def _pdq_aging_list():
    topology = build_topology("single_rooted", {})
    flows = build_workload("fig3.aggregation", topology, 2, {
        "n_flows": 10, "mean_size": 100 * KBYTE, "mean_deadline": None,
    })
    late = [
        FlowSpec(fid=100 + i, src=f"h{i}", dst=f"h{11 - i}",
                 size_bytes=50 * KBYTE, arrival=0.5 + 0.1 * i)
        for i in range(3)
    ]
    return run_flow_level(topology, "PDQ(Full)", [*late, *flows],
                          sim_deadline=0.4, aging_rate=4.0,
                          aging_time_unit=1e-3)


def _faulted_stream():
    topology = build_topology("fattree", {"n_servers": 16})
    stream = open_system(topology, 12, duration=0.02, rate_per_sec=8_000.0,
                         size_scale=0.2)
    faults = [
        FaultEvent(0.004, "link_down", "edge0_0", "agg0_0"),
        FaultEvent(0.004, "link_down", "h0", "edge0_0"),
        FaultEvent(0.012, "link_up", "edge0_0", "agg0_0"),
        FaultEvent(0.012, "link_up", "h0", "edge0_0"),
    ]
    return run_flow_level(topology, "RCP", stream,
                          sim_deadline=stream.horizon, faults=faults)


def _traced_with_probes():
    topology = build_topology("single_rooted", {})
    stream = open_system(topology, 13, duration=0.01, rate_per_sec=5_000.0,
                         size_scale=0.05, mean_deadline=4 * MSEC)
    probes = {
        "uplink": {"kind": "link", "link": ["tor0", "root"],
                   "interval": 0.0005},
        "rates": {"kind": "flow_rates", "interval": 0.001},
    }
    return run_flow_level(topology, "PDQ(Full)", stream,
                          sim_deadline=stream.horizon, trace=True,
                          probes=probes)


#: id -> scenario
CASES = {
    "rcp_stream": _rcp_stream,
    "d3_pareto_stream": _d3_pareto_stream,
    "pdq_uniform_stream": _pdq_uniform_stream,
    "pdq_aging_list": _pdq_aging_list,
    "faulted_stream": _faulted_stream,
    "traced_with_probes": _traced_with_probes,
}

PINS = {
    "rcp_stream":
        "d57179fdc3afd7057e3aa0e793926fc818214f5e62d039bac09e79351ff19609",
    "d3_pareto_stream":
        "12544c39a31bbf54deffe22f89308612cca15db52b942184b6693a081279c63a",
    "pdq_uniform_stream":
        "d26afc8ea5d4eb6dd5c856e89ef52d46b092857eeb7d514eb0498e8b95e72d6f",
    "pdq_aging_list":
        "bdc1fb4845005350f95ed55069fb98db1319ed7bc997d8476b8527753f9da26e",
    "faulted_stream":
        "76b4972fa49594dd89a52ea1cd660b02f396d0e519e68ee89af36a31007482f2",
    "traced_with_probes":
        "029c4f48988937835a6d6fb1b9a1debaea0a36057fdaa6c80d5a1206de55e198",
}

#: size family -> SHA-256 of the materialised FlowSpec sequence
SPEC_PINS = {
    "vl2": "b922bee95b82560545f6dfb47eb4c20dd07c5d86630f8c87b48d7020a28b5d8e",
    "uniform":
        "3b8bdc7080ba5f65c919b20ac5cc22da0e242c57b6991f7da9075b4f35e16655",
    "pareto":
        "d96f6445ca675cafb75779bb37fadc87a7a41d023c1b8230d34401c7b4d3448d",
}


def _digest(case: str) -> str:
    return _sha(CASES[case]().to_dict())


def _specs_digest(sizes: str) -> str:
    topology = build_topology("single_rooted", {})
    stream = open_system(topology, 17, duration=0.05, rate_per_sec=20_000.0,
                         sizes=sizes, mean_size_bytes=30 * KBYTE,
                         size_scale=0.1, mean_deadline=3 * MSEC)
    return _sha([spec.to_dict() for spec in stream.materialize()])


@pytest.mark.parametrize("case", sorted(CASES))
def test_fluid_digest_is_pinned(case):
    assert _digest(case) == PINS[case]


@pytest.mark.parametrize("sizes", sorted(SPEC_PINS))
def test_open_system_specs_are_pinned(sizes):
    assert _specs_digest(sizes) == SPEC_PINS[sizes]
