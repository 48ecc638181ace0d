"""Digest pins for the fluid (flow-level) engine, every run certified.

Each case is pinned in ``tests/data/pins.json`` by its
:func:`repro.metrics.digest` and headline statistics (see
``tests/pins.py``) while :func:`certified` checks
every ``allocate`` answer against the property that defines it
(:mod:`repro.flowsim.certify`). The ``run_flow_level`` cases pin
``collector.stats`` -- so the ``fluid.*`` counters -- too; they cover:

* RCP over an open-system VL2 stream with the streaming collector --
  the ``fluid-stream-rcp`` benchmark's shape, scaled down;
* D3 over a stream with Pareto arrivals and sizes and short-flow
  deadlines (deadline-met and terminated folds);
* PDQ(Full) over a stream of uniform sizes;
* PDQ(Full) with aging over a list whose last flows arrive after the
  run's deadline (they come back unfinished);
* a faulted stream on a fat-tree: an uplink and a host link go down and
  come back, so flows are rerouted, terminated and rejected on arrival;
* a traced run with a link probe and a rate probe.

The engine-direct cases run over a list and over a lazy ``FlowStream``
of the same flows, both giving the pin, which was taken where the
engine agreed bit for bit with the frozen pre-optimization engine.
The materialised ``FlowSpec`` sequence of each size family is pinned
too, so the generator's draws are guarded on their own.

A digest changes only when simulated behaviour changes; a failure names
each headline statistic that moved. If the change is deliberate,
re-baseline with ``tests/data/capture_pins.py fluid specs``. A
certificate failure names the flow and the edge; it is a bug.
"""

from functools import partial
from unittest import mock

import pytest

import pins
from repro.campaign import engines
from repro.campaign.engines import make_model, run_flow_level
from repro.campaign.registry import build_topology, build_workload
from repro.core.config import PdqConfig
from repro.faults.spec import FaultEvent
from repro.flowsim import D3Model, FlowLevelSimulation, PdqModel, RcpModel
from repro.flowsim.certify import check_allocate
from repro.metrics.streaming import streaming_collector
from repro.topology.single_bottleneck import SingleBottleneck
from repro.units import KBYTE, MSEC
from repro.utils.rng import spawn_rng
from repro.workload.arrivals import poisson_arrivals
from repro.workload.flow import FlowSpec
from repro.workload.open_system import open_system
from repro.workload.sizes import uniform_sizes
from repro.workload.stream import FlowStream

# importing the figure modules registers their workload kinds
import repro.experiments.fig3  # noqa: F401
import repro.experiments.fig5  # noqa: F401
import repro.experiments.fig8  # noqa: F401


def certified(model):
    """``model``, every ``allocate`` answer of which is certified."""
    allocate = model.allocate

    def checked(flows, capacities, now):
        rates = allocate(flows, capacities, now)
        check_allocate(model, flows, capacities, now, rates)
        return rates

    model.allocate = checked
    return model


def _rcp_stream():
    topology = build_topology("single_rooted", {})
    stream = build_workload("open_system", topology, 3, {
        "duration": 5_000 / 100_000.0, "rate_per_sec": 100_000.0,
        "size_scale": 0.005,
    })
    return [run_flow_level(topology, "RCP", stream,
                           sim_deadline=stream.horizon,
                           metrics=streaming_collector(True, seed=3))]


def _d3_pareto_stream():
    topology = build_topology("single_rooted", {})
    stream = open_system(topology, 5, duration=0.02, rate_per_sec=20_000.0,
                         arrival="pareto", sizes="pareto",
                         mean_size_bytes=20 * KBYTE,
                         mean_deadline=2 * MSEC,
                         deadline_cutoff=40 * KBYTE)
    return [run_flow_level(topology, "D3", stream,
                           sim_deadline=stream.horizon,
                           metrics=streaming_collector({"reservoir": 64},
                                                       seed=5))]


def _pdq_uniform_stream():
    topology = build_topology("single_rooted", {})
    stream = open_system(topology, 7, duration=0.02, rate_per_sec=10_000.0,
                         sizes="uniform", mean_size_bytes=20 * KBYTE,
                         mean_deadline=5 * MSEC, size_scale=0.5)
    return [run_flow_level(topology, "PDQ(Full)", stream,
                           sim_deadline=stream.horizon)]


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
    return [run_flow_level(topology, "PDQ(Full)", [*late, *flows],
                           sim_deadline=0.4, aging_rate=4.0,
                           aging_time_unit=1e-3)]


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
    return [run_flow_level(topology, "RCP", stream,
                           sim_deadline=stream.horizon, faults=faults)]


def _traced_with_probes():
    topology = build_topology("single_rooted", {})
    stream = open_system(topology, 13, duration=0.01, rate_per_sec=5_000.0,
                         size_scale=0.05, mean_deadline=4 * MSEC)
    probes = {
        "uplink": {"kind": "link", "link": ["tor0", "root"],
                   "interval": 0.0005},
        "rates": {"kind": "flow_rates", "interval": 0.001},
    }
    return [run_flow_level(topology, "PDQ(Full)", stream,
                           sim_deadline=stream.horizon, trace=True,
                           probes=probes)]


def run_both_shapes(build, model, deadline=4.0, **engine_kwargs):
    """Run ``build() -> (topology, flows)`` on the engine directly under
    a certified ``model()``, once over the list of flows and once over a
    lazy ``FlowStream`` of it; return the two collectors."""
    collectors = []
    for lazy in (False, True):
        topology, flows = build()
        if lazy:
            flows = FlowStream(iter(sorted(flows, key=lambda s: s.arrival)))
        sim = FlowLevelSimulation(topology, certified(model()),
                                  **engine_kwargs)
        collectors.append(sim.run(flows, deadline=deadline))
    return collectors


def _registered(topology_kind, topology_params, workload_kind,
                workload_params, model, seed=1):
    """An engine-direct case on a registered topology/workload pair."""
    def build():
        topology = build_topology(topology_kind, topology_params)
        return topology, build_workload(workload_kind, topology, seed,
                                        workload_params)
    return lambda: run_both_shapes(build, model)


def _bottleneck_flows(n_flows, n_senders, mean_size, label, deadline=None):
    """Poisson arrivals over 0.2 s from ``n_senders`` hosts into the one
    receiver of a :class:`SingleBottleneck`; ``deadline(i)`` gives flow
    ``i`` a relative deadline."""
    rng = spawn_rng(20120813, label)
    sizes = uniform_sizes(n_flows, mean_size, rng=rng)
    arrivals = poisson_arrivals(n_flows / 0.2, 0.2, rng=rng)
    flows = [
        FlowSpec(fid=i, src=f"send{i % n_senders}", dst="recv",
                 size_bytes=sizes[i],
                 arrival=arrivals[i] if i < len(arrivals) else 0.2,
                 deadline=deadline(i) if deadline else None)
        for i in range(n_flows)
    ]
    return SingleBottleneck(n_senders), flows


def _pdq(**overrides):
    return lambda: PdqModel(PdqConfig.full(**overrides))


def _fig3(model, n_flows=6, mean_size=150 * KBYTE,
          mean_deadline=30 * MSEC):
    """Query aggregation on the 12-server single-rooted tree."""
    return _registered("single_rooted", {}, "fig3.aggregation",
                       {"n_flows": n_flows, "mean_size": mean_size,
                        "mean_deadline": mean_deadline}, model)


def _fig5(model):
    """The VL2-style mix (Poisson arrivals, mixed sizes): 15 flows that
    barely overlap, so the three models give one digest."""
    return _registered("single_rooted", {}, "fig5.vl2",
                       {"rate_per_sec": 120.0, "duration": 0.1,
                        "mean_deadline": 20 * MSEC}, model, seed=2)


def _fig8_permutation(model, seed):
    return _registered("fattree", {"n_servers": 16}, "fig8.permutation",
                       {"flows_per_server": 2}, model, seed=seed)


#: id -> scenario; each returns one collector per input shape it runs
CASES = {
    "rcp_stream": _rcp_stream,
    "d3_pareto_stream": _d3_pareto_stream,
    "pdq_uniform_stream": _pdq_uniform_stream,
    "pdq_aging_list": _pdq_aging_list,
    "faulted_stream": _faulted_stream,
    "traced_with_probes": _traced_with_probes,
    "fig3_pdq_full": _fig3(_pdq()),
    "fig3_pdq_basic": _fig3(lambda: PdqModel(PdqConfig.basic())),
    "fig3_pdq_es_et": _fig3(lambda: PdqModel(PdqConfig.es_et()),
                            n_flows=4, mean_deadline=20 * MSEC),
    "fig3_rcp": _fig3(RcpModel, n_flows=5, mean_deadline=None),
    "fig3_d3": _fig3(D3Model, n_flows=5, mean_deadline=25 * MSEC),
    "fig5_pdq": _fig5(_pdq()),
    "fig5_rcp": _fig5(RcpModel),
    "fig5_d3": _fig5(D3Model),
    "fig8_perm_pdq1": _fig8_permutation(_pdq(), seed=1),
    "fig8_perm_pdq3": _fig8_permutation(_pdq(), seed=3),
    "fig8_perm_rcp1": _fig8_permutation(RcpModel, seed=1),
    "fig8_pairs_pdq": _registered(
        "fattree", {"n_servers": 16}, "fig8.random_pairs",
        {"n_flows": 24, "mean_deadline": 20 * MSEC}, _pdq()),
    # many flows on one link: the incremental sort (PDQ) and the
    # reservation sweep plus leftover max-min (D3) run long
    "bottleneck_pdq": lambda: run_both_shapes(
        lambda: _bottleneck_flows(150, 40, 80 * KBYTE, "parity:pdq"),
        _pdq(), deadline=30.0),
    "bottleneck_d3": lambda: run_both_shapes(
        lambda: _bottleneck_flows(
            80, 20, 60 * KBYTE, "parity:d3",
            deadline=lambda i: (20 + 5 * (i % 9)) * MSEC),
        D3Model, deadline=30.0),
    # time-varying keys (aging) and progress-derived criticality
    # (estimate) force per-call key recomputation; random draws once
    "pdq_aging": _fig3(_pdq(aging_rate=2.0), n_flows=5,
                       mean_size=200 * KBYTE, mean_deadline=None),
    "pdq_estimate": _fig3(_pdq(criticality_mode="estimate"), n_flows=5,
                          mean_size=200 * KBYTE, mean_deadline=None),
    "pdq_random": _fig3(_pdq(criticality_mode="random"), n_flows=5,
                        mean_size=200 * KBYTE),
}

def run(case: str) -> list:
    """One collector per input shape ``case`` runs, every ``allocate``
    certified (``run_flow_level`` builds its model by ``make_model``)."""
    with mock.patch.object(engines, "make_model",
                           lambda *a, **k: certified(make_model(*a, **k))):
        return CASES[case]()


def run_specs(sizes: str) -> list:
    """The materialised ``FlowSpec`` sequence of one size family."""
    topology = build_topology("single_rooted", {})
    stream = open_system(topology, 17, duration=0.05, rate_per_sec=20_000.0,
                         sizes=sizes, mean_size_bytes=30 * KBYTE,
                         size_scale=0.1, mean_deadline=3 * MSEC)
    return [stream.materialize()]


#: the ``fluid`` and ``specs`` families of ``tests/data/pins.json``
PINNED = {case: partial(run, case) for case in CASES}
SPECS_PINNED = {sizes: partial(run_specs, sizes)
                for sizes in ("vl2", "uniform", "pareto")}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fluid_digest_is_pinned(case):
    pins.assert_pinned("fluid", case, run(case))


@pytest.mark.parametrize("sizes", sorted(SPECS_PINNED))
def test_open_system_specs_are_pinned(sizes):
    pins.assert_pinned("specs", sizes, run_specs(sizes))
