"""Golden parity: the optimized flow-level engine must produce
bit-identical MetricsCollector output to the frozen pre-optimization code
(engine *and* rate models) on small fig3/fig5/fig8-style grids and two
many-flow single-bottleneck cells.

``to_dict()`` equality compares every per-flow float exactly, so any
drift in the allocation arithmetic, event ordering, or completion-time
location fails these tests. Every case feeds the engine's one loop both
input shapes — the materialised list and a lazy ``FlowStream`` over the
same flows — and pins both to the reference.
"""

import pytest

from repro.core.config import PdqConfig
from repro.flowsim.d3_model import D3Model
from repro.flowsim.engine import FlowLevelSimulation
from repro.flowsim.naive import (
    NaiveFlowLevelSimulation,
    naive_model_for,
)
from repro.flowsim.pdq_model import PdqModel
from repro.flowsim.rcp_model import RcpModel
from repro.topology.single_bottleneck import SingleBottleneck
from repro.units import KBYTE, MSEC
from repro.utils.rng import spawn_rng
from repro.workload.arrivals import poisson_arrivals
from repro.workload.flow import FlowSpec
from repro.workload.sizes import uniform_sizes
from repro.workload.stream import FlowStream

# importing the figure modules registers their workload kinds
import repro.experiments.fig3  # noqa: F401
import repro.experiments.fig5  # noqa: F401
import repro.experiments.fig8  # noqa: F401
from repro.campaign.registry import build_topology, build_workload


def _as_stream(flows):
    return FlowStream(iter(sorted(flows, key=lambda s: s.arrival)))


def _run_both_built(build, model_factory, sim_deadline=4.0,
                    **engine_kwargs):
    """Run optimized and naive engines on ``build() -> (topology,
    flows)``; return the two metrics dicts. The optimized engine runs
    twice, over the list and over a lazy stream of it, and the two must
    agree bit for bit, so the one dict returned stands for both input
    shapes."""
    def run(engine_cls, wrap, shape):
        topology, flows = build()
        sim = engine_cls(topology, wrap(model_factory()), **engine_kwargs)
        return sim.run(shape(flows), deadline=sim_deadline).to_dict()

    opt = run(FlowLevelSimulation, lambda m: m, list)
    streamed = run(FlowLevelSimulation, lambda m: m, _as_stream)
    assert streamed == opt, "lazy FlowStream input diverged from the list"
    return opt, run(NaiveFlowLevelSimulation, naive_model_for, list)


def _run_both(topology_kind, topology_params, workload_kind, workload_params,
              model_factory, seed=1, sim_deadline=4.0, **engine_kwargs):
    """:func:`_run_both_built` on a registered topology/workload pair."""
    def build():
        topology = build_topology(topology_kind, topology_params)
        return topology, build_workload(workload_kind, topology, seed,
                                        workload_params)

    return _run_both_built(build, model_factory, sim_deadline,
                           **engine_kwargs)


FIG3_GRID = [
    # (model factory, n_flows, mean_deadline)
    (lambda: PdqModel(PdqConfig.full()), 6, 30 * MSEC),
    (lambda: PdqModel(PdqConfig.basic()), 6, 30 * MSEC),
    (lambda: PdqModel(PdqConfig.es_et()), 4, 20 * MSEC),
    (RcpModel, 5, None),
    (D3Model, 5, 25 * MSEC),
]


class TestFig3Parity:
    """Query aggregation on the 12-server single-rooted tree."""

    @pytest.mark.parametrize("idx", range(len(FIG3_GRID)))
    def test_bit_identical(self, idx):
        model_factory, n_flows, mean_deadline = FIG3_GRID[idx]
        opt, naive = _run_both(
            "single_rooted", {},
            "fig3.aggregation",
            {"n_flows": n_flows, "mean_size": 150 * KBYTE,
             "mean_deadline": mean_deadline},
            model_factory,
        )
        assert opt == naive


class TestFig5Parity:
    """Realistic VL2-style workload (poisson arrivals, mixed sizes)."""

    @pytest.mark.parametrize("protocol", ["pdq", "rcp", "d3"])
    def test_bit_identical(self, protocol):
        factory = {
            "pdq": lambda: PdqModel(PdqConfig.full()),
            "rcp": RcpModel,
            "d3": D3Model,
        }[protocol]
        opt, naive = _run_both(
            "single_rooted", {},
            "fig5.vl2",
            {"rate_per_sec": 120.0, "duration": 0.1,
             "mean_deadline": 20 * MSEC},
            factory,
            seed=2,
        )
        assert opt == naive


class TestFig8Parity:
    """Scale-sweep cells: permutation traffic on small fat-trees."""

    @pytest.mark.parametrize("protocol,seed", [
        ("pdq", 1), ("pdq", 3), ("rcp", 1),
    ])
    def test_permutation_bit_identical(self, protocol, seed):
        factory = {"pdq": lambda: PdqModel(PdqConfig.full()),
                   "rcp": RcpModel}[protocol]
        opt, naive = _run_both(
            "fattree", {"n_servers": 16},
            "fig8.permutation", {"flows_per_server": 2},
            factory,
            seed=seed,
        )
        assert opt == naive

    def test_random_pairs_deadlines_bit_identical(self):
        opt, naive = _run_both(
            "fattree", {"n_servers": 16},
            "fig8.random_pairs",
            {"n_flows": 24, "mean_deadline": 20 * MSEC},
            lambda: PdqModel(PdqConfig.full()),
        )
        assert opt == naive


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


class TestBottleneckParity:
    """Many flows contending for one link: far larger active sets than
    the figure grids above, so the incremental sort (PDQ) and the
    reservation sweep plus leftover max-min (D3) run long enough to
    drift if they are going to."""

    def test_pdq_poisson_bit_identical(self):
        opt, naive = _run_both_built(
            lambda: _bottleneck_flows(150, 40, 80 * KBYTE, "parity:pdq"),
            lambda: PdqModel(PdqConfig.full()),
            sim_deadline=30.0,
        )
        assert len(opt["records"]) == 150
        assert opt == naive

    def test_d3_deadlines_bit_identical(self):
        opt, naive = _run_both_built(
            lambda: _bottleneck_flows(
                80, 20, 60 * KBYTE, "parity:d3",
                deadline=lambda i: (20 + 5 * (i % 9)) * MSEC),
            D3Model,
            sim_deadline=30.0,
        )
        assert len(opt["records"]) == 80
        assert opt == naive


class TestAgingAndEstimateParity:
    """Time-varying keys (aging) and progress-derived criticality
    (estimate mode) force per-call key recomputation — the cache must
    not leak stale keys into either path."""

    def test_aging_bit_identical(self):
        opt, naive = _run_both(
            "single_rooted", {},
            "fig3.aggregation",
            {"n_flows": 5, "mean_size": 200 * KBYTE, "mean_deadline": None},
            lambda: PdqModel(PdqConfig.full(aging_rate=2.0)),
        )
        assert opt == naive

    def test_estimate_mode_bit_identical(self):
        opt, naive = _run_both(
            "single_rooted", {},
            "fig3.aggregation",
            {"n_flows": 5, "mean_size": 200 * KBYTE, "mean_deadline": None},
            lambda: PdqModel(PdqConfig.full(criticality_mode="estimate")),
        )
        assert opt == naive

    def test_random_mode_bit_identical(self):
        opt, naive = _run_both(
            "single_rooted", {},
            "fig3.aggregation",
            {"n_flows": 5, "mean_size": 200 * KBYTE,
             "mean_deadline": 30 * MSEC},
            lambda: PdqModel(PdqConfig.full(criticality_mode="random")),
        )
        assert opt == naive
