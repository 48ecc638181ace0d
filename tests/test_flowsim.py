"""Tests for the flow-level (fluid) simulator and its rate models."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import PdqConfig
from repro.errors import SimulationError
from repro.flowsim import D3Model, FlowLevelSimulation, PdqModel, RcpModel
from repro.flowsim.certify import check_d3, check_max_min, check_pdq
from repro.flowsim.d3_model import _Shadow
from repro.flowsim.progress import FlowProgress
from repro.flowsim.rcp_model import max_min_rates
from repro.sched.optimal import max_ontime_subset, srpt_mean_fct
from repro.topology import SingleBottleneck, SingleRootedTree
from repro.units import GBPS, KBYTE, MBYTE, MSEC
from repro.workload.flow import FlowSpec


def _progress(fid, path, max_rate=1 * GBPS, size=100 * KBYTE, **spec):
    spec = FlowSpec(fid=fid, src="a", dst="b", size_bytes=size, **spec)
    return FlowProgress(spec, path, max_rate, rtt=150e-6,
                        wire_size=float(size), transfer_start=0.0)


class TestMaxMinRates:
    def test_single_bottleneck_even_split(self):
        caps = {("a", "b"): 1 * GBPS}
        flows = [_progress(i, [("a", "b")]) for i in range(4)]
        rates = max_min_rates(flows, caps)
        for rate in rates.values():
            assert rate == pytest.approx(0.25 * GBPS)

    def test_respects_flow_max_rate(self):
        caps = {("a", "b"): 1 * GBPS}
        flows = [
            _progress(0, [("a", "b")], max_rate=0.1 * GBPS),
            _progress(1, [("a", "b")]),
        ]
        rates = max_min_rates(flows, caps)
        assert rates[0] == pytest.approx(0.1 * GBPS)
        assert rates[1] == pytest.approx(0.9 * GBPS)

    def test_multi_bottleneck(self):
        # classic: flow A on links 1+2, flow B on link 1, flow C on link 2
        caps = {("x", "y"): 1 * GBPS, ("y", "z"): 1 * GBPS}
        a = _progress(0, [("x", "y"), ("y", "z")])
        b = _progress(1, [("x", "y")])
        c = _progress(2, [("y", "z")])
        rates = max_min_rates([a, b, c], caps)
        assert rates[0] == pytest.approx(0.5 * GBPS, rel=1e-6)
        assert rates[1] == pytest.approx(0.5 * GBPS, rel=1e-6)
        assert rates[2] == pytest.approx(0.5 * GBPS, rel=1e-6)

    @given(st.lists(st.floats(min_value=1e6, max_value=1e9), min_size=1,
                    max_size=12))
    @settings(max_examples=50)
    def test_property_no_link_oversubscribed(self, max_rates):
        caps = {("a", "b"): 1 * GBPS, ("b", "c"): 0.5 * GBPS}
        flows = [
            _progress(i, [("a", "b"), ("b", "c")], max_rate=m)
            for i, m in enumerate(max_rates)
        ]
        check_max_min(flows, caps, max_min_rates(flows, caps))


def _random_allocation_case(seed):
    """1-16 flows on random simple 2-6-edge paths over 3-8 edges of
    mixed capacity (every third case has a fault-down, zero-capacity
    edge). Max rates are the path's bottleneck or well under it, so
    rounds that cap several flows of different headroom on a shared
    edge -- where the order of subtraction shows in the last bits --
    do occur. Every fourth flow carries a deadline (for D3)."""
    rng = random.Random(seed)
    caps = [rng.choice([1 * GBPS, 10 * GBPS, 0.1 * GBPS,
                        rng.uniform(1e6, 1e10)])
            for _ in range(rng.randint(3, 8))]
    if seed % 3 == 0:
        caps[rng.randrange(len(caps))] = 0.0
    flows = []
    for fid in rng.sample(range(100_000), rng.randint(1, 16)):
        path = rng.sample(range(len(caps)),
                          rng.randint(2, min(6, len(caps))))
        max_rate = rng.choice([min(caps[e] for e in path),
                               rng.uniform(1e5, 1e9),
                               rng.uniform(1e5, 1e9)])
        spec = FlowSpec(fid=fid, src="a", dst="b", size_bytes=100 * KBYTE,
                        arrival=rng.choice([0.0, 1 * MSEC]),
                        deadline=rng.choice([None, None, None, 20 * MSEC]))
        flows.append(FlowProgress(spec, path, max_rate, rtt=150e-6,
                                  wire_size=float(100 * KBYTE),
                                  transfer_start=0.0))
    return flows, caps


class TestMaxMinAgainstReference:
    """The reference is the definition: every answer is feasible, and
    every flow below its cap crosses a saturated edge on which no flow
    is faster -- the condition that characterises max-min fairness."""

    @pytest.mark.parametrize("block", range(8))
    def test_certified_for_both_capacity_shapes(self, block):
        for seed in range(block * 250, (block + 1) * 250):
            flows, caps = _random_allocation_case(seed)
            answers = []
            for capacities in (caps, dict(enumerate(caps))):
                untouched = capacities.copy()
                answers.append(max_min_rates(flows, capacities))
                assert capacities == untouched, seed
                check_max_min(flows, capacities, answers[-1])
            assert answers[0] == answers[1], seed

    def test_max_min_certificate(self):
        """The same condition checked inline, apart from
        :func:`check_max_min`, so a fault in the certifier cannot hide
        one in the allocator."""
        for seed in range(500):
            flows, caps = _random_allocation_case(seed)
            rates = max_min_rates(flows, caps)
            slack = 1e-6 * max(caps)
            load = [0.0] * len(caps)
            fastest = [0.0] * len(caps)
            for flow in flows:
                for edge in flow.path:
                    load[edge] += rates[flow.fid]
                    fastest[edge] = max(fastest[edge], rates[flow.fid])
            for edge, cap in enumerate(caps):
                assert load[edge] <= cap + slack, (seed, edge)
            for flow in flows:
                rate = rates[flow.fid]
                assert rate <= flow.max_rate
                if rate == flow.max_rate:
                    continue
                assert any(
                    load[edge] >= caps[edge] - slack
                    and rate >= fastest[edge] - slack
                    for edge in flow.path
                ), (seed, flow.fid)

    def test_d3_certificate(self):
        for seed in range(500):
            flows, caps = _random_allocation_case(seed)
            check_d3(flows, caps, 2 * MSEC,
                     D3Model().allocate(flows, caps, now=2 * MSEC))

    def test_pdq_certificate(self):
        """The §3 greedy under the crumb rule, flow by flow (event-driven
        calls are certified in test_pdq_event_driven's engine runs)."""
        for seed in range(500):
            flows, caps = _random_allocation_case(seed)
            # a flow pinned over a down edge has no rate to be keyed on
            flows = [f for f in flows if f.max_rate > 0]
            model = PdqModel()
            rates = model.allocate(flows, caps, 0.0)
            check_pdq(model, flows, caps, 0.0, rates)

    def test_certificate_rejects_filling_without_the_capped_freeze(self):
        # no flow freezes at its cap; rates are clipped to caps after:
        # feasible, but what a capped flow leaves is never handed on
        rejected = 0
        for seed in range(200):
            flows, caps = _random_allocation_case(seed)
            right = max_min_rates(flows, caps)
            uncapped = max_min_rates([_Shadow(f, math.inf) for f in flows],
                                     caps)
            wrong = {f.fid: min(uncapped[f.fid], f.max_rate) for f in flows}
            if all(math.isclose(wrong[fid], rate, rel_tol=1e-9)
                   for fid, rate in right.items()):
                check_max_min(flows, caps, wrong)
                continue
            with pytest.raises(SimulationError, match="no bottleneck edge"):
                check_max_min(flows, caps, wrong)
            rejected += 1
        assert rejected >= 40  # 44 of the 200 cases lose capacity


class TestCertificatesReject:
    """Hand-built bad answers: each certificate raises and names the
    flow or the edge at fault."""

    LINK = ("a", "b")

    @pytest.mark.parametrize("rates,match", [
        ({0: 0.6 * GBPS, 1: 0.3 * GBPS}, r"flow 0 .*outside \[0, max_rate"),
        ({0: 0.5 * GBPS, 1: 0.6 * GBPS}, r"edge \('a', 'b'\) carries"),
        ({0: 0.4 * GBPS, 1: 0.4 * GBPS},
         r"flow 0 .*no bottleneck edge \(\('a', 'b'\): load"),
    ], ids=["flow_over_its_cap", "edge_over_capacity", "no_bottleneck"])
    def test_max_min(self, rates, match):
        flows = [_progress(0, [self.LINK], max_rate=0.5 * GBPS),
                 _progress(1, [self.LINK])]
        with pytest.raises(SimulationError, match=match):
            check_max_min(flows, {self.LINK: 1 * GBPS}, rates)

    def test_d3_reservation_out_of_arrival_order(self):
        # the later arrival reserved first: the early flow is left
        # below its own reservation
        flows = [_progress(fid, [self.LINK], size=MBYTE, deadline=10 * MSEC,
                           arrival=arrival)
                 for fid, arrival in ((3, 0.0), (4, 1 * MSEC))]
        caps = {self.LINK: 1 * GBPS}
        right = D3Model().allocate(flows, caps, now=2 * MSEC)
        check_d3(flows, caps, 2 * MSEC, right)
        assert right[3] > right[4]
        with pytest.raises(SimulationError, match=r"flow 3 .*outside"):
            check_d3(flows, caps, 2 * MSEC, {3: right[4], 4: right[3]})

    def test_pdq_rate_one_ulp_off(self):
        model = PdqModel()
        small = _progress(0, [self.LINK], size=10 * KBYTE,
                          max_rate=0.6 * GBPS)
        big = _progress(1, [self.LINK], size=1 * MBYTE)
        caps = {self.LINK: 1 * GBPS}
        rates = model.allocate([small, big], caps, now=0.0)
        check_pdq(model, [small, big], caps, 0.0, rates)
        rates[1] = math.nextafter(rates[1], math.inf)
        with pytest.raises(SimulationError,
                           match=r"flow 1 .*on edge \('a', 'b'\)"):
            check_pdq(model, [small, big], caps, 0.0, rates)


class TestPdqModel:
    def test_most_critical_gets_full_rate(self):
        caps = {("a", "b"): 1 * GBPS}
        small = _progress(0, [("a", "b")], size=10 * KBYTE)
        big = _progress(1, [("a", "b")], size=1 * MBYTE)
        rates = PdqModel().allocate([big, small], caps, now=0.0)
        assert rates[0] == pytest.approx(1 * GBPS)
        assert rates[1] == 0.0

    def test_deadline_beats_size(self):
        caps = {("a", "b"): 1 * GBPS}
        sized = _progress(0, [("a", "b")], size=10 * KBYTE)
        urgent = _progress(1, [("a", "b")], size=MBYTE, deadline=5 * MSEC)
        rates = PdqModel().allocate([sized, urgent], caps, now=0.0)
        assert rates[1] == pytest.approx(1 * GBPS)
        assert rates[0] == 0.0

    def test_crumb_rule_pauses_sliver_grants(self):
        caps = {("a", "b"): 1 * GBPS}
        a = _progress(0, [("a", "b")], size=10 * KBYTE,
                      max_rate=0.99 * GBPS)
        b = _progress(1, [("a", "b")], size=1 * MBYTE)
        rates = PdqModel().allocate([a, b], caps, now=0.0)
        assert rates[1] == 0.0  # 1% residual is a crumb, pause

    def test_et_terminates_hopeless_deadline_flow(self):
        caps = {("a", "b"): 1 * GBPS}
        flow = _progress(0, [("a", "b")], size=10 * MBYTE, deadline=1 * MSEC)
        model = PdqModel()
        rates = model.allocate([flow], caps, now=0.0)
        doomed = model.terminations([flow], rates, now=0.0)
        assert doomed and doomed[0][0] == 0

    def test_aging_promotes_long_waiting_flow(self):
        config_rates = []
        caps = {("a", "b"): 1 * GBPS}
        for aging in (0.0, 5.0):
            small = _progress(0, [("a", "b")], size=10 * KBYTE)
            big = _progress(1, [("a", "b")], size=1 * MBYTE)
            big.waited = 1.0  # has waited 10 aging units
            model = PdqModel(PdqModel().config.with_(aging_rate=aging))
            rates = model.allocate([small, big], caps, now=0.0)
            config_rates.append(rates)
        assert config_rates[0][0] > 0  # no aging: small flow wins
        assert config_rates[1][1] > 0  # aging: the starved big flow wins


class TestD3Model:
    def test_matches_rcp_without_deadlines(self):
        caps = {("a", "b"): 1 * GBPS}
        flows = [_progress(i, [("a", "b")]) for i in range(3)]
        d3 = D3Model().allocate(flows, caps, now=0.0)
        rcp = RcpModel().allocate(flows, caps, now=0.0)
        for fid in d3:
            assert d3[fid] == pytest.approx(rcp[fid])

    def test_arrival_order_priority(self):
        caps = {("a", "b"): 1 * GBPS}
        flows = [_progress(0, [("a", "b")], size=2 * MBYTE,
                           deadline=20 * MSEC),
                 _progress(1, [("a", "b")], size=2 * MBYTE,
                           deadline=18 * MSEC, arrival=1 * MSEC)]
        rates = D3Model().allocate(flows, caps, now=2 * MSEC)
        # the earlier arrival reserves first even though the later flow has
        # the tighter deadline (Fig 1's criticism)
        assert rates[0] > rates[1]

    def test_quenching(self):
        flow = _progress(0, [("a", "b")], size=MBYTE, deadline=1 * MSEC)
        model = D3Model()
        doomed = model.terminations([flow], {}, now=2 * MSEC)
        assert doomed and "quenching" in doomed[0][1]


class TestFlowLevelEngine:
    def test_serial_sjf_completions(self):
        topo = SingleBottleneck(5)
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=1 * MBYTE + i * 1000) for i in range(5)]
        metrics = FlowLevelSimulation(topo, PdqModel()).run(flows)
        fcts = sorted(r.fct for r in metrics.all_records())
        # ~8.4ms serial spacing (wire bytes at 1Gbps)
        for i, fct in enumerate(fcts):
            assert fct == pytest.approx(0.0084 * (i + 1), rel=0.05)

    def test_rcp_flows_finish_together(self):
        topo = SingleBottleneck(3)
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=1 * MBYTE) for i in range(3)]
        metrics = FlowLevelSimulation(topo, RcpModel()).run(flows)
        fcts = [r.fct for r in metrics.all_records()]
        assert max(fcts) - min(fcts) < 1e-3

    def test_staggered_arrivals(self):
        topo = SingleBottleneck(2)
        flows = [
            FlowSpec(fid=0, src="send0", dst="recv", size_bytes=1 * MBYTE),
            FlowSpec(fid=1, src="send1", dst="recv", size_bytes=100 * KBYTE,
                     arrival=2 * MSEC),
        ]
        metrics = FlowLevelSimulation(topo, PdqModel()).run(flows)
        # the late short flow preempts: finishes ~1ms after its arrival
        assert metrics.record(1).fct < 2 * MSEC

    def test_deadline_metrics(self):
        topo = SingleBottleneck(2)
        flows = [
            FlowSpec(fid=0, src="send0", dst="recv", size_bytes=100 * KBYTE,
                     deadline=20 * MSEC),
            FlowSpec(fid=1, src="send1", dst="recv", size_bytes=10 * MBYTE,
                     deadline=5 * MSEC),  # hopeless
        ]
        metrics = FlowLevelSimulation(topo, PdqModel()).run(flows)
        assert metrics.record(0).met_deadline
        assert metrics.record(1).terminated
        assert metrics.application_throughput() == 0.5

    def test_header_overhead_modeled(self):
        topo = SingleBottleneck(1)
        flows = [FlowSpec(fid=0, src="send0", dst="recv",
                          size_bytes=1 * MBYTE)]
        fct_56 = FlowLevelSimulation(topo, PdqModel(), header_bytes=56).run(
            flows).record(0).fct
        fct_0 = FlowLevelSimulation(topo, PdqModel(), header_bytes=1).run(
            flows).record(0).fct
        assert fct_56 > fct_0

    def test_multihop_tree(self):
        topo = SingleRootedTree()
        flows = [FlowSpec(fid=i, src=f"h{i}", dst=f"h{(i + 3) % 12}",
                          size_bytes=100 * KBYTE) for i in range(12)]
        metrics = FlowLevelSimulation(topo, PdqModel()).run(flows)
        assert len(metrics.completed_records()) == 12


class TestCrossValidation:
    """Fig 8's packet-vs-flow-level agreement on small scenarios."""

    def test_pdq_serial_schedule_agrees(self):
        from repro.core.stack import PdqStack
        from repro.net.network import Network

        topo = SingleBottleneck(5)
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=1 * MBYTE + i * 1000) for i in range(5)]
        net = Network(topo, PdqStack())
        net.launch(flows)
        net.run_until_quiet(deadline=0.2)
        pkt = net.metrics.mean_fct()
        flow = FlowLevelSimulation(
            SingleBottleneck(5), PdqModel()
        ).run(flows).mean_fct()
        assert pkt == pytest.approx(flow, rel=0.10)

    def test_rcp_fair_share_agrees(self):
        from repro.net.network import Network
        from repro.transport import RcpStack

        topo = SingleBottleneck(3)
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=1 * MBYTE) for i in range(3)]
        net = Network(topo, RcpStack())
        net.launch(flows)
        net.run_until_quiet(deadline=0.3)
        pkt = net.metrics.mean_fct()
        flow = FlowLevelSimulation(
            SingleBottleneck(3), RcpModel(), header_bytes=44
        ).run(flows).mean_fct()
        assert pkt == pytest.approx(flow, rel=0.15)


def _pdq_on_one_bottleneck(flows, config):
    """Run ``flows`` (one sender each) through fluid PDQ on a single
    bottleneck. Returns the collector, each flow's ``(transfer_start,
    wire_size)`` as the engine admits it, and the start-up offset
    (``init_rtts`` round trips) that every flow shares."""
    engine = FlowLevelSimulation(SingleBottleneck(len(flows)),
                                 PdqModel(config))
    admitted = [engine._make_progress(spec) for spec in flows]
    (rtt,) = {p.rtt for p in admitted}
    shapes = [(p.transfer_start, p.wire_size) for p in admitted]
    return engine.run(flows), shapes, engine.init_rtts * rtt


class TestSchedulingOracles:
    """Fluid PDQ on one bottleneck against the single-machine optima of
    ``repro.sched.optimal`` (the paper's §2 argument)."""

    @given(st.lists(st.tuples(st.floats(0.0, 20 * MSEC),
                              st.integers(1 * KBYTE, 1 * MBYTE)),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_basic_without_deadlines_is_srpt(self, shapes):
        """With no deadlines the comparator orders by expected transfer
        time, so PDQ(Basic) is preemptive SRPT on (transfer start, wire
        bytes); every FCT also carries the shared start-up offset."""
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=size, arrival=arrival)
                 for i, (arrival, size) in enumerate(shapes)]
        metrics, admitted, offset = _pdq_on_one_bottleneck(
            flows, PdqConfig.basic())
        assert metrics.completed_count() == len(flows)
        assert metrics.mean_fct() == pytest.approx(
            srpt_mean_fct(admitted, 1 * GBPS) + offset, rel=1e-9)

    @given(st.lists(st.tuples(st.integers(1 * KBYTE, 500 * KBYTE),
                              st.floats(0.1 * MSEC, 10 * MSEC)),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_full_meets_at_most_moore_hodgson(self, shapes):
        """No schedule of one machine meets more deadlines than
        Moore-Hodgson's, and the start-up offset only delays PDQ."""
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=size, deadline=deadline)
                 for i, (size, deadline) in enumerate(shapes)]
        metrics, admitted, _ = _pdq_on_one_bottleneck(flows,
                                                      PdqConfig.full())
        jobs = [(wire * 8.0 / GBPS, spec.deadline)
                for (_, wire), spec in zip(admitted, flows, strict=True)]
        on_time = sum(r.met_deadline for r in metrics.all_records())
        assert on_time <= len(max_ontime_subset(jobs))

    def test_full_meets_moore_hodgson_when_edf_has_slack(self):
        """Four flows whose EDF schedule leaves each more slack than the
        start-up offset, and one that cannot finish even alone: PDQ(Full)
        meets the four and terminates the fifth, as Moore-Hodgson keeps
        the four."""
        sizes = [100 * KBYTE, 200 * KBYTE, 50 * KBYTE, 300 * KBYTE,
                 400 * KBYTE]
        deadlines = [2 * MSEC, 5 * MSEC, 6 * MSEC, 10 * MSEC, 1 * MSEC]
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv",
                          size_bytes=size, deadline=deadline)
                 for i, (size, deadline) in enumerate(zip(sizes, deadlines,
                                                          strict=True))]
        metrics, admitted, offset = _pdq_on_one_bottleneck(flows,
                                                           PdqConfig.full())
        jobs = [(wire * 8.0 / GBPS, spec.deadline)
                for (_, wire), spec in zip(admitted, flows, strict=True)]
        kept = max_ontime_subset(jobs)
        assert kept == [0, 1, 2, 3]
        elapsed = 0.0
        for i in sorted(kept, key=lambda i: jobs[i][1]):
            elapsed += jobs[i][0]
            assert jobs[i][1] - elapsed > offset
        met = [r.spec.fid for r in metrics.all_records() if r.met_deadline]
        assert met == kept
        assert metrics.record(4).terminated
