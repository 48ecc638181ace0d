"""Event-driven ``PdqModel``: incremental answers equal a from-scratch
pass at every epoch, the §3 centralized algorithm is its oracle, and the
engine honours the sparse rates dict it returns.

The model under the engine's ``begin_run()`` contract evaluates only new
flows, woken parked flows and the senders behind a rate change, and
inspects only flows inside their Early-Termination watch window. Every
check here is pure equality against the stateless full pass (a fresh
``PdqModel`` given the same flows) — no timing.
"""

import random
from dataclasses import replace
from itertools import combinations
from math import inf, nextafter

import pytest

from repro.campaign.registry import build_topology, build_workload
from repro.core.comparator import FlowComparator
from repro.core.config import PdqConfig
from repro.faults import FaultEvent
from repro.flowsim.certify import check_pdq, pdq_greedy
from repro.flowsim.engine import FlowLevelSimulation
from repro.flowsim.pdq_model import PdqModel
from repro.flowsim.progress import FlowProgress
from repro.metrics.collector import MetricsCollector
from repro.obs import FlowTracer
from repro.topology.base import Topology
from repro.topology.fattree import FatTree
from repro.topology.random_graph import RandomGraph
from repro.topology.single_bottleneck import SingleBottleneck
from repro.topology.single_rooted import SingleRootedTree
from repro.units import GBPS, KBYTE, MSEC
from repro.workload.flow import FlowSpec


class CheckedPdqModel(PdqModel):
    """A ``PdqModel`` that certifies each answer and re-derives it from
    scratch."""

    def __init__(self, config=None, comparator=None):
        super().__init__(config, comparator)
        self.calls = 0
        self.offered = 0
        self.shared_departures = 0

    def allocate(self, flows, capacities, now):
        gone = [s.flow.path for s in self._senders if s.flow.departed]
        # two departing senders on one edge: one crossing list loses
        # several records in this call
        self.shared_departures += any(
            set(a).intersection(b) for a, b in combinations(gone, 2))
        evaluated = self.evaluated
        rates = super().allocate(flows, capacities, now)
        # the answer names exactly the flows whose rate was computed
        assert self.evaluated - evaluated == len(rates)
        # each edge's crossing list is its senders, in key order
        crossing = {}
        for sender in self._senders:
            for edge in sender.flow.path:
                crossing.setdefault(edge, []).append(sender)
        assert {edge: line for edge, line in self._crossing.items()
                if line} == crossing
        check_pdq(self, flows, capacities, now, rates)
        full = PdqModel(self.config, self.comparator).allocate(
            flows, capacities, now)
        assert len(full) == len(flows)
        for flow in flows:
            # absent = unchanged: the rate the engine holds is the answer
            assert rates.get(flow.fid, flow.rate) == full[flow.fid], \
                (flow.fid, now, self.calls)
        # and the sender records hold exactly the full pass's senders
        assert {s.flow.fid: s.rate for s in self._senders} == {
            fid: rate for fid, rate in full.items() if rate > 0}
        self.calls += 1
        self.offered += len(flows)
        self._full = full
        return rates

    def terminations(self, flows, rates, now):
        doomed = super().terminations(flows, rates, now)
        # the full scan, reading the full pass's own rates
        assert doomed == PdqModel(self.config).terminations(
            flows, self._full, now)
        return doomed


def _mixed_sizes(rng, n, elephant=True):
    """Heavy-tailed mix: mostly mice, a few large, one elephant."""
    sizes = [int(rng.choice((2, 5, 20, 60, 300)) * KBYTE * rng.uniform(0.5, 1.5))
             for _ in range(n)]
    if elephant:
        sizes[rng.randrange(n)] = 40_000 * KBYTE
    return sizes


def _flows(topology, rng, n, *, poisson, deadlines, elephant=True):
    hosts = topology.hosts
    sizes = _mixed_sizes(rng, n, elephant)
    flows = []
    t = 0.0
    for fid in range(n):
        src, dst = rng.sample(hosts, 2)
        if poisson:
            t += rng.expovariate(n / (6 * MSEC))
        deadline = None
        if deadlines and rng.random() < 0.7:
            deadline = rng.uniform(1 * MSEC, 25 * MSEC)
        flows.append(FlowSpec(fid=fid, src=src, dst=dst,
                              size_bytes=sizes[fid], arrival=t,
                              deadline=deadline))
    return flows


def _skew_rates(topology, rng):
    """Heterogeneous link rates, so floors differ per flow."""
    for _, _, data in sorted(topology.graph.edges(data=True),
                             key=lambda e: e[:2]):
        data["rate_bps"] = rng.choice((0.5, 1.0, 1.0, 2.5, 10.0)) * GBPS


TOPOLOGIES = {
    "fattree": lambda seed: FatTree.for_servers(16),
    "single_rooted": lambda seed: SingleRootedTree(),
    "random_graph": lambda seed: RandomGraph(8, mean_degree=3.0, seed=seed),
}


def _run_checked(topology, flows, config, faults=None, deadline=2.0,
                 comparator=None):
    model = CheckedPdqModel(config, comparator)
    sim = FlowLevelSimulation(topology, model, faults=faults)
    collector = sim.run(flows, deadline=deadline)
    assert model.calls > 0
    return sim, model, collector


class TestIncrementalEqualsFromScratch:
    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("poisson", [False, True])
    @pytest.mark.parametrize("deadlines", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_epoch(self, kind, poisson, deadlines, seed):
        rng = random.Random(f"{kind}/{poisson}/{deadlines}/{seed}")
        topology = TOPOLOGIES[kind](seed)
        if seed != 1:
            _skew_rates(topology, rng)
        flows = _flows(topology, rng, 90, poisson=poisson,
                       deadlines=deadlines)
        config = PdqConfig.full(early_termination=(seed != 2))
        sim, model, collector = _run_checked(topology, flows, config)
        assert collector.unfinished_count() == 0
        # the point of the exercise: most offered flows were not evaluated
        assert model.evaluated < model.offered

    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_shared_deadline(self, kind, seed):
        """Every flow has the same absolute deadline, so keys order by
        ``expected_tx`` alone: senders overtake each other often, and
        each overtaking call rebuilds the crossing lists."""
        rng = random.Random(f"shared/{kind}/{seed}")
        topology = TOPOLOGIES[kind](seed)
        _skew_rates(topology, rng)
        flows = [replace(spec, deadline=30 * MSEC)
                 for spec in _flows(topology, rng, 90, poisson=False,
                                    deadlines=False, elephant=False)]
        sim, model, collector = _run_checked(topology, flows,
                                             PdqConfig.full())
        assert model.reorder_wakes > 2
        assert collector.unfinished_count() == 0

    def test_senders_on_one_edge_depart_together(self):
        """Equal sizes started together: several senders on one edge
        finish in the same advance, so one call unlinks several records
        from one crossing list and re-evaluates the ones behind them."""
        shared = 0
        for seed in range(1, 5):
            rng = random.Random(f"together/{seed}")
            topology = FatTree.for_servers(16)
            _skew_rates(topology, rng)
            hosts = topology.hosts
            flows = []
            for fid in range(60):
                src, dst = rng.sample(hosts, 2)
                flows.append(FlowSpec(
                    fid=fid, src=src, dst=dst, arrival=0.0,
                    size_bytes=rng.choice((50, 50, 200)) * KBYTE))
            sim, model, collector = _run_checked(topology, flows,
                                                 PdqConfig.full())
            assert model.reparked > 0
            assert collector.completed_count() == len(flows)
            shared += model.shared_departures
        assert shared > 0

    def test_departures_ahead_of_a_partial_sender(self):
        """Four equal flows fill four of a 4.5G edge's gigabits and
        depart in one advance; the partial-rate sender behind them on
        that edge sits after four departed records of its crossing
        list, and the flows parked behind them all wake."""
        topology = Topology()
        topology.add_switch("s1")
        topology.add_switch("s2")
        topology.add_link("s1", "s2", 4.5 * GBPS)
        for i in range(6):
            topology.add_host(f"a{i}")
            topology.add_host(f"d{i}")
            topology.add_link(f"a{i}", "s1", 1 * GBPS)
            topology.add_link("s2", f"d{i}", 1 * GBPS)
        flows = [FlowSpec(fid=i, src=f"a{i}", dst=f"d{i}", arrival=0.0,
                          size_bytes=100 * KBYTE) for i in range(4)]
        flows += [FlowSpec(fid=4 + i, src=f"a{4 + i}", dst=f"d{4 + i}",
                           arrival=0.0, size_bytes=(300 + 100 * i) * KBYTE)
                  for i in range(2)]
        flows += [FlowSpec(fid=6 + i, src=f"a{i}", dst=f"d{(i + 1) % 4}",
                           arrival=0.0, size_bytes=150 * KBYTE)
                  for i in range(4)]
        sim, model, collector = _run_checked(topology, flows,
                                             PdqConfig.full())
        assert model.shared_departures > 0
        assert collector.completed_count() == len(flows)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_fault_epoch_mid_run(self, seed):
        rng = random.Random(seed)
        topology = FatTree.for_servers(16)
        flows = _flows(topology, rng, 80, poisson=(seed % 2 == 0),
                       deadlines=(seed > 2), elephant=False)
        faults = (FaultEvent(0.8 * MSEC, "link_down", "agg0_0", "core0_0"),
                  FaultEvent(2.5 * MSEC, "switch_down", "agg1_1"),
                  FaultEvent(4.0 * MSEC, "link_up", "agg0_0", "core0_0"))
        sim, model, collector = _run_checked(
            topology, flows, PdqConfig.full(), faults=faults)
        assert sim.fault_reroutes > 0
        assert collector.unfinished_count() == 0

    @pytest.mark.parametrize("seed", [15, 18, 22])
    def test_mice_paused_near_their_deadline(self, seed):
        """Flows whose ``rtt`` exceeds their ``expected_tx``: the watch
        bound must cover the paused-near-deadline test as well."""
        rng = random.Random(seed)
        topology = SingleBottleneck(12)
        flows = []
        t = 0.0
        for fid in range(150):
            t += rng.expovariate(150 / (8 * MSEC))
            big = rng.random() < 0.15
            flows.append(FlowSpec(
                fid=fid, src=f"send{rng.randrange(12)}", dst="recv",
                arrival=t,
                size_bytes=int((150 if big else rng.uniform(1, 4)) * KBYTE),
                deadline=(rng.uniform(1.2, 3.0) if big
                          else rng.uniform(0.3, 2.5)) * MSEC))
        sim, model, collector = _run_checked(topology, flows,
                                             PdqConfig.full())
        assert any(r.termination_reason.endswith("paused_near_deadline")
                   for r in collector.all_records())

    def test_dynamic_keys_stay_full_passes(self):
        """Aging keys move with time: every call evaluates every flow."""
        rng = random.Random(7)
        topology = SingleRootedTree()
        flows = _flows(topology, rng, 40, poisson=True, deadlines=False,
                       elephant=False)
        sim, model, _ = _run_checked(
            topology, flows, PdqConfig.full(aging_rate=1.0))
        assert model.evaluated == model.offered

    def test_sender_reorder_wakes_everything(self):
        """A partial-rate sender overtaken in key order by a full-rate
        one on a shared edge: subtraction order on that edge changes, so
        the parked flows' monotonicity argument is void and the call
        falls back to a full pass."""
        topology = Topology()
        for host in ("hc", "ha", "hb", "hd", "dc", "da", "db", "dd"):
            topology.add_host(host)
        for switch in ("s1", "s2", "s3"):
            topology.add_switch(switch)
        topology.add_link("hc", "s1", 0.6 * GBPS)
        topology.add_link("ha", "s1", 1 * GBPS)
        topology.add_link("hd", "s1", 1 * GBPS)
        topology.add_link("s1", "s2", 1 * GBPS)   # C and A share it
        topology.add_link("hb", "s2", 1 * GBPS)
        topology.add_link("s2", "s3", 10 * GBPS)  # A and B share it
        for dst in ("dc", "da", "db", "dd"):
            topology.add_link("s3", dst, 1 * GBPS)

        def size_for(tx_ms, rate):
            return int(tx_ms * MSEC * rate / 8)

        flows = [
            # C: most critical, capped at 0.6G by its own access link
            FlowSpec(fid=0, src="hc", dst="dc", arrival=0.0,
                     size_bytes=size_for(9, 0.6 * GBPS)),
            # A: takes the 0.4G C leaves on s1-s2 (partial rate)
            FlowSpec(fid=1, src="ha", dst="da", arrival=0.0,
                     size_bytes=size_for(10, 1 * GBPS)),
            # B: full rate, starts behind A and shrinks 2.5x faster
            FlowSpec(fid=2, src="hb", dst="db", arrival=0.0,
                     size_bytes=size_for(11, 1 * GBPS)),
            # D: parked behind A on s1-s2 for the whole episode
            FlowSpec(fid=3, src="hd", dst="dd", arrival=0.0,
                     size_bytes=size_for(30, 1 * GBPS)),
        ]
        sim, model, collector = _run_checked(topology, flows,
                                             PdqConfig.full())
        assert model.reorder_wakes >= 1
        assert collector.completed_count() == 4

    def test_reorder_moves_a_residuals_last_bits(self):
        """Why the fallback exists: ``(cap - ra) - rb`` and ``(cap - rb)
        - ra`` differ in the last bit, and a parked flow whose floor sits
        between the two must be re-evaluated when A and B swap."""
        rng = random.Random(1)
        while True:
            cap = rng.uniform(5e9, 2e10)
            ra = rng.uniform(2e8, 9e8)
            rb = rng.uniform(1e9, 2e9)
            a_first, b_first = (cap - ra) - rb, (cap - rb) - ra
            if not a_first < b_first:
                continue
            # P's max_rate such that its crumb floor is exactly b_first
            max_rate = b_first / 0.05
            for _ in range(8):
                if 0.05 * max_rate == b_first:
                    break
                max_rate = nextafter(
                    max_rate, inf if 0.05 * max_rate < b_first else -inf)
            else:
                continue
            break
        capacities = {"a": ra, "b": rb, "e": cap}

        def flow(fid, path, rate, tx):
            spec = FlowSpec(fid=fid, src="x", dst="y", arrival=0.0,
                            size_bytes=1)
            return FlowProgress(spec, path, rate, rtt=1e-4,
                                wire_size=tx * rate / 8.0,
                                transfer_start=0.0)

        a = flow(1, ("a", "e"), 1e9, 10 * MSEC)        # partial: ra < 1G
        b = flow(2, ("b", "e"), rb, 11 * MSEC)         # full rate
        p = flow(3, ("e",), max_rate, 50 * MSEC)
        flows = [a, b, p]
        model = PdqModel(PdqConfig.full())
        model.begin_run()
        first = model.allocate(flows, capacities, 0.0)
        assert first == {1: ra, 2: rb, 3: 0.0}
        for sender in (a, b):                          # B overtakes A
            sender.remaining_wire -= first[sender.fid] * 8 * MSEC / 8.0
        assert b.expected_tx() < a.expected_tx()
        second = model.allocate(flows, capacities, 8 * MSEC)
        assert model.reorder_wakes == 1
        assert second == PdqModel(PdqConfig.full()).allocate(
            flows, capacities, 8 * MSEC)
        assert second[3] == b_first > a_first

    def test_a_key_that_grows_wakes_everything(self):
        """A custom comparator may let a sender's key grow with progress
        (here: longest remaining first), moving it behind parked flows."""
        class LongestFirst(FlowComparator):
            def key(self, fid, deadline, expected_tx, criticality=None):
                return (0.0, -expected_tx, fid)

        topology = SingleBottleneck(5)
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv", arrival=0.0,
                          size_bytes=(i + 2) * 100 * KBYTE) for i in range(5)]
        sim, model, collector = _run_checked(
            topology, flows, PdqConfig.full(), comparator=LongestFirst())
        assert model.reorder_wakes > 0
        assert collector.completed_count() == 5

    def test_benign_runs_never_reorder(self):
        """On one bottleneck the single sender cannot be reordered."""
        topology = SingleBottleneck(6)
        flows = [FlowSpec(fid=i, src=f"send{i}", dst="recv", arrival=0.0,
                          size_bytes=(i + 1) * 50 * KBYTE) for i in range(6)]
        sim, model, _ = _run_checked(topology, flows, PdqConfig.full())
        assert model.reorder_wakes == 0
        assert model.evaluated < model.offered


class TestWorkCounters:
    def test_a_call_evaluates_fewer_flows_than_it_has_senders(self):
        """Host-free work on a fat-tree permutation batch with deadlines:
        a call computes fewer rates than there are senders (a pass over
        every sender and every woken flow computed about 1.8x as many),
        and the blocker check sends woken flows back unevaluated."""
        topology = build_topology("fattree", {"n_servers": 54})
        flows = build_workload("fig8.permutation", topology, 1, {
            "flows_per_server": 8, "mean_deadline": 40 * MSEC})

        class Counting(PdqModel):
            senders = 0

            def allocate(self, flows, capacities, now):
                rates = super().allocate(flows, capacities, now)
                self.senders += sum(rates.get(flow.fid, flow.rate) > 0
                                    for flow in flows)
                return rates

        model = Counting(PdqConfig.full())
        sim = FlowLevelSimulation(topology, model)
        collector = sim.run(flows, deadline=10.0)
        assert sim.recomputations > len(flows) // 2
        assert any(r.termination_reason for r in collector.all_records())
        assert model.evaluated < model.senders
        assert model.reparked > 0


class TestAgingCountsThePauseOnce:
    def test_paused_flow_advertises_the_configured_decay(self):
        """§7 aging: a flow paused for ``t`` advertises ``expected_tx /
        2^(aging_rate * t / aging_time_unit)`` — while paused and after
        it resumes — exactly like the packet-level ``PdqSender``. (The
        engine used to add every advance's ``dt`` to ``waited`` on top of
        the ``paused_since`` span, ageing flows at twice the rate.)"""
        config = PdqConfig.full(aging_rate=1.0)

        class Recording(PdqModel):
            log = []

            def allocate(self, flows, capacities, now):
                rates = super().allocate(flows, capacities, now)
                for flow in flows:
                    if flow.fid == 1:
                        self.log.append((
                            now, rates[1], flow.expected_tx(),
                            self._aged_expected_tx(flow, now)))
                return rates

        topology = SingleBottleneck(2)
        flows = [
            FlowSpec(fid=0, src="send0", dst="recv", arrival=0.0,
                     size_bytes=1000 * KBYTE),
            FlowSpec(fid=1, src="send1", dst="recv", arrival=0.0,
                     size_bytes=3000 * KBYTE),
        ]
        model = Recording(config)
        FlowLevelSimulation(topology, model).run(flows, deadline=2.0)
        pause_start = model.log[0][0]
        paused = [row for row in model.log if row[1] == 0.0]
        sending = [row for row in model.log if row[1] > 0.0]
        assert len(paused) > 5 and len(sending) > 5
        resumed_at = sending[0][0]

        def decayed(expected_tx, waited):
            units = waited / config.aging_time_unit
            return expected_tx / 2.0 ** (config.aging_rate * units)

        for now, _, expected_tx, advertised in paused:
            assert advertised == pytest.approx(
                decayed(expected_tx, now - pause_start), rel=1e-12)
        for now, _, expected_tx, advertised in sending[1:]:
            assert advertised == pytest.approx(
                decayed(expected_tx, resumed_at - pause_start), rel=1e-12)
        assert resumed_at - pause_start > 5 * MSEC


class TestCentralizedOracle:
    """The paper's §3 algorithm in its textbook order, ``(expected_tx,
    fid)`` with floor 0 (``certify.pdq_greedy``), is the oracle: with the
    crumb rule off, no deadlines and no aging, ``PdqModel.allocate``
    equals it exactly. The order is given here, not read from
    ``PdqModel._key``."""

    CONFIG = PdqConfig.full(crumb_fraction=0.0, min_rate=0.0)

    @staticmethod
    def _case(seed):
        rng = random.Random(seed)
        edges = [("n", str(i)) for i in range(rng.randint(3, 8))]
        capacities = {
            edge: rng.choice((0.1, 1.0, 1.0, 2.5, 10.0)) * GBPS * rng.random()
            for edge in edges
        }
        flows = []
        for fid in range(rng.randint(1, 16)):
            path = rng.sample(edges, rng.randint(1, min(4, len(edges))))
            max_rate = min(capacities[e] for e in path) * rng.choice(
                (1.0, 1.0, 0.5, 0.01))
            spec = FlowSpec(fid=fid, src="x", dst="y", arrival=0.0,
                            size_bytes=rng.randint(1, 2000) * KBYTE)
            flows.append(FlowProgress(
                spec, path, max_rate, rtt=1e-4,
                wire_size=float(spec.size_bytes), transfer_start=0.0))
        return rng, flows, capacities

    @staticmethod
    def _oracle(flows, capacities):
        return {grant.flow.fid: grant.rate for grant in pdq_greedy(
            flows, capacities, key=lambda f: (f.expected_tx(), f.fid))}

    def test_first_call_equals_the_textbook_algorithm(self):
        for seed in range(500):
            _, flows, capacities = self._case(seed)
            assert PdqModel(self.CONFIG).allocate(flows, capacities, 0.0) \
                == self._oracle(flows, capacities), seed

    def test_incremental_calls_equal_the_textbook_algorithm(self):
        evaluated = offered = 0
        for seed in range(500):
            rng, flows, capacities = self._case(seed)
            model = PdqModel(self.CONFIG)
            model.begin_run()
            rates = dict.fromkeys((f.fid for f in flows), 0.0)
            for step in range(6):
                answer = model.allocate(flows, capacities, step * MSEC)
                evaluated += len(answer)
                offered += len(flows)
                rates.update(answer)
                assert rates == self._oracle(flows, capacities), (seed, step)
                # some senders progress, some depart
                dt = rng.uniform(0.01, 2.0) * MSEC
                for flow in flows:
                    rate = rates[flow.fid]
                    if rate > 0 and rng.random() < 0.8:
                        flow.remaining_wire -= rate * dt / 8.0
                        if flow.remaining_wire <= 1e-6 or rng.random() < 0.1:
                            flow.departed = True
                            del rates[flow.fid]
                flows = [f for f in flows if not f.departed]
                if not flows:
                    break
        assert evaluated < offered


class _SubsetModel:
    """Rate model stub answering for the flows it is told to."""

    name = "stub"

    def __init__(self, script):
        self.script = script  # one {fid: rate} per allocate call
        self.calls = 0

    def allocate(self, flows, capacities, now):
        answer = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        live = {flow.fid for flow in flows}
        return {fid: rate for fid, rate in answer.items() if fid in live}

    def terminations(self, flows, rates, now):
        return []


class TestSparseRatesContract:
    def _senders(self, sizes):
        return [FlowSpec(fid=i, src=f"send{i}", dst="recv", arrival=0.0,
                         size_bytes=size) for i, size in enumerate(sizes)]

    def test_absent_flows_are_not_touched(self):
        """``_apply_rates`` visits only the entries the model returned."""
        topology = SingleBottleneck(3)
        model = _SubsetModel([
            {0: 0.4 * GBPS, 1: 0.0, 2: 0.3 * GBPS},
            {0: 0.5 * GBPS},        # 1 stays paused, 2 keeps 0.3G
        ])
        sim = FlowLevelSimulation(topology, model)
        seen = []

        class Sampler:
            def on_step(self, sim, active):
                seen.append({f.fid: (f.rate, f.paused_since, f.eta_version)
                             for f in active})

        sim.samplers.append(Sampler())
        sim.run(self._senders([400 * KBYTE] * 3), deadline=3 * MSEC)
        first, second = seen[0], seen[1]
        assert first[0][0] == 0.4 * GBPS and second[0][0] == 0.5 * GBPS
        assert second[0][2] == first[0][2] + 1
        for fid in (1, 2):          # absent from the second answer
            assert second[fid] == first[fid]
        assert first[1][1] is not None and first[2][1] is None
        assert (sim.pauses, sim.resumes) == (1, 0)
        assert sorted(sim._sending) == [0, 2]

    def test_same_epoch_completions_fire_in_admission_order(self):
        topology = SingleBottleneck(3)
        # the model names the later-admitted flow first, so it precedes
        # the other in the sending set; both finish in one epoch
        model = _SubsetModel([{1: 0.5 * GBPS, 0: 0.5 * GBPS, 2: 0.0}])
        order = []

        class Recording(MetricsCollector):
            def on_complete(self, fid, time):
                order.append((fid, time))
                super().on_complete(fid, time)

        sim = FlowLevelSimulation(topology, model, metrics=Recording())
        sim.run(self._senders([100 * KBYTE] * 3), deadline=5 * MSEC)
        assert list(sim._sending) == []
        assert [fid for fid, _ in order] == [0, 1]
        assert order[0][1] == order[1][1]

    def test_trace_and_counters_of_a_pdq_run(self):
        """The sparse dict leaves pause/resume counters and the traced
        per-flow rate events what a from-scratch model produces."""
        class FullPassPdq(PdqModel):
            def begin_run(self):
                pass  # never opt in: every call is a full pass

        rng = random.Random(11)
        topology = FatTree.for_servers(16)
        flows = _flows(topology, rng, 120, poisson=True, deadlines=True,
                       elephant=False)
        runs = []
        for model in (PdqModel(PdqConfig.full()),
                      FullPassPdq(PdqConfig.full())):
            sim = FlowLevelSimulation(topology, model)
            sim.metrics.tracer = tracer = FlowTracer()
            collector = sim.run(flows, deadline=2.0)
            runs.append((sim.pauses, sim.resumes, sim.iterations,
                         tracer.events, collector.to_dict()))
        assert runs[0][0] > len(flows) // 2    # preemption happened
        assert runs[0] == runs[1]
