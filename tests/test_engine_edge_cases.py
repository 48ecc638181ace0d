"""Edge cases of the fluid engine's event machinery; the cases on a
tie the loop resolves are certified runs pinned to their digest."""

import pytest

from repro.core.config import PdqConfig
from repro.errors import ExperimentError
from repro.flowsim import FlowLevelSimulation, PdqModel
from repro.faults.spec import FaultEvent
from repro.flowsim.progress import FlowProgress
from repro.flowsim.rcp_model import RcpModel
from repro.metrics import digest
from repro.metrics.collector import MetricsCollector
from repro.topology import SingleBottleneck
from repro.topology.single_rooted import SingleRootedTree
from repro.units import KBYTE, MBYTE
from repro.workload.flow import FlowSpec
from repro.workload.stream import FlowStream
from test_fluid_digest_pins import certified, run_both_shapes


def _pinned(build, model, pin, deadline=4.0, **engine_kwargs):
    """The collector of a certified run of ``build`` whose list and
    stream runs both digest to ``pin``."""
    collectors = run_both_shapes(build, model, deadline, **engine_kwargs)
    assert [digest(c) for c in collectors] == [pin, pin]
    return collectors[0]


class TestRefreshBoundaryArrival:
    """A transfer_start landing exactly on the refresh horizon must be
    promoted at that iteration, not dropped or deferred."""

    def _flows(self):
        return [
            FlowSpec(fid=0, src="send0", dst="recv", size_bytes=2 * MBYTE),
            # with init_rtts=0 the transfer starts exactly at arrival,
            # which is exactly one refresh interval after t=0
            FlowSpec(fid=1, src="send1", dst="recv", size_bytes=100 * KBYTE,
                     arrival=1e-3),
        ]

    def test_promoted_on_the_boundary(self):
        sim = FlowLevelSimulation(SingleBottleneck(2), PdqModel(),
                                  init_rtts=0.0)
        metrics = sim.run(self._flows())
        assert len(metrics.completed_records()) == 2
        # the short flow preempts as soon as it starts at t=1ms
        assert metrics.record(1).fct < 2e-3

    def test_certified_run_is_pinned(self):
        _pinned(lambda: (SingleBottleneck(2), self._flows()), PdqModel,
                "6e3c3bcc41943ea6ba17483109b0d11c"
                "0b93b5c885e606f13bcc6ca41d108268",
                deadline=60.0, init_rtts=0.0)


class TestSimultaneousCompletionAndTermination:
    """A completion and an early termination at the same timestamp must
    both be recorded at that instant, in one recomputation cycle."""

    def _build(self):
        # phase 1: find when the short flow completes alone (its tight
        # deadline keeps it the most critical flow under EDF later)
        short = FlowSpec(fid=0, src="send0", dst="recv",
                         size_bytes=100 * KBYTE, deadline=5e-3)
        probe = FlowLevelSimulation(SingleBottleneck(2), PdqModel())
        t_done = probe.run([short]).record(0).completion_time
        # phase 2: a paused 1MB flow whose ET "cannot finish" condition
        # trips exactly when the short flow's completion recomputation
        # runs (deadline just inside now + expected_tx at that instant)
        sim = FlowLevelSimulation(SingleBottleneck(2), PdqModel())
        packets = -(-MBYTE // sim.payload)
        expected_tx = (MBYTE + packets * sim.header_bytes) * 8.0 / 1e9
        flows = [
            short,
            FlowSpec(fid=1, src="send1", dst="recv", size_bytes=1 * MBYTE,
                     deadline=t_done + expected_tx - 1e-6),
        ]
        return sim, flows

    def test_same_timestamp(self):
        sim, flows = self._build()
        metrics = sim.run(flows)
        short, big = metrics.record(0), metrics.record(1)
        assert short.completed
        assert big.terminated
        assert big.termination_reason == "early_termination:cannot_finish"
        assert big.termination_time == short.completion_time

    def test_certified_run_is_pinned(self):
        _, flows = self._build()
        _pinned(lambda: (SingleBottleneck(2), flows), PdqModel,
                "1966b2500e9c805e081a0e9b415ca35f"
                "096da1d9fa24e73a951a15fec92048d2", deadline=60.0)


class TestArrivalAfterDeadline:
    """An idle engine never jumps past ``deadline``: a flow arriving
    after it is left alone instead of dragging ``now`` beyond the
    horizon cap ("fluid engine time went backwards" before the loops
    were merged)."""

    def _flows(self):
        return [
            FlowSpec(fid=0, src="send0", dst="recv", size_bytes=1 * MBYTE),
            FlowSpec(fid=1, src="send1", dst="recv", size_bytes=1 * MBYTE,
                     arrival=5.0),
        ]

    def _sim(self):
        return FlowLevelSimulation(SingleBottleneck(2), PdqModel())

    def test_list_registers_the_late_flow_unfinished(self):
        alone = self._sim().run(self._flows()[:1]).record(0).fct
        metrics = self._sim().run(self._flows(), deadline=1.0)
        assert len(metrics) == 2
        assert metrics.record(0).fct == alone
        late = metrics.record(1)
        assert late.start_time == 5.0
        assert not late.completed and not late.terminated
        assert [r.spec.fid for r in metrics.unfinished()] == [1]

    def test_stream_never_admits_the_late_flow(self):
        sim = self._sim()
        metrics = sim.run(FlowStream(iter(self._flows())), deadline=1.0)
        assert [r.spec.fid for r in metrics.all_records()] == [0]
        assert metrics.record(0).completed
        assert sim.now <= 1.0

    def test_transfer_start_after_deadline_is_not_jumped_to(self):
        # arrives inside the deadline, but its init_rtts handshake ends
        # beyond it: admitted and started, never promoted
        flows = [FlowSpec(fid=0, src="send0", dst="recv",
                          size_bytes=1 * MBYTE, arrival=0.9)]
        sim = FlowLevelSimulation(SingleBottleneck(1), PdqModel(),
                                  init_rtts=1e4)
        metrics = sim.run(flows, deadline=1.0)
        assert [r.spec.fid for r in metrics.unfinished()] == [0]
        assert sim.now <= 1.0


class TestMaxRecomputations:
    FLOWS = [FlowSpec(fid=i, src=f"send{i}", dst="recv", size_bytes=MBYTE)
             for i in range(3)]

    def test_exhaustion_raises(self):
        flows = self.FLOWS
        sim = FlowLevelSimulation(SingleBottleneck(3), PdqModel())
        with pytest.raises(ExperimentError, match="did not converge"):
            sim.run(flows, max_recomputations=2)

    def test_explicit_cap_is_hard_on_a_stream_too(self):
        flows = self.FLOWS
        sim = FlowLevelSimulation(SingleBottleneck(3), PdqModel())
        with pytest.raises(ExperimentError, match=r"\(2 recomputations\)"):
            sim.run(FlowStream(iter(flows)), max_recomputations=2)

    def test_limit_not_hit_count_is_pinned(self):
        sim = FlowLevelSimulation(SingleBottleneck(3), certified(PdqModel()))
        sim.run(self.FLOWS)
        assert sim.recomputations == 27


def _transfer_start(topology, spec, **engine_kwargs) -> float:
    """When ``spec``'s transfer starts (arrival plus ``init_rtts`` RTTs
    on its pinned path)."""
    sim = FlowLevelSimulation(topology, RcpModel(), **engine_kwargs)
    return sim._make_progress(spec).transfer_start


class _Clock:
    """Sampler recording ``sim.now`` after every epoch."""

    def __init__(self, times: list[float]) -> None:
        self.times = times

    def on_step(self, sim, active) -> None:
        self.times.append(sim.now)


class _CompletionOrder(MetricsCollector):
    """Records the fids of ``on_complete`` calls in call order."""

    def __init__(self) -> None:
        super().__init__()
        self.order: list[int] = []

    def on_complete(self, fid: int, time: float) -> None:
        self.order.append(fid)
        super().on_complete(fid, time)


class TestFlattenedLoopBoundaries:
    """The boundaries of :meth:`FlowLevelSimulation.run`'s inline
    passes: each case sits exactly on a tie the loop resolves, and is a
    certified run pinned to its digest."""

    def test_arrival_exactly_at_the_admission_window_edge(self):
        # a lone 1 MB flow runs in refresh-long epochs; flow 1 arrives
        # exactly at the edge of one epoch's admission window, so that
        # epoch admits it on its own and flow 2 comes in a later pull
        long = FlowSpec(fid=0, src="send0", dst="recv", size_bytes=MBYTE)
        probe = FlowLevelSimulation(SingleBottleneck(3), RcpModel())
        times = []
        probe.samplers.append(_Clock(times))
        probe.run([long])
        edge = times[3] + probe.refresh_interval
        flows = [
            long,
            FlowSpec(fid=1, src="send1", dst="recv", size_bytes=100 * KBYTE,
                     arrival=edge),
            FlowSpec(fid=2, src="send2", dst="recv", size_bytes=100 * KBYTE,
                     arrival=edge + 5e-4),
        ]
        _pinned(lambda: (SingleBottleneck(3), flows), RcpModel,
                "958641556d81846de7e48d5b5c100ba8"
                "198bfc335a3c728188dc545860ca6dc2")
        sim = FlowLevelSimulation(SingleBottleneck(3), RcpModel())
        sim.run(FlowStream(iter(flows)))
        assert sim.stream_batches == 3

    def test_waiting_engine_stops_at_an_earlier_starting_arrival(self):
        # with a long handshake, a flow arriving on a short path after
        # the first admission window starts before the waiting
        # cross-tree flow; the engine must stop at its arrival
        flows = [
            FlowSpec(fid=0, src="h0", dst="h11", size_bytes=100 * KBYTE),
            FlowSpec(fid=1, src="h3", dst="h4", size_bytes=100 * KBYTE,
                     arrival=2e-3),
        ]
        topology = SingleRootedTree(n_tors=4, servers_per_tor=3)
        assert _transfer_start(topology, flows[1], init_rtts=50.0) < \
            _transfer_start(topology, flows[0], init_rtts=50.0)
        _pinned(lambda: (SingleRootedTree(n_tors=4, servers_per_tor=3),
                         flows), RcpModel,
                "7c960f617160271317bb9cd8826da54a"
                "f5ef3f7f5d23dde59faeef2a0ad8770b", init_rtts=50.0)

    def _fault_flows(self, topology):
        arrival = 0.05  # the first flow is long done: the engine is idle
        flows = [
            FlowSpec(fid=0, src="send0", dst="recv", size_bytes=200 * KBYTE),
            FlowSpec(fid=1, src="send1", dst="recv", size_bytes=200 * KBYTE,
                     arrival=arrival),
            FlowSpec(fid=2, src="send0", dst="recv", size_bytes=100 * KBYTE,
                     arrival=arrival + 1e-4),
        ]
        return arrival, flows

    def test_fault_epochs_on_an_arrival_and_on_a_transfer_start(self):
        # the faults flap a link no flow uses, at an arrival (idle jump)
        # and at two transfer starts (both already event boundaries), so
        # the splice must not move a single number
        topology = SingleBottleneck(3)
        arrival, flows = self._fault_flows(topology)
        faults = [
            FaultEvent(arrival, "link_down", "send2", "sw0"),
            FaultEvent(_transfer_start(topology, flows[1]),
                       "link_up", "send2", "sw0"),
            FaultEvent(_transfer_start(topology, flows[2]),
                       "link_down", "send2", "sw0"),
        ]
        unfaulted = _pinned(lambda: (SingleBottleneck(3), flows), RcpModel,
                            "cda24ff7d3ff1df61673ff575558ce37"
                            "c85374b59c52d5718b9ab35d0cd27395").to_dict()
        for shape in (list, lambda f: FlowStream(iter(f))):
            sim = FlowLevelSimulation(SingleBottleneck(3),
                                      certified(RcpModel()), faults=faults)
            assert sim.run(shape(flows)).to_dict() == unfaulted
            assert sim.fault_events_applied == 3

    def test_faults_apply_before_a_same_time_arrival_and_promotion(self):
        # send1's only link goes down exactly when flow 1 arrives (it is
        # rejected on arrival, not admitted) and send0's exactly when
        # flow 2's transfer starts (it never gets a rate)
        topology = SingleBottleneck(3)
        arrival, flows = self._fault_flows(topology)
        faults = [
            FaultEvent(arrival, "link_down", "send1", "sw0"),
            FaultEvent(_transfer_start(topology, flows[2]),
                       "link_down", "send0", "sw0"),
        ]
        sim = FlowLevelSimulation(topology, RcpModel(), faults=faults)
        metrics = sim.run(flows)
        assert metrics.record(0).completed
        assert metrics.record(1).termination_reason == \
            "fault: unroutable at arrival"
        late = metrics.record(2)
        assert late.termination_reason == "fault: no route after failure"
        assert late.bytes_delivered == 0
        assert sim.flows_rejected == 2

    def test_same_epoch_completions_in_admission_order(self):
        # identical flows admitted in reverse fid order finish together;
        # both input shapes call back in admission order, not fid order
        flows = [
            FlowSpec(fid=1, src="send0", dst="recv", size_bytes=150 * KBYTE),
            FlowSpec(fid=0, src="send1", dst="recv", size_bytes=150 * KBYTE),
        ]
        opt = _pinned(lambda: (SingleBottleneck(2), flows), RcpModel,
                      "ad7366874836d86bbcc73a36b33b47d7"
                      "a934f9692226bde0516cb18cc0da31f7")
        assert opt.record(0).completion_time == \
            opt.record(1).completion_time
        orders = []
        for shape in (list, lambda f: FlowStream(iter(f))):
            metrics = _CompletionOrder()
            FlowLevelSimulation(SingleBottleneck(2), RcpModel(),
                                metrics=metrics).run(shape(flows))
            orders.append(metrics.order)
        assert orders == [[1, 0], [1, 0]]

    def test_last_advance_overshooting_below_zero_is_clamped(self):
        # one flow alone at line rate, one epoch from its transfer start
        # to its ETA: for this size ``remaining - rate * dt / 8``
        # rounds below zero, and the advance clamps it to 0.0
        spec = FlowSpec(fid=0, src="send0", dst="recv", size_bytes=100_001)
        probe = FlowLevelSimulation(SingleBottleneck(1), RcpModel(),
                                    refresh_interval=10.0)
        flow = probe._make_progress(spec)
        rate, start, wire = flow.max_rate, flow.transfer_start, flow.wire_size
        dt = (start + wire * 8.0 / rate) - start
        assert wire - rate * dt / 8.0 < 0.0
        seen = []

        class Keeping(RcpModel):
            def allocate(self, flows, capacities, now):
                seen.extend(flows)
                return super().allocate(flows, capacities, now)

        opt = _pinned(lambda: (SingleBottleneck(1), [spec]), Keeping,
                      "741a05f4ff3381491e5ae4a25f1a6143"
                      "4c3957487ce0765ceced4cc7a31f43d3",
                      refresh_interval=10.0)
        assert opt.record(0).completion_time == start + dt
        assert seen and all(f.remaining_wire == 0.0 for f in seen)


class TestCriticalityCachingContract:
    """Satellite: the _criticality caching contract is explicit —
    random draws once per flow, estimate is dynamic, spec values win."""

    def _flow(self, fid=0, size=500 * KBYTE, criticality=None):
        spec = FlowSpec(fid=fid, src="a", dst="b", size_bytes=size,
                        criticality=criticality)
        return FlowProgress(spec, [("a", "b")], 1e9, 150e-6, float(size), 0.0)

    def test_random_mode_draws_once_and_caches_on_flow(self):
        model = PdqModel(PdqConfig.full(criticality_mode="random"))
        flow = self._flow()
        first = model._criticality(flow, 0.0)
        assert flow.criticality == first  # cached on the flow
        flow.remaining_wire /= 2  # progress must not re-draw
        assert model._criticality(flow, 1.0) == first

    def test_random_mode_is_deterministic_per_fid(self):
        model = PdqModel(PdqConfig.full(criticality_mode="random"))
        a, b = self._flow(fid=7), self._flow(fid=7)
        assert model._criticality(a, 0.0) == model._criticality(b, 0.0)

    def test_estimate_mode_is_dynamic_and_never_cached(self):
        config = PdqConfig.full(criticality_mode="estimate")
        model = PdqModel(config)
        flow = self._flow(size=500 * KBYTE)
        assert model._criticality(flow, 0.0) == 0.0
        assert flow.criticality is None  # never cached on the flow
        flow.remaining_wire -= 2 * config.estimate_chunk
        assert model._criticality(flow, 0.0) == pytest.approx(
            float(2 * config.estimate_chunk)
        )
        assert flow.criticality is None

    def test_spec_criticality_wins_in_every_mode(self):
        for mode in ("deadline", "random", "estimate"):
            model = PdqModel(PdqConfig.full(criticality_mode=mode))
            flow = self._flow(criticality=0.25)
            assert model._criticality(flow, 0.0) == 0.25

    def test_key_cache_disabled_for_dynamic_modes(self):
        assert PdqModel(PdqConfig.full())._keys_are_static()
        assert PdqModel(
            PdqConfig.full(criticality_mode="random"))._keys_are_static()
        assert not PdqModel(
            PdqConfig.full(criticality_mode="estimate"))._keys_are_static()
        assert not PdqModel(PdqConfig.full(aging_rate=1.0))._keys_are_static()
