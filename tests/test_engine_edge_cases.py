"""Edge cases of the optimized fluid engine's event machinery."""

import pytest

from repro.core.config import PdqConfig
from repro.errors import ExperimentError
from repro.flowsim import (
    FlowLevelSimulation,
    NaiveFlowLevelSimulation,
    PdqModel,
)
from repro.flowsim.naive import naive_model_for
from repro.flowsim.progress import FlowProgress
from repro.topology import SingleBottleneck
from repro.units import KBYTE, MBYTE
from repro.workload.flow import FlowSpec
from repro.workload.stream import FlowStream


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

    def test_matches_naive_engine(self):
        opt = FlowLevelSimulation(SingleBottleneck(2), PdqModel(),
                                  init_rtts=0.0).run(self._flows())
        naive = NaiveFlowLevelSimulation(
            SingleBottleneck(2), naive_model_for(PdqModel()), init_rtts=0.0
        ).run(self._flows())
        assert opt.to_dict() == naive.to_dict()


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
        expected_tx = sim._wire_size(1 * MBYTE) * 8.0 / 1e9
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

    def test_matches_naive_engine(self):
        sim, flows = self._build()
        opt = sim.run(flows)
        naive = NaiveFlowLevelSimulation(
            SingleBottleneck(2), naive_model_for(PdqModel())
        ).run(flows)
        assert opt.to_dict() == naive.to_dict()


class TestArrivalAfterDeadline:
    """An idle engine never jumps past ``deadline``: a flow arriving
    after it is left alone instead of dragging ``now`` beyond the
    horizon cap ("fluid engine time went backwards" before the loops
    were merged). The frozen naive engine raises on this input."""

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
    def test_exhaustion_raises(self):
        flows = [
            FlowSpec(fid=i, src=f"send{i}", dst="recv", size_bytes=1 * MBYTE)
            for i in range(3)
        ]
        sim = FlowLevelSimulation(SingleBottleneck(3), PdqModel())
        with pytest.raises(ExperimentError, match="did not converge"):
            sim.run(flows, max_recomputations=2)

    def test_explicit_cap_is_hard_on_a_stream_too(self):
        flows = [
            FlowSpec(fid=i, src=f"send{i}", dst="recv", size_bytes=1 * MBYTE)
            for i in range(3)
        ]
        sim = FlowLevelSimulation(SingleBottleneck(3), PdqModel())
        with pytest.raises(ExperimentError, match=r"\(2 recomputations\)"):
            sim.run(FlowStream(iter(flows)), max_recomputations=2)

    def test_limit_not_hit_counts_match_naive(self):
        flows = [
            FlowSpec(fid=i, src=f"send{i}", dst="recv", size_bytes=1 * MBYTE)
            for i in range(3)
        ]
        opt = FlowLevelSimulation(SingleBottleneck(3), PdqModel())
        opt.run(flows)
        naive = NaiveFlowLevelSimulation(
            SingleBottleneck(3), naive_model_for(PdqModel())
        )
        naive.run(flows)
        assert opt.recomputations == naive.recomputations


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
