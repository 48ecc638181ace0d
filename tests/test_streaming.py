"""Open-system streaming: workload generators, memory-bounded metrics,
incremental admission in both engines, and the campaign wiring.

The fluid engine has one loop for lists and lazy streams, and
test_fluid_digest_pins pins its trajectories to one digest for both
input shapes, every rate vector certified. Here we assert what is particular
to streaming: (1) the workload generators and the memory-bounded
collector give the same physics as materializing the same stream into a
list with exact metrics, (2) memory stays O(concurrency) rather than
O(flows), and (3) payloads serialize through the existing collector
schema untouched.
"""

import json
import tracemalloc

import pytest

from repro.campaign import (
    CampaignRunner,
    ResultStore,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.campaign.engines import make_model, run_packet_level
from repro.campaign.registry import build_workload, workload_kinds
from repro.errors import CampaignError, ExperimentError, WorkloadError
from repro.flowsim.engine import FlowLevelSimulation
from repro.metrics import MetricsCollector, StreamingMetricsCollector
from repro.metrics.streaming import streaming_collector
from repro.metrics.summary import SummaryStats
from repro.topology.single_rooted import SingleRootedTree
from repro.units import GBPS, KBYTE
from repro.workload.flow import FlowSpec
from repro.workload.open_system import (
    host_access_bps,
    log_uniform_band_mean,
    open_system,
    vl2_mixture_mean,
)
from repro.workload.stream import FlowStream


def _topo():
    return SingleRootedTree(n_tors=4, servers_per_tor=3)


def _stream(seed=7, duration=0.1, rate=2000.0, **kw):
    return open_system(_topo(), seed, duration=duration,
                       rate_per_sec=rate, size_scale=0.01, **kw)


# -- FlowStream ---------------------------------------------------------------------


class TestFlowStream:
    def test_take_until_is_incremental_and_ordered(self):
        stream = _stream()
        first = stream.take_until(0.01)
        second = stream.take_until(0.02)
        assert all(s.arrival <= 0.01 for s in first)
        assert all(0.01 < s.arrival <= 0.02 for s in second)
        arrivals = [s.arrival for s in first + second]
        assert arrivals == sorted(arrivals)

    def test_peek_does_not_consume(self):
        stream = _stream()
        peeked = stream.peek_arrival()
        batch = stream.take_until(peeked)
        assert batch and batch[0].arrival == peeked

    def test_materialize_equals_incremental_drain(self):
        flows = _stream().materialize()
        stream = _stream()
        drained = []
        cutoff = 0.0
        while not stream.exhausted:
            cutoff += 0.005
            drained.extend(stream.take_until(cutoff))
        assert [f.fid for f in drained] == [f.fid for f in flows]
        assert [f.arrival for f in drained] == [f.arrival for f in flows]

    def test_fids_are_sequential(self):
        flows = _stream().materialize()
        assert [f.fid for f in flows] == list(range(len(flows)))

    def test_rejects_time_travel(self):
        def gen():
            yield FlowSpec(fid=0, src="h0", dst="h1",
                           size_bytes=KBYTE, arrival=1.0)
            yield FlowSpec(fid=1, src="h0", dst="h1",
                           size_bytes=KBYTE, arrival=0.5)

        stream = FlowStream(gen(), horizon=2.0)
        with pytest.raises(WorkloadError, match="non-decreasing"):
            stream.take_until(2.0)

    @staticmethod
    def _flows(*arrivals):
        for fid, arrival in enumerate(arrivals):
            yield FlowSpec(fid=fid, src="h0", dst="h1", size_bytes=KBYTE,
                           arrival=arrival)

    def test_decreasing_arrival_mid_window_names_the_flow(self):
        stream = FlowStream(self._flows(0.1, 0.2, 0.3, 0.25, 0.4))
        with pytest.raises(WorkloadError, match="flow 3 arrives at 0.25 "
                                                "after 0.3"):
            stream.take_until(1.0)
        # left as the flow-by-flow walk leaves it: nothing counted, and
        # the last flow handed out is still the next one
        assert stream.emitted == 0
        assert stream.peek_arrival() == 0.3

    def test_running_out_mid_window(self):
        stream = FlowStream(self._flows(0.1, 0.2, 0.3))
        assert [s.fid for s in stream.take_until(0.15)] == [0]
        assert not stream.exhausted
        assert [s.fid for s in stream.take_until(5.0)] == [1, 2]
        assert stream.exhausted and stream.peek_arrival() is None
        assert stream.emitted == 3
        assert stream.take_until(10.0) == []
        assert stream.emitted == 3


# -- open_system generator ----------------------------------------------------------


class TestOpenSystem:
    def test_deterministic_per_seed(self):
        a = _stream(seed=3).materialize()
        b = _stream(seed=3).materialize()
        c = _stream(seed=4).materialize()
        assert [(f.arrival, f.size_bytes, f.src, f.dst) for f in a] == \
               [(f.arrival, f.size_bytes, f.src, f.dst) for f in b]
        assert a and [f.size_bytes for f in a] != [f.size_bytes for f in c[:len(a)]]

    def test_arrivals_inside_window_and_horizon_covers_drain(self):
        stream = _stream(duration=0.2, drain=0.5)
        flows = stream.materialize()
        assert all(0.0 <= f.arrival < 0.2 for f in flows)
        assert stream.horizon == pytest.approx(0.7)

    def test_src_dst_never_equal(self):
        flows = _stream(seed=11).materialize()
        assert all(f.src != f.dst for f in flows)

    def test_target_load_sets_rate_from_mixture_mean(self):
        topo = _topo()
        load = 0.3
        stream = open_system(topo, 1, duration=0.1, target_load=load,
                             size_scale=0.01)
        mean_size = vl2_mixture_mean(scale=0.01, cap_bytes=1_000_000)
        rate = load * host_access_bps(topo) / (8.0 * mean_size)
        assert stream.expected_flows == int(rate * 0.1)

    def test_heavy_tailed_arrivals_and_sizes(self):
        stream = open_system(_topo(), 5, duration=0.2, rate_per_sec=2000.0,
                             arrival="pareto", sizes="pareto",
                             mean_size_bytes=50 * KBYTE)
        flows = stream.materialize()
        assert len(flows) > 50
        sizes = [f.size_bytes for f in flows]
        assert max(sizes) > 10 * (sum(sizes) / len(sizes))

    def test_deadlines_only_on_short_flows(self):
        stream = _stream(seed=9, mean_deadline=0.02)
        flows = stream.materialize()
        with_deadline = [f for f in flows if f.deadline is not None]
        assert with_deadline
        cutoff = max(f.size_bytes for f in with_deadline)
        no_deadline_small = [
            f for f in flows
            if f.deadline is None and f.size_bytes <= cutoff
        ]
        # the deadline cutoff partitions by size (scaled SHORT_FLOW_CUTOFF)
        assert all(f.size_bytes > 40 * KBYTE * 0.01 or f.deadline is not None
                   for f in flows)

    def test_validation(self):
        topo = _topo()
        with pytest.raises(WorkloadError):
            open_system(topo, 1, duration=0.1)  # neither rate nor load
        with pytest.raises(WorkloadError):
            open_system(topo, 1, duration=0.1, rate_per_sec=10.0,
                        target_load=0.5)  # both
        with pytest.raises(WorkloadError):
            open_system(topo, 1, duration=-1.0, rate_per_sec=10.0)
        with pytest.raises(WorkloadError):
            open_system(topo, 1, duration=0.1, rate_per_sec=10.0,
                        arrival="bursty")
        with pytest.raises(WorkloadError):
            open_system(topo, 1, duration=0.1, rate_per_sec=10.0,
                        sizes="cauchy")
        for params, name in [
            ({"mean_deadline": 0.0}, "mean_deadline"),
            ({"mean_deadline": -0.01}, "mean_deadline"),
            ({"drain": -5.0}, "drain"),
            ({"sizes": "uniform", "mean_size_bytes": 2 * KBYTE - 1},
             "mean_size_bytes"),
            ({"cap_bytes": 0}, "cap_bytes"),
        ]:
            with pytest.raises(WorkloadError, match=name):
                open_system(topo, 1, duration=0.1, rate_per_sec=10.0,
                            **params)
        # the boundary values are valid: a zero drain, a 2 KB uniform mean
        assert open_system(topo, 1, duration=0.1, rate_per_sec=100.0,
                           drain=0.0).horizon == pytest.approx(0.1)
        flows = open_system(topo, 1, duration=0.1, rate_per_sec=100.0,
                            sizes="uniform",
                            mean_size_bytes=2 * KBYTE).materialize()
        assert flows and all(f.size_bytes == 2 * KBYTE for f in flows)

    def test_band_mean_closed_forms(self):
        # E[X] for X ~ log-uniform on [lo, hi] is (hi-lo)/ln(hi/lo)
        import math
        lo, hi = 10.0, 100.0
        assert log_uniform_band_mean(lo, hi) == pytest.approx(
            (hi - lo) / math.log(hi / lo))
        # capping at hi is a no-op; capping below lo clamps to the cap
        assert log_uniform_band_mean(lo, hi, cap=hi) == pytest.approx(
            log_uniform_band_mean(lo, hi))
        assert log_uniform_band_mean(lo, hi, cap=5.0) == pytest.approx(5.0)

    def test_host_access_bps_sums_host_links(self):
        assert host_access_bps(_topo()) == pytest.approx(12 * GBPS)

    def test_registered_as_campaign_kind(self):
        assert "open_system" in workload_kinds()
        stream = build_workload(
            "open_system", _topo(), 3,
            {"duration": 0.05, "rate_per_sec": 1000.0, "size_scale": 0.01},
        )
        assert isinstance(stream, FlowStream)
        assert stream.materialize()


# -- streaming collector ------------------------------------------------------------


def _run_closed(flows, collector=None):
    sim = FlowLevelSimulation(_topo(), make_model("RCP"), header_bytes=44,
                              metrics=collector)
    sim.run(flows, deadline=5.0)
    return sim.metrics


class TestStreamingCollector:
    def test_accumulators_match_exact_collector(self):
        flows = _stream(seed=21).materialize()
        exact = _run_closed(flows)
        streaming = _run_closed(flows, streaming_collector(True, seed=21))
        assert len(streaming) == len(exact)
        assert streaming.completed_count() == len(exact.completed_records())
        assert streaming.mean_fct() == pytest.approx(exact.mean_fct())
        assert streaming.max_fct() == pytest.approx(exact.max_fct())
        # sketch percentile within a couple ranks of the exact one
        n = len(flows)
        got = streaming.fct_percentile(95)
        fcts = sorted(r.fct for r in exact.completed_records())
        lo_idx = max(0, int(0.93 * n) - 1)
        hi_idx = min(n - 1, int(0.97 * n) + 1)
        assert fcts[lo_idx] <= got <= fcts[hi_idx]

    def test_memory_is_bounded_by_reservoir_not_flows(self):
        flows = _stream(seed=22, duration=0.3).materialize()
        collector = streaming_collector({"reservoir": 50}, seed=22)
        _run_closed(flows, collector)
        assert len(collector.records) == 0  # every resolved flow evicted
        assert len(collector.reservoir) == 50
        assert len(collector) == len(flows)

    def test_reservoir_deterministic_under_pinned_seed(self):
        flows = _stream(seed=23).materialize()
        picks = []
        for _ in range(2):
            collector = streaming_collector({"reservoir": 20}, seed=23)
            _run_closed(flows, collector)
            picks.append(sorted(r.spec.fid for r in collector.reservoir))
        assert picks[0] == picks[1]
        other = streaming_collector({"reservoir": 20}, seed=24)
        _run_closed(flows, other)
        assert sorted(r.spec.fid for r in other.reservoir) != picks[0]

    def test_summary_stats_uses_accumulators(self):
        flows = _stream(seed=25).materialize()
        streaming = _run_closed(flows, streaming_collector(True, seed=25))
        stats = SummaryStats.from_collector(streaming)
        assert stats.n_flows == len(flows)
        assert stats.n_completed == streaming.n_completed
        assert stats.mean_fct == pytest.approx(streaming.mean_fct())

    def test_late_hooks_count_instead_of_raising(self):
        collector = streaming_collector(True, seed=1)
        spec = FlowSpec(fid=0, src="a", dst="b", size_bytes=KBYTE)
        collector.register(spec)
        collector.on_start(0, 0.0)
        collector.on_complete(0, 1.0)  # folds + evicts
        collector.on_start(0, 1.5)
        collector.on_bytes(0, 100)
        collector.on_retransmit(0)
        collector.on_probe(0)
        collector.on_complete(0, 2.0)
        collector.on_terminated(0, 2.0, "late")
        assert collector.late_events == 6
        assert collector.n_completed == 1

    def test_options_validation(self):
        with pytest.raises(ExperimentError):
            streaming_collector("yes", seed=1)
        with pytest.raises(ExperimentError):
            StreamingMetricsCollector(reservoir_size=-1)
        with pytest.raises(ExperimentError,
                           match="'resevoir'.*reservoir, "
                                 "reference_rate_bps, sketch_k"):
            streaming_collector({"resevoir": 10}, seed=1)
        collector = streaming_collector(
            {"reservoir": 5, "reference_rate_bps": 1e8, "sketch_k": 50},
            seed=1)
        assert collector.reservoir_size == 5
        assert collector.reference_rate_bps == 1e8


class TestSerialization:
    def test_closed_batch_to_dict_is_byte_identical(self):
        """The tentpole's compatibility constraint: a plain collector's
        serialized payload must not move at all."""
        flows = _stream(seed=31).materialize()
        payload = json.dumps(_run_closed(flows).to_dict(), sort_keys=True)
        again = json.dumps(_run_closed(flows).to_dict(), sort_keys=True)
        assert payload == again
        assert "streaming" not in json.loads(payload)

    def test_streaming_round_trip_restores_metrics(self):
        flows = _stream(seed=32).materialize()
        collector = _run_closed(flows, streaming_collector(True, seed=32))
        restored = MetricsCollector.from_dict(collector.to_dict())
        assert isinstance(restored, StreamingMetricsCollector)
        assert len(restored) == len(collector)
        assert restored.completed_count() == collector.completed_count()
        assert restored.mean_fct() == pytest.approx(collector.mean_fct())
        assert restored.max_fct() == pytest.approx(collector.max_fct())
        assert restored.fct_percentile(95) == pytest.approx(
            collector.fct_percentile(95))
        assert restored.slowdown_percentile(99) == pytest.approx(
            collector.slowdown_percentile(99))
        # second round trip is stable
        assert restored.to_dict() == collector.to_dict()

    def test_base_collector_percentile_is_exact(self):
        flows = _stream(seed=33).materialize()
        exact = _run_closed(flows)
        from repro.utils.stats import percentile
        fcts = [r.fct for r in exact.completed_records()]
        assert exact.fct_percentile(50) == percentile(fcts, 50)


# -- engine equivalence -------------------------------------------------------------


class TestEngineEquivalence:
    def test_fluid_stream_matches_materialized_batch(self):
        stream = _stream(seed=41)
        flows = _stream(seed=41).materialize()
        closed = _run_closed(flows)
        streamed = _run_closed(stream, streaming_collector(True, seed=41))
        assert streamed.completed_count() == len(closed.completed_records())
        assert streamed.mean_fct() == pytest.approx(closed.mean_fct(),
                                                    rel=1e-6)
        assert streamed.max_fct() == pytest.approx(closed.max_fct(),
                                                   rel=1e-6)

    def test_packet_stream_matches_materialized_batch(self):
        stream = _stream(seed=42, duration=0.05)
        flows = _stream(seed=42, duration=0.05).materialize()
        deadline = stream.horizon
        closed = run_packet_level(_topo(), "RCP", flows,
                                  sim_deadline=deadline)
        streamed = run_packet_level(
            _topo(), "RCP", stream, sim_deadline=deadline,
            metrics=streaming_collector(True, seed=42),
        )
        assert streamed.completed_count() == len(closed.completed_records())
        assert streamed.mean_fct() == pytest.approx(closed.mean_fct(),
                                                    rel=1e-6)
        assert streamed.late_events == 0
        assert streamed.stats["net.stream_batches"] > 0

    def test_fluid_memory_is_flat_in_flow_count(self, stream_vl2):
        """Direct O(1)-memory evidence at test scale: 4x the flows must
        cost well under 1.5x the peak traced bytes. Both cells sit past
        the point where every host pair of the tree has its path
        template, so any growth left is real per-flow retention."""
        def peak(n):
            topo, stream = stream_vl2(n)
            sim = FlowLevelSimulation(topo, make_model("RCP"),
                                      header_bytes=44,
                                      metrics=streaming_collector(True))
            tracemalloc.start()
            try:
                sim.run(stream, deadline=stream.horizon)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, big = peak(5_000), peak(20_000)
        assert big < 1.5 * small, (small, big)


# -- campaign wiring ----------------------------------------------------------------


def _stream_spec(engine="flow", seed=5, streaming=True, **options):
    if streaming:
        options.setdefault("streaming_metrics", True)
    return ScenarioSpec(
        protocol="RCP",
        topology=TopologySpec("single_rooted"),
        workload=WorkloadSpec("open_system", {
            "duration": 0.05, "rate_per_sec": 1000.0, "size_scale": 0.01,
        }),
        engine=engine,
        seed=seed,
        options=options,
    )


class TestCampaignWiring:
    def test_streaming_option_is_additive_to_spec_hash(self):
        """Existing specs (no streaming_metrics key) hash exactly as
        before; adding the option changes the key."""
        plain = _stream_spec(streaming=False)
        with_option = _stream_spec(streaming=True)
        assert plain.key != with_option.key
        assert plain.key == _stream_spec(streaming=False).key

    @pytest.mark.parametrize("engine", ["flow", "packet"])
    def test_execute_spec_returns_streaming_collector(self, engine):
        from repro.campaign.engines import execute_spec

        collector = execute_spec(_stream_spec(engine=engine))
        assert isinstance(collector, StreamingMetricsCollector)
        assert collector.n_completed > 0

    def test_execute_spec_refuses_an_empty_streaming_dict(self):
        """The adapters read ``{}`` as off: this returned a plain
        collector, cached under a key of its own beside the option-free
        cell's. ``execute_spec`` refuses it as the dry run does."""
        from repro.campaign.engines import execute_spec

        spec = _stream_spec(streaming_metrics={})
        with pytest.raises(CampaignError, match=r"streaming_metrics: \{\} "
                           "turns nothing on; give true for the defaults"):
            execute_spec(spec)

    def test_stream_horizon_becomes_default_deadline(self):
        """Satellite 2: without an explicit sim_deadline the spec runs to
        the stream's own horizon (arrival window + drain), not the
        engine default — the runner's wall-clock budget stays a backstop
        rather than the only terminator."""
        from repro.campaign.engines import execute_spec

        collector = execute_spec(_stream_spec(streaming=False))
        assert isinstance(collector, MetricsCollector)
        assert not isinstance(collector, StreamingMetricsCollector)
        assert collector.unfinished_count() == 0

    def test_runner_terminates_and_store_round_trips(self, tmp_path):
        """A streaming scenario through the CampaignRunner: terminates
        cleanly inside a generous wall-clock budget, caches, and restores
        from the store as a streaming collector."""
        spec = _stream_spec()
        store = ResultStore(tmp_path / "cache")
        runner = CampaignRunner(max_workers=0, store=store, timeout=120.0)
        result = runner.run([spec])
        assert not result.failures
        collector = store.get(spec)
        assert isinstance(collector, StreamingMetricsCollector)
        assert collector.n_completed > 0
        # cached: a second run hits the store, not the engine
        again = runner.run([spec])
        assert again.cached_count == 1

    def test_percentile_metrics_registered(self):
        from repro.experiments.reducers import collector_metric

        flows = _stream(seed=51).materialize()
        exact = _run_closed(flows)
        streamed = _run_closed(flows, streaming_collector(True, seed=51))
        for name in ("p50_fct", "p95_fct", "p99_fct"):
            metric = collector_metric(name)
            assert metric(streamed) == pytest.approx(metric(exact),
                                                     rel=0.25)
        frac = collector_metric("completion_fraction")
        assert frac(streamed) == pytest.approx(frac(exact))
