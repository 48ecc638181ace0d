"""Tests for the flow-level benchmark harness and its CLI wiring."""

import json
import time

import pytest

from repro.bench import SCENARIOS, run_bench, write_history, write_report
from repro.campaign.cli import main
from repro.errors import ExperimentError


class TestHarness:
    def test_scenarios_are_registered(self):
        names = [s.name for s in SCENARIOS]
        assert "single-bottleneck" in names
        assert "fig8-scale" in names
        assert "fattree-multipath" in names
        assert "packet-aggregation" in names
        assert "packet-vl2" in names
        assert "packet-incast" in names
        assert "stream-vl2" in names
        assert "stream-vl2-packet" in names
        assert len(names) == len(set(names))

    def test_stream_scenarios_cover_both_engines(self):
        streaming = {s.name: s for s in SCENARIOS if s.streaming}
        assert streaming["stream-vl2"].engine == "flow"
        assert streaming["stream-vl2-packet"].engine == "packet"

    def test_both_engines_covered(self):
        engines = {s.engine for s in SCENARIOS}
        assert engines == {"flow", "packet"}

    def test_quick_run_with_baseline_parity(self):
        results = run_bench(only=["single-bottleneck"], quick=True)
        assert len(results) == 1
        r = results[0]
        assert r.flows > 0
        assert r.completed > 0
        assert r.iterations >= r.recomputations > 0
        assert r.elapsed_s > 0
        assert r.events_per_sec > 0
        assert r.allocate_calls_per_sec > 0
        assert r.baseline_parity is True
        assert r.speedup is not None and r.speedup > 0

    def test_no_baseline_skips_comparison(self):
        results = run_bench(only=["fattree-multipath"], quick=True,
                            baseline=False)
        r = results[0]
        assert r.baseline_elapsed_s is None
        assert r.speedup is None
        assert r.baseline_parity is None

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExperimentError, match="unknown benchmark"):
            run_bench(only=["no-such-bench"])

    def test_packet_scenario_times_event_loop(self):
        """Packet rows report simulator events/sec; the packet engine
        has no frozen naive twin, so baseline columns stay empty even
        when the baseline is requested."""
        results = run_bench(only=["packet-aggregation"], quick=True,
                            baseline=True)
        r = results[0]
        assert r.engine == "packet"
        assert r.flows > 0
        assert r.completed > 0
        assert r.iterations > 1000  # discrete packet events, not epochs
        assert r.events_per_sec > 0
        assert r.recomputations == 0
        assert r.baseline_elapsed_s is None
        assert r.speedup is None
        assert r.baseline_parity is None

    def test_incast_scenario_congests_the_bottleneck(self):
        """The incast cell exists to stress tail-drop and packet
        recycling; if buffer or workload drift ever makes it drop-free
        it stops measuring what it claims to."""
        from repro.campaign.engines import make_stack
        from repro.net.network import Network
        from repro.obs.stats import harvest_packet_run

        scenario = next(s for s in SCENARIOS if s.name == "packet-incast")
        topology, protocol, flows, deadline = scenario.build(True)
        net = Network(topology, make_stack(protocol))
        net.launch(flows)
        net.run_until_quiet(deadline=deadline)
        assert net.total_drops() > 0
        stats = harvest_packet_run(net)
        assert stats.get("net.pool_hits") > 0
        assert stats.get("net.pool_size") > 0
        records = net.metrics.all_records()
        assert all(r.completed for r in records)

    def test_streaming_scenario_skips_baseline_and_tracks_memory(self):
        """A mini open-system cell through the full harness path: the
        engine gets a streaming collector (so flow counts come from the
        accumulators), the naive baseline is skipped even when requested,
        and the tracemalloc pass records a peak."""
        from repro.bench.harness import run_scenario
        from repro.bench.scenarios import BenchScenario, build_stream_vl2
        from repro.flowsim.rcp_model import RcpModel

        def build(quick):
            topo, stream = build_stream_vl2(2_000)
            return (topo, RcpModel(), stream, stream.horizon)

        scenario = BenchScenario(
            name="stream-mini", description="mini stream cell",
            build=build, params=lambda quick: {"n_flows": 2_000},
            streaming=True,
        )
        r = run_scenario(scenario, quick=True, baseline=True)
        assert r.flows > 1_000
        assert r.completed > 1_000
        assert r.flows_per_sec > 0
        assert r.peak_mem_bytes > 0
        assert r.baseline_elapsed_s is None
        assert r.baseline_parity is None

    def test_no_mem_skips_tracemalloc_pass(self):
        results = run_bench(only=["fattree-multipath"], quick=True,
                            baseline=False, measure_memory=False)
        assert results[0].peak_mem_bytes is None

    def test_report_carries_engine_field(self, tmp_path):
        results = run_bench(only=["packet-aggregation"], quick=True)
        report = write_report(results, path=str(tmp_path / "b.json"),
                              quick=True)
        bench = report["benchmarks"][0]
        assert bench["engine"] == "packet"
        assert bench["speedup"] is None

    def test_write_report_schema(self, tmp_path):
        results = run_bench(only=["fattree-multipath"], quick=True,
                            baseline=False)
        out = tmp_path / "BENCH_flowsim.json"
        report = write_report(results, path=str(out), quick=True)
        on_disk = json.loads(out.read_text())
        assert on_disk == report
        assert on_disk["schema"] == 2
        assert on_disk["quick"] is True
        bench = on_disk["benchmarks"][0]
        for field in ("name", "params", "elapsed_s", "events_per_sec",
                      "allocate_calls_per_sec", "flows", "flows_per_sec",
                      "peak_mem_bytes", "completed"):
            assert field in bench
        assert bench["peak_mem_bytes"] > 0
        assert bench["flows_per_sec"] > 0


class TestHistory:
    def test_write_history_appends_one_row_per_run(self, tmp_path):
        results = run_bench(only=["fattree-multipath"], quick=True,
                            baseline=False)
        path = tmp_path / "BENCH_history.jsonl"
        row = write_history(results, path=str(path), quick=True)
        write_history(results, path=str(path), quick=True)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == row
        assert first["schema"] == 2
        assert first["quick"] is True
        bench = first["benchmarks"]["fattree-multipath"]
        assert bench["engine"] == "flow"
        assert bench["elapsed_s"] > 0
        assert bench["events_per_sec"] > 0
        assert bench["flows_per_sec"] > 0
        assert bench["peak_mem_bytes"] > 0
        assert "speedup" not in bench  # no baseline requested

    def test_history_row_carries_speedup_with_baseline(self, tmp_path):
        results = run_bench(only=["single-bottleneck"], quick=True)
        row = write_history(results, path=str(tmp_path / "h.jsonl"),
                            quick=True)
        assert row["benchmarks"]["single-bottleneck"]["speedup"] > 0


class TestHotPathGuard:
    def test_default_off_telemetry_keeps_packet_event_rate(self):
        """Satellite (hot-path guard): the campaign adapter with
        default-off telemetry must sustain a packet event rate within
        noise of the raw engine loop the bench harness times (the PR-4
        baseline path). Counter harvest happens once per run and tracer
        hooks are one is-None test per lifecycle transition, so anything
        beyond scheduler noise means a per-packet cost crept in."""
        from repro.bench.harness import _one_packet_run
        from repro.campaign.engines import run_packet_level

        scenario = next(s for s in SCENARIOS
                        if s.name == "packet-aggregation")

        raw_best = None
        adapter_best = None
        for _ in range(3):
            elapsed, sim, _ = _one_packet_run(scenario, quick=True)
            raw = sim.processed_events / elapsed
            raw_best = max(raw_best or 0.0, raw)

            topology, protocol, flows, sim_deadline = scenario.build(True)
            started = time.perf_counter()
            collector = run_packet_level(topology, protocol, flows,
                                         sim_deadline=sim_deadline)
            adapter_elapsed = time.perf_counter() - started
            adapter = collector.stats["sim.events"] / adapter_elapsed
            adapter_best = max(adapter_best or 0.0, adapter)

        # generous noise bound: CI machines jitter, but a real per-event
        # regression (a hook in the packet path) costs far more than 2x
        assert adapter_best >= 0.5 * raw_best, (
            f"telemetry overhead suspected: adapter {adapter_best:,.0f} "
            f"events/s vs raw {raw_best:,.0f} events/s"
        )


class TestCli:
    def test_bench_quick_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_flowsim.json"
        history = tmp_path / "BENCH_history.jsonl"
        code = main(["bench", "--quick", "--only", "fattree-multipath",
                     "--no-baseline", "--out", str(out),
                     "--history", str(history)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["benchmarks"][0]["name"] == "fattree-multipath"
        row = json.loads(history.read_text().strip())
        assert "fattree-multipath" in row["benchmarks"]
        assert "fattree-multipath" in capsys.readouterr().out

    def test_bench_no_history_skips_append(self, tmp_path, capsys):
        out = tmp_path / "BENCH_flowsim.json"
        history = tmp_path / "BENCH_history.jsonl"
        code = main(["bench", "--quick", "--only", "fattree-multipath",
                     "--no-baseline", "--out", str(out),
                     "--history", str(history), "--no-history"])
        assert code == 0
        assert not history.exists()

    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "single-bottleneck" in out

    def test_bench_unknown_name(self, capsys):
        assert main(["bench", "--only", "nope"]) == 2
