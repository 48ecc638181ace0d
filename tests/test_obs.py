"""Tests for the unified telemetry layer (repro.obs): run counters,
declarative probes, flow-lifecycle traces, campaign logging, and the
``repro report`` subcommand."""

import json
import logging

import pytest

from repro.campaign import (
    CampaignRunner,
    ResultStore,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)
from repro.campaign.cli import main as cli_main
from repro.errors import CampaignError
from repro.metrics.collector import MetricsCollector
from repro.obs import FlowTracer, RunStats, write_trace_jsonl
from repro.obs.probes import LinkProbe, read_probes
from repro.obs.log import get_logger, setup_cli_logging
from repro.obs.report import build_report, write_report
from repro.obs.trace import read_trace_jsonl
from repro.units import KBYTE

PROBES = {
    "bottleneck": {"kind": "link", "link": ["tor0", "h0"],
                   "interval": 0.0005},
    "rates": {"kind": "flow_rates", "interval": 0.0005},
}


def _telemetry_spec(protocol="RCP", engine="packet", probes=True,
                    trace=True, n_flows=3):
    options = {}
    if probes:
        options["probes"] = PROBES
    if trace:
        options["trace"] = True
    return ScenarioSpec(
        protocol=protocol,
        topology=TopologySpec("single_rooted"),
        workload=WorkloadSpec("fig3.aggregation", {
            "n_flows": n_flows, "mean_size": 100 * KBYTE,
        }),
        engine=engine,
        sim_deadline=4.0,
        options=options,
    )


class TestRunStats:
    def test_inc_get_len_bool(self):
        stats = RunStats()
        assert not stats and len(stats) == 0
        stats.inc("a")
        stats.inc("a", 4)
        stats.set("b", 7)
        assert stats.get("a") == 5
        assert stats.get("missing") == 0
        assert stats.get("missing", 9) == 9
        assert stats and len(stats) == 2

    def test_to_dict_sorted_and_round_trips(self):
        stats = RunStats({"z.last": 1, "a.first": 2})
        assert list(stats.to_dict()) == ["a.first", "z.last"]
        assert RunStats.from_dict(stats.to_dict()).to_dict() == stats.to_dict()


class TestProbeValidation:
    """The ``probes`` option's own shape and value checks; each probe
    kind's wrong types, unknown keys and missing fields are
    ``test_spec_schema``'s generated cases."""

    PATH = ("options", "probes")

    def test_accepts_canonical_shape(self):
        probes = read_probes(PROBES, self.PATH)
        assert set(probes) == {"bottleneck", "rates"}
        assert probes["bottleneck"] == LinkProbe(0.0005, ("tor0", "h0"))

    def test_rejects_non_mapping(self):
        with pytest.raises(CampaignError,
                           match="options probes: must be a mapping"):
            read_probes(["link"], self.PATH)
        with pytest.raises(CampaignError,
                           match="options probes p: must be a mapping"):
            read_probes({"p": "link"}, self.PATH)

    def test_rejects_unknown_kind(self):
        with pytest.raises(CampaignError, match="options probes p: unknown "
                           "kind 'queue'; allowed: flow_rates, link"):
            read_probes({"p": {"kind": "queue", "interval": 1.0}}, self.PATH)

    def test_rejects_bad_interval(self):
        for interval in (0, -1.0):
            with pytest.raises(CampaignError, match="options probes p "
                               "interval: must be positive"):
                read_probes({"p": {"kind": "flow_rates",
                                   "interval": interval}}, self.PATH)

    def test_rejects_bad_link(self):
        for link, message in ((["tor0"], r"link: must be a \[src, dst\] pair"),
                              (["tor0", 3], r"link\[1\]: must be a string")):
            with pytest.raises(CampaignError,
                               match=f"options probes p {message}"):
                read_probes({"p": {"kind": "link", "link": link,
                                   "interval": 1.0}}, self.PATH)

    @pytest.mark.parametrize("engine", ["packet", "flow"])
    def test_both_engines_refuse_a_missing_link_alike(self, engine):
        """The packet engine raised a TopologyError here, the fluid
        engine an ExperimentError."""
        spec = _telemetry_spec(engine=engine, trace=False).with_(
            options={"probes": {"p": {"kind": "link", "link": ["h0", "nosuch"],
                                      "interval": 0.001}}})
        with pytest.raises(CampaignError, match="options probes p link: no "
                           "link h0 -> nosuch in the topology"):
            run_scenario(spec)


class TestProbesOnEngines:
    @pytest.mark.parametrize("engine", ["packet", "flow"])
    def test_link_and_rate_probes_produce_series(self, engine):
        collector = run_scenario(_telemetry_spec(engine=engine, trace=False))
        assert set(collector.probes) == {"bottleneck", "rates"}

        link = collector.probes["bottleneck"]
        assert link["kind"] == "link"
        assert link["columns"] == ["t", "utilization", "queue_packets",
                                   "queue_bytes"]
        assert link["params"]["link"] == ["tor0", "h0"]
        assert link["samples"], "link probe recorded no samples"
        for t, util, _qp, _qb in link["samples"]:
            assert t >= 0
            assert 0.0 <= util <= 1.0
        # three 100 KB flows fan in through tor0->h0: some sample must
        # see the bottleneck actually carrying traffic
        assert any(row[1] > 0 for row in link["samples"])

        rates = collector.probes["rates"]
        assert rates["kind"] == "flow_rates"
        assert rates["columns"] == ["t", "rates_bps"]
        assert rates["samples"]
        seen_fids = set()
        for _t, per_flow in rates["samples"]:
            assert isinstance(per_flow, dict)
            for fid, bps in per_flow.items():
                assert isinstance(fid, str)
                assert bps > 0
                seen_fids.add(fid)
        assert seen_fids, "no flow ever reported a rate"

    def test_packet_rate_probe_does_not_depend_on_streaming_metrics(self):
        """The streaming collector evicts a flow's record when the flow
        resolves. The flow-rate probe still counts that flow's last
        interval, and a flow that resolves before the first sample (flow
        2 here). A failure means the probe reads only the records the
        collector still holds."""
        spec = _telemetry_spec(probes=False, trace=False, n_flows=6)
        spec = spec.with_(sim_deadline=1.0, **{"options.probes": {
            "rates": {"kind": "flow_rates", "interval": 0.0005}}})
        streamed = spec.with_(**{"options.streaming_metrics": True})
        assert run_scenario(streamed).probes == run_scenario(spec).probes

    def test_packet_rate_probe_lets_go_of_resolved_flows(self, monkeypatch):
        """A flow's record is held until the first sample after the flow
        resolves, and no longer: after the run the probe holds only the
        flows that resolved after its last sample, and its samples plus
        those flows' unsampled tails add up to every delivered byte."""
        import repro.obs

        attach = repro.obs.attach_packet_probes
        seen = []

        def attach_and_keep(net, probes):
            attached = attach(net, probes)
            seen.append(attached)
            return attached

        monkeypatch.setattr(repro.obs, "attach_packet_probes",
                            attach_and_keep)
        interval = 0.0005
        spec = _telemetry_spec(probes=False, trace=False, n_flows=6)
        collector = run_scenario(spec.with_(sim_deadline=1.0, **{
            "options.probes": {"rates": {"kind": "flow_rates",
                                         "interval": interval}}}))
        [[probe]] = seen
        last = probe.samples[-1][0]
        for record, _ in probe._held.values():
            resolved = record.completion_time or record.termination_time
            assert resolved is None or resolved > last
        sampled = sum(bps for _, rates in probe.samples
                      for bps in rates.values()) * interval / 8
        tails = sum(record.bytes_delivered - at
                    for record, at in probe._held.values())
        delivered = sum(r.bytes_delivered for r in collector.records.values())
        assert sampled + tails == pytest.approx(delivered)

    def test_fluid_queue_columns_are_zero(self):
        collector = run_scenario(_telemetry_spec(engine="flow", trace=False))
        for _, _, qp, qb in collector.probes["bottleneck"]["samples"]:
            assert qp == 0 and qb == 0

    def test_unknown_link_fails_cleanly_on_both_engines(self):
        bad = {"p": {"kind": "link", "link": ["tor0", "nope"],
                     "interval": 0.001}}
        for engine in ("packet", "flow"):
            spec = _telemetry_spec(engine=engine, probes=False, trace=False)
            spec = spec.with_(**{"options.probes": bad})
            with pytest.raises(Exception):
                run_scenario(spec)

    def test_probes_round_trip_through_json(self):
        collector = run_scenario(_telemetry_spec(trace=False))
        restored = MetricsCollector.from_dict(
            json.loads(json.dumps(collector.to_dict()))
        )
        assert restored.probes == collector.probes
        assert restored.to_dict() == collector.to_dict()


class TestTracer:
    def test_classifies_rate_transitions(self):
        tracer = FlowTracer()
        tracer.on_arrival(1, 0.0)
        tracer.on_rate(1, 0.0, 0.0)      # never sent: dropped
        tracer.on_rate(1, 0.001, 5e8)    # first grant
        tracer.on_rate(1, 0.002, 5e8)    # unchanged: dropped
        tracer.on_rate(1, 0.003, 0.0)    # preempted
        tracer.on_rate(1, 0.004, 0.0)    # still paused: dropped
        tracer.on_rate(1, 0.005, 1e9)    # granted again
        tracer.on_complete(1, 0.006)
        assert [e["event"] for e in tracer.events] == [
            "arrival", "rate", "pause", "resume", "complete",
        ]
        pause = tracer.events[2]
        assert pause["flow"] == 1 and pause["rate"] == 0.0

    def test_terminated_carries_reason(self):
        tracer = FlowTracer()
        tracer.on_terminated(7, 1.5, "deadline")
        assert tracer.events == [
            {"t": 1.5, "flow": 7, "event": "terminated",
             "reason": "deadline"},
        ]

    def test_jsonl_round_trip(self, tmp_path):
        events = [
            {"t": 0.0, "flow": 0, "event": "arrival"},
            {"t": 0.1, "flow": 0, "event": "complete"},
        ]
        path = write_trace_jsonl(tmp_path / "sub" / "t.jsonl", events,
                                 header={"key": "abc"})
        lines = path.read_text().strip().splitlines()
        assert json.loads(lines[0]) == {"header": {"key": "abc"}}
        assert read_trace_jsonl(path) == events


class TestTraceOnEngines:
    @pytest.mark.parametrize("engine", ["packet", "flow"])
    def test_lifecycle_events_recorded(self, engine):
        collector = run_scenario(_telemetry_spec(
            protocol="PDQ(Full)", engine=engine, probes=False,
        ))
        assert collector.trace
        # the live tracer never leaks into the finished collector
        assert collector.tracer is None
        kinds = {e["event"] for e in collector.trace}
        assert kinds <= {"arrival", "rate", "pause", "resume",
                         "complete", "terminated"}
        arrivals = [e for e in collector.trace if e["event"] == "arrival"]
        assert len(arrivals) == len(collector)
        completes = [e for e in collector.trace if e["event"] == "complete"]
        assert len(completes) == len(collector.completed_records())
        assert any(e["event"] == "rate" for e in collector.trace)

    @pytest.mark.parametrize("protocol", ["PDQ(Full)", "RCP"])
    def test_fluid_tracing_changes_nothing(self, protocol):
        """The fluid engine applies rates in one loop, traced or not: a
        traced run's records and counters equal an untraced run's, and
        only the ``trace`` key tells them apart."""
        traced, plain = (
            run_scenario(_telemetry_spec(
                protocol=protocol, engine="flow", probes=False,
                trace=trace, n_flows=12)).to_dict()
            for trace in (True, False))
        assert any(e["event"] == "rate" for e in traced.pop("trace"))
        assert "trace" not in plain
        assert traced == plain
        if protocol == "PDQ(Full)":
            assert plain["stats"]["flows.pauses"] > 0

    def test_fluid_preemption_emits_pause_and_resume(self):
        from repro.core.config import PdqConfig
        from repro.flowsim.engine import FlowLevelSimulation
        from repro.flowsim.pdq_model import PdqModel
        from repro.workload.flow import FlowSpec

        topology = TopologySpec("single_rooted").build()
        sim = FlowLevelSimulation(topology, PdqModel(PdqConfig.full()))
        sim.metrics.tracer = FlowTracer()
        flows = [
            FlowSpec(fid=0, src="h1", dst="h0", size_bytes=500 * KBYTE,
                     arrival=0.0, deadline=0.1),
            # arrives mid-flight with a much tighter deadline: PDQ
            # preempts flow 0 for it (paper Fig 1 dynamics)
            FlowSpec(fid=1, src="h1", dst="h0", size_bytes=100 * KBYTE,
                     arrival=0.001, deadline=0.004),
        ]
        collector = sim.run(flows, deadline=1.0)
        events = sim.metrics.tracer.events
        flow0 = [e["event"] for e in events if e["flow"] == 0]
        assert "pause" in flow0 and "resume" in flow0
        assert flow0.index("pause") < flow0.index("resume")
        assert sim.pauses >= 1 and sim.resumes >= 1
        assert len(collector.completed_records()) == 2

    def test_untraced_run_has_empty_trace(self):
        collector = run_scenario(_telemetry_spec(probes=False, trace=False))
        assert collector.trace == []
        assert "trace" not in collector.to_dict()


class TestRunCounters:
    def test_packet_run_harvests_counters(self):
        collector = run_scenario(_telemetry_spec(probes=False, trace=False))
        stats = collector.stats
        assert stats["sim.events"] > 0
        assert stats["net.packets_sent"] > 0
        assert stats["net.bytes_sent"] > stats["net.packets_sent"]
        assert stats["net.packets_forwarded"] > 0
        for key in ("sim.compactions", "net.packets_dropped",
                    "net.wire_losses", "flows.pauses", "flows.resumes"):
            assert stats[key] >= 0

    def test_fluid_run_harvests_counters(self):
        collector = run_scenario(_telemetry_spec(
            protocol="PDQ(Full)", engine="flow", probes=False, trace=False,
        ))
        stats = collector.stats
        assert stats["fluid.iterations"] > 0
        assert stats["fluid.allocate_calls"] > 0
        # PDQ's model keeps a comparator-key cache; the counters must
        # account for every keyed flow
        assert (stats["fluid.comparator_cache_hits"]
                + stats["fluid.comparator_cache_misses"]) > 0

    def test_fluid_non_pdq_has_no_cache_counters(self):
        collector = run_scenario(_telemetry_spec(
            protocol="RCP", engine="flow", probes=False, trace=False,
        ))
        assert "fluid.comparator_cache_hits" not in collector.stats

    def test_stats_serialized_sorted(self):
        collector = run_scenario(_telemetry_spec(probes=False, trace=False))
        out = collector.to_dict()
        assert list(out["stats"]) == sorted(out["stats"])

    def test_direct_engine_run_keeps_legacy_payload_shape(self):
        """Engines used directly (the engine-direct digest pins' path)
        emit exactly the pre-telemetry payload: no stats/probes/trace
        keys."""
        from repro.flowsim.engine import FlowLevelSimulation
        from repro.flowsim.rcp_model import RcpModel
        from repro.workload.flow import FlowSpec

        topology = TopologySpec("single_rooted").build()
        sim = FlowLevelSimulation(topology, RcpModel())
        collector = sim.run(
            [FlowSpec(fid=0, src="h1", dst="h0", size_bytes=10 * KBYTE,
                      arrival=0.0, deadline=None)],
            deadline=1.0,
        )
        assert set(collector.to_dict()) == {"records"}

    def test_default_off_telemetry_keeps_packet_event_rate(self):
        """Hot-path guard: the campaign adapter with default-off
        telemetry must sustain a packet event rate within noise of the
        raw ``Network`` loop. Counter harvest happens once per run and
        tracer hooks are one is-None test per lifecycle transition, so
        anything beyond scheduler noise means a per-packet cost crept
        in."""
        import time

        from repro.campaign.engines import make_stack, run_packet_level
        from repro.net.network import Network
        from repro.units import MSEC

        # fig 3's deadline fan-in: 8 PDQ flows into h0
        workload = WorkloadSpec("fig3.aggregation", {
            "n_flows": 8, "mean_size": 100 * KBYTE,
            "mean_deadline": 30 * MSEC,
        })

        def build():
            topology = TopologySpec("single_rooted").build()
            return topology, workload.build(topology, 1)

        raw_best = adapter_best = 0.0
        for _ in range(3):
            topology, flows = build()
            net = Network(topology, make_stack("PDQ(Full)"))
            started = time.perf_counter()
            net.launch(flows)
            net.run_until_quiet(deadline=4.0)
            elapsed = time.perf_counter() - started
            raw_best = max(raw_best, net.sim.processed_events / elapsed)

            topology, flows = build()
            started = time.perf_counter()
            collector = run_packet_level(topology, "PDQ(Full)", flows,
                                         sim_deadline=4.0)
            elapsed = time.perf_counter() - started
            adapter_best = max(adapter_best,
                               collector.stats["sim.events"] / elapsed)

        # generous noise bound: CI machines jitter, but a real per-event
        # regression (a hook in the packet path) costs far more than 2x
        assert adapter_best >= 0.5 * raw_best, (
            f"telemetry overhead suspected: adapter {adapter_best:,.0f} "
            f"events/s vs raw {raw_best:,.0f} events/s"
        )


class TestCampaignTelemetry:
    def test_serial_and_parallel_telemetry_identical(self):
        specs = [_telemetry_spec("RCP"), _telemetry_spec("PDQ(Full)")]
        serial = CampaignRunner(max_workers=0).run(specs)
        with CampaignRunner(max_workers=2) as runner:
            parallel = runner.run(specs)
        for a, b in zip(serial.collectors(), parallel.collectors(), strict=True):
            assert a.stats == b.stats
            assert a.probes == b.probes
            assert a.trace == b.trace
            assert a.to_dict() == b.to_dict()

    def test_warm_cache_reload_is_stable(self, tmp_path):
        spec = _telemetry_spec()
        store = ResultStore(tmp_path)
        cold = CampaignRunner(store=store).run([spec])
        warm = CampaignRunner(store=store).run([spec])
        assert warm.executed_count == 0 and warm.cached_count == 1
        fresh, cached = cold.collectors()[0], warm.collectors()[0]
        assert cached.stats == fresh.stats
        assert cached.probes == fresh.probes
        assert cached.trace == fresh.trace
        assert cached.to_dict() == fresh.to_dict()

    def test_campaign_log_rows(self, tmp_path):
        spec = _telemetry_spec(probes=False, trace=False)
        store = ResultStore(tmp_path)
        CampaignRunner(store=store).run([spec])
        CampaignRunner(store=store).run([spec])
        rows = store.read_log()
        assert len(rows) == 2
        executed, cached = rows
        assert executed["cached"] is False and executed["ok"] is True
        assert executed["worker"] is not None
        assert executed["elapsed"] > 0
        assert executed["attempts"] == 1
        assert cached["cached"] is True
        assert all(r["key"] == spec.key for r in rows)
        assert all("scenario" in r and "logged_at" in r for r in rows)

    def test_log_survives_corrupt_lines_and_stays_out_of_entries(
            self, tmp_path):
        store = ResultStore(tmp_path)
        store.log_outcome({"key": "k1", "ok": True})
        with store.log_path.open("a") as fh:
            fh.write("{torn json\n\n")
        store.log_outcome({"key": "k2", "ok": False})
        assert [r["key"] for r in store.read_log()] == ["k1", "k2"]
        assert len(store) == 0  # the .jsonl log is not a store entry
        store.log_path.unlink()
        assert store.read_log() == []

    def test_store_entries_expose_stats(self, tmp_path):
        spec = _telemetry_spec(probes=False, trace=False)
        store = ResultStore(tmp_path)
        CampaignRunner(store=store).run([spec])
        (entry,) = store.entries()
        assert entry.stats["sim.events"] > 0

    def test_trace_dir_exports_jsonl(self, tmp_path):
        spec = _telemetry_spec(probes=False)
        trace_dir = tmp_path / "traces"
        store = ResultStore(tmp_path / "store")
        CampaignRunner(store=store, trace_dir=trace_dir).run([spec])
        path = trace_dir / f"{spec.key}.jsonl"
        assert path.exists()
        events = read_trace_jsonl(path)
        assert events and events[0]["event"] == "arrival"
        header = json.loads(path.read_text().splitlines()[0])["header"]
        assert header["key"] == spec.key
        # cached outcomes export too: the trace rides in the store
        path.unlink()
        CampaignRunner(store=store, trace_dir=trace_dir).run([spec])
        assert path.exists()

    def test_run_spec_cli_end_to_end(self, tmp_path, capsys):
        """Acceptance: one run-spec study yields counters, probe series
        on each engine, a JSONL trace, and a report — spec/CLI options
        only, no figure code touched."""
        cache = tmp_path / "cache"
        traces = tmp_path / "traces"
        out = tmp_path / "report.json"
        code = cli_main([
            "run-spec", "examples/specs/telemetry_study.json",
            "--jobs", "0", "--cache", str(cache),
            "--trace-dir", str(traces),
        ])
        assert code == 0
        store = ResultStore(cache)
        entries = store.entries()
        assert len(entries) == 2  # packet + fluid
        for entry in entries:
            assert entry.stats
        collectors = [store.get(e.key) for e in entries]
        for collector in collectors:
            assert set(collector.probes) == {"bottleneck", "rates"}
            assert collector.trace
        assert len(list(traces.glob("*.jsonl"))) == 2
        capsys.readouterr()
        assert cli_main(["report", str(cache), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["n_entries"] == 2
        assert report["counters"]["sim.events"] > 0
        assert "report" in capsys.readouterr().out


class TestReport:
    def _store_with_runs(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [_telemetry_spec(probes=False, trace=False),
                 _telemetry_spec(probes=False, trace=False, engine="flow")]
        CampaignRunner(store=store).run(specs)
        CampaignRunner(store=store).run(specs)  # all cached
        return store

    def test_build_report_summarizes_campaign(self, tmp_path):
        store = self._store_with_runs(tmp_path)
        report = build_report(store)
        assert report["schema"] == 1
        assert report["n_entries"] == 2
        campaign = report["campaign"]
        assert campaign["runs"] == 4
        assert campaign["executed"] == 2
        assert campaign["cached"] == 2
        assert campaign["failed"] == 0
        assert campaign["cache_hit_rate"] == pytest.approx(0.5)
        assert campaign["workers"]
        assert campaign["wall_time_s"] > 0
        assert len(report["slowest"]) == 2
        assert report["slowest"][0]["elapsed_s"] >= \
            report["slowest"][1]["elapsed_s"]
        # packet and fluid counters aggregate in one namespace
        assert report["counters"]["sim.events"] > 0
        assert report["counters"]["fluid.iterations"] > 0
        assert report["validation"] is None

    def test_empty_store_reports_cleanly(self, tmp_path):
        report = build_report(ResultStore(tmp_path))
        assert report["n_entries"] == 0
        assert report["campaign"]["runs"] == 0
        assert report["campaign"]["cache_hit_rate"] is None
        assert report["slowest"] == []
        assert report["counters"] == {}

    def test_validation_margins_folded_in(self, tmp_path):
        validate = tmp_path / "VALIDATE.json"
        validate.write_text(json.dumps({
            "ok": True, "n_pairs": 1, "n_failed": 0,
            "pairs": [{
                "name": "edge/single-RCP",
                "checks": [
                    {"name": "mean_fct", "measured": 0.1, "limit": 0.5,
                     "ok": True},
                    {"name": "flow_count", "measured": None, "limit": None,
                     "ok": True},
                ],
            }],
        }))
        report = build_report(ResultStore(tmp_path / "s"),
                              validate_path=validate)
        validation = report["validation"]
        assert validation["ok"] is True
        assert validation["n_pairs"] == 1
        (margin,) = validation["tightest"]
        assert margin["pair"] == "edge/single-RCP"
        assert margin["check"] == "mean_fct"
        assert margin["margin"] == pytest.approx(0.2)

    def test_write_report_round_trips(self, tmp_path):
        report = build_report(ResultStore(tmp_path / "s"))
        out = tmp_path / "r.json"
        write_report(report, out)
        assert json.loads(out.read_text()) == report

    def test_cli_report_missing_validate_is_not_an_error(self, tmp_path,
                                                         capsys):
        store = self._store_with_runs(tmp_path)
        code = cli_main(["report", str(store.root),
                         "--validate", str(tmp_path / "missing.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "run counters" in out
        assert "no validation report" in out


class TestLogging:
    def test_get_logger_namespaces_under_repro(self):
        assert get_logger("campaign.runner").name == "repro.campaign.runner"
        assert get_logger("repro.obs").name == "repro.obs"

    def test_verbosity_levels(self):
        assert setup_cli_logging(-1).level == logging.ERROR
        assert setup_cli_logging(0).level == logging.WARNING
        assert setup_cli_logging(1).level == logging.INFO
        assert setup_cli_logging(2).level == logging.DEBUG
        logger = setup_cli_logging(0)
        assert len(logger.handlers) == 1  # idempotent
        assert logger.propagate is False

    def test_cli_verbose_flag_logs_campaign_info(self, tmp_path, capsys):
        code = cli_main([
            "-v", "validate", "--quick", "--only", "edge/empty",
            "--no-cache", "--jobs", "0",
            "--out", str(tmp_path / "v.json"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "INFO repro.campaign.runner" in err
        setup_cli_logging(0)  # restore default level for other tests
