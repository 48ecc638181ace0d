"""Tests for the cross-engine validation subsystem and the packet
engine's first-class path through the campaign runner."""

import json
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignRunner,
    ResultStore,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
    use_runner,
)
from repro.campaign.cli import main as cli_main
from repro.errors import ExperimentError
from repro.experiments.api import Panel, run_panel
from repro.metrics.collector import MetricsCollector
from repro.units import GBPS, KBYTE
from repro.validate import (
    Tolerance,
    ValidationPair,
    compare_pair,
    default_pairs,
    panel_pairs,
    run_validation,
    select_pairs,
    write_report,
)
from repro.validate.pairs import (
    ENGINES,
    edge_empty_panel,
    edge_single_panel,
    fig3_panel,
)
from repro.workload.flow import FlowSpec


def _edge_pairs():
    return panel_pairs(edge_empty_panel()) + panel_pairs(edge_single_panel())


def _single_flow_spec(protocol="RCP", engine="packet",
                      size_bytes=100 * KBYTE):
    return ScenarioSpec(
        protocol=protocol,
        topology=TopologySpec("single_rooted"),
        workload=WorkloadSpec("single_flow", {
            "src": "h1", "dst": "h0", "size_bytes": size_bytes,
        }),
        engine=engine,
        sim_deadline=2.0,
    )


def _empty_spec(engine="packet"):
    return ScenarioSpec(
        protocol="RCP",
        topology=TopologySpec("single_rooted"),
        workload=WorkloadSpec("empty"),
        engine=engine,
        sim_deadline=0.5,
    )


def _recording_runners(monkeypatch):
    """Replace both engine runners with stubs that record what
    execute_spec hands them."""
    from repro.campaign import engines

    calls = []

    def stub(engine):
        def run(topology, protocol, flows, **options):
            calls.append((engine, protocol, flows, options))
            return MetricsCollector()
        return run

    monkeypatch.setattr(engines, "run_packet_level", stub("packet"))
    monkeypatch.setattr(engines, "run_flow_level", stub("flow"))
    return calls


class TestEngineDispatch:
    """execute_spec runs a spec on the runner its engine names."""

    def test_engines_are_packet_then_flow(self):
        from repro.campaign import engines
        from repro.validate import pairs

        assert engines.ENGINES == ("packet", "flow")
        assert pairs.ENGINES is engines.ENGINES
        spec = ScenarioSpec(protocol="RCP",
                            topology=TopologySpec("single_rooted"),
                            workload=WorkloadSpec("empty"))
        assert spec.engine == engines.ENGINES[0]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_execute_spec_calls_the_engine_runner(self, engine, monkeypatch):
        from repro.campaign.engines import execute_spec

        calls = _recording_runners(monkeypatch)
        execute_spec(_single_flow_spec(engine=engine))
        [(ran, protocol, flows, options)] = calls
        assert (ran, protocol, len(flows)) == (engine, "RCP", 1)
        assert options["sim_deadline"] == 2.0
        assert options["faults"] is None
        # the loss rules are the packet engine's alone
        assert ("loss" in options) == (engine == "packet")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_open_workload_horizon_is_the_default_deadline(self, engine,
                                                           monkeypatch):
        from repro.campaign.engines import execute_spec

        calls = _recording_runners(monkeypatch)
        spec = ScenarioSpec(
            protocol="RCP",
            topology=TopologySpec("single_rooted"),
            workload=WorkloadSpec("open_system", {
                "duration": 0.05, "rate_per_sec": 1000.0,
                "size_scale": 0.01,
            }),
            engine=engine,
        )
        execute_spec(spec)
        execute_spec(spec.with_(sim_deadline=0.2))
        [(_, _, stream, implicit), (_, _, _, explicit)] = calls
        assert stream.horizon is not None
        assert implicit["sim_deadline"] == stream.horizon
        assert explicit["sim_deadline"] == 0.2


class TestPacketEngineThroughCampaign:
    def test_packet_spec_runs_and_serializes(self):
        collector = run_scenario(_single_flow_spec())
        assert len(collector) == 1
        restored = MetricsCollector.from_dict(
            json.loads(json.dumps(collector.to_dict()))
        )
        assert restored.to_dict() == collector.to_dict()

    def test_warm_store_executes_nothing(self, tmp_path):
        """Acceptance (satellite): a packet-engine cache hit returns
        executed_count == 0 on a warm ResultStore."""
        specs = [_single_flow_spec(p) for p in ("RCP", "PDQ(Full)")]
        store = ResultStore(tmp_path)
        cold = CampaignRunner(store=store).run(specs)
        assert cold.executed_count == 2
        warm = CampaignRunner(store=store).run(specs)
        assert warm.executed_count == 0
        assert warm.cached_count == 2
        for a, b in zip(cold.collectors(), warm.collectors(), strict=True):
            assert a.to_dict() == b.to_dict()

    def test_packet_parallel_matches_serial(self, tmp_path):
        specs = [_single_flow_spec(p) for p in ("RCP", "PDQ(Full)")]
        serial = CampaignRunner(max_workers=0).run(specs)
        parallel = CampaignRunner(max_workers=2).run(specs)
        for a, b in zip(serial.collectors(), parallel.collectors(), strict=True):
            assert a.to_dict() == b.to_dict()


class TestPairGrids:
    def test_fluid_twin_differs_only_in_engine(self):
        pair = panel_pairs(fig3_panel(quick=True))[0]
        assert pair.packet.engine == "packet"
        assert pair.fluid.engine == "flow"
        assert pair.fluid.key != pair.packet.key
        packet_dict = pair.packet.canonical()
        fluid_dict = pair.fluid.canonical()
        packet_dict.pop("engine")
        fluid_dict.pop("engine")
        assert packet_dict == fluid_dict

    def test_base_spec_must_be_packet(self):
        with pytest.raises(ValueError, match="must be packet"):
            ValidationPair(
                name="bad", family="edge",
                packet=_single_flow_spec(engine="flow"),
                tolerance=Tolerance(fct_rtol=0.1),
            )

    def test_default_grid_covers_required_families(self):
        pairs = default_pairs(quick=True)
        families = {p.family for p in pairs}
        assert families == {"edge", "fig3", "fig5", "fattree", "faults"}
        protocols = {p.protocol for p in pairs
                     if p.family in ("fig3", "fig5")}
        assert protocols == {"PDQ(Full)", "D3", "RCP"}
        fattree = [p for p in pairs if p.family == "fattree"]
        assert [p.protocol for p in fattree] == ["PDQ(Full)"]
        assert fattree[0].tolerance.fct_rtol == 0.6
        faults = [p for p in pairs if p.family == "faults"]
        assert [p.protocol for p in faults] == ["PDQ(Full)", "RCP"]
        assert all(p.packet.faults is not None for p in faults)

    def test_full_grid_is_larger(self):
        assert len(default_pairs(quick=False)) > len(default_pairs(quick=True))

    def test_select_by_family_and_substring(self):
        pairs = default_pairs(quick=True)
        assert all(p.family == "fig3" for p in select_pairs(pairs, ["fig3"]))
        d3 = select_pairs(pairs, ["D3"])
        assert d3 and all("D3" in p.name for p in d3)
        with pytest.raises(ExperimentError, match="no validation pairs"):
            select_pairs(pairs, ["fig99"])


def _collector(fcts, deadline=None):
    """Synthetic collector: flows h1->h0, completion at arrival+fct."""
    collector = MetricsCollector()
    for fid, fct in enumerate(fcts):
        spec = FlowSpec(fid=fid, src="h1", dst="h0",
                        size_bytes=10 * KBYTE, arrival=0.0,
                        deadline=deadline)
        collector.register(spec)
        collector.on_start(fid, 0.0)
        if fct is not None:
            collector.on_complete(fid, fct)
    return collector


class TestCompare:
    def _pair(self, **tol):
        tol.setdefault("fct_rtol", 0.5)
        return ValidationPair(
            name="t", family="edge", packet=_single_flow_spec(),
            tolerance=Tolerance(**tol),
        )

    def test_agreement_within_tolerance_passes(self):
        outcome = compare_pair(
            self._pair(), _collector([1.0, 1.2]), _collector([1.0, 1.0])
        )
        assert outcome.ok
        assert {c.name for c in outcome.checks} >= {
            "flow_count", "completed_fraction", "mean_fct",
        }

    def test_fct_gap_beyond_tolerance_fails(self):
        outcome = compare_pair(
            self._pair(fct_rtol=0.05),
            _collector([2.0]), _collector([1.0]),
        )
        assert not outcome.ok
        assert [c.name for c in outcome.failures()] == ["mean_fct"]

    def test_flow_count_mismatch_is_terminal(self):
        outcome = compare_pair(
            self._pair(), _collector([1.0, 1.0]), _collector([1.0])
        )
        assert not outcome.ok
        assert [c.name for c in outcome.checks] == ["flow_count"]

    def test_one_sided_completion_fails(self):
        outcome = compare_pair(
            self._pair(completion_atol=1.0),
            _collector([None]), _collector([1.0]),
        )
        assert not outcome.ok
        assert any(
            c.name == "mean_fct" and not c.ok for c in outcome.checks
        )

    def test_deadline_throughput_gap_fails(self):
        outcome = compare_pair(
            self._pair(fct_rtol=10.0, app_tput_atol=0.1,
                       completion_atol=1.0),
            _collector([5.0, 5.0], deadline=1.0),   # both miss
            _collector([0.5, 0.5], deadline=1.0),   # both meet
        )
        assert any(
            c.name == "application_throughput" and not c.ok
            for c in outcome.checks
        )

    def test_empty_pair_agrees(self):
        outcome = compare_pair(self._pair(), _collector([]), _collector([]))
        assert outcome.ok
        assert [c.name for c in outcome.checks] == ["flow_count"]


class TestRunValidation:
    def test_edge_family_passes_live(self):
        """Zero-flow and single-flow pairs agree across real engines."""
        report = run_validation(pairs=_edge_pairs())
        assert report.ok
        names = {o.name for o in report.outcomes}
        assert "edge/empty" in names
        empty = next(o for o in report.outcomes if o.name == "edge/empty")
        assert empty.packet_summary["n_flows"] == 0
        assert empty.fluid_summary["n_flows"] == 0

    def test_harness_and_panel_reducer_gate_pairs_identically(self):
        """``repro validate`` (pairs through the harness) and ``run-spec``
        (the panel through its ``validate.agreement`` reducer) give the
        same names, checks, measured values and limits."""
        panels = (edge_empty_panel(), edge_single_panel())
        report = run_validation(
            pairs=[p for panel in panels for p in panel_pairs(panel)])
        via_reducer = [o for panel in panels
                       for o in run_panel(panel)["pairs"]]
        assert [o.to_dict() for o in report.outcomes] == via_reducer
        assert [o["name"] for o in via_reducer] == [
            "edge/empty", "edge/PDQ(Full)", "edge/D3", "edge/RCP"]

    def test_panel_without_engine_axis_has_no_pairs(self):
        panel = edge_single_panel()
        no_engine = Panel(name="p", base=panel.base,
                          axes=(("protocol", ("RCP",)),),
                          reducer="validate.agreement")
        with pytest.raises(ExperimentError, match="'engine' axis"):
            panel_pairs(no_engine)
        one_engine = Panel(name="p", base=panel.base,
                           axes=(("engine", ("packet",)),),
                           reducer="validate.agreement")
        with pytest.raises(ExperimentError, match="exactly the engines"):
            panel_pairs(one_engine)
        # a labeled engine axis that moves another field too: the flow
        # run is not the packet cell's twin, so it cannot be its pair
        skewed = Panel(name="p", base=panel.base,
                       axes=(("engine", (
                           ("packet", {"engine": "packet"}),
                           ("flow", {"engine": "flow",
                                     "sim_deadline": 3.0}))),),
                       reducer="validate.agreement")
        with pytest.raises(ExperimentError, match="only in the engine"):
            panel_pairs(skewed)
        nothing = Panel(name="p", base=panel.base,
                        axes=(("engine", ENGINES),),
                        exclude=({"engine": "packet"}, {"engine": "flow"}),
                        reducer="validate.agreement")
        with pytest.raises(ExperimentError, match="no cells to pair"):
            panel_pairs(nothing)

    def test_unmeasured_protocol_fails_the_dry_run(self, tmp_path, capsys):
        """A panel whose protocol has no measured bound used to run all
        its cells, then fail in the reducer; the dry run now derives the
        pairs, so it fails there, naming the cell and the bound."""
        path = tmp_path / "basic.json"

        def dry_run(panel: Panel) -> int:
            path.write_text(json.dumps(
                {"name": "basic", "panels": [panel.canonical()]}))
            return cli_main(["run-spec", str(path), "--dry-run"])

        panel = fig3_panel(True, protocols=("PDQ(Basic)",))
        assert dry_run(panel) == 1
        err = capsys.readouterr().err
        assert err.startswith("campaign error: panel 'fig3-agreement-quick'"
                              ": cell ('PDQ(Basic)', 3, None, 1): ")
        assert "no measured fct_rtol for 'PDQ(Basic)'" in err
        bounds = {**panel.reducer_params, "fct_rtol": 0.5,
                  "app_tput_atol": 0.3, "completion_atol": 0.3}
        assert dry_run(replace(panel, reducer_params=bounds)) == 0
        misspelt = {**bounds, "fct_rtoll": 0.5}
        assert dry_run(replace(panel, reducer_params=misspelt)) == 1
        assert "unexpected keyword argument 'fct_rtoll'" in \
            capsys.readouterr().err

    def test_single_flow_fct_matches_analytic_bound(self):
        """Satellite: one uncontended flow must finish in about
        size/rate (+ a startup allowance) in *both* engines."""
        size = 100 * KBYTE
        wire_floor = size * 8 / (1 * GBPS)  # payload serialization alone
        for engine in ("packet", "flow"):
            collector = run_scenario(
                _single_flow_spec("RCP", engine=engine, size_bytes=size)
            )
            fct = collector.mean_fct()
            assert wire_floor < fct < 1.5 * wire_floor, (engine, fct)

    def test_violation_reported_not_raised(self):
        pair = ValidationPair(
            name="edge/too-strict", family="edge",
            packet=_single_flow_spec("D3"),
            tolerance=Tolerance(fct_rtol=1e-6),
        )
        report = run_validation(pairs=[pair])
        assert not report.ok
        assert report.n_failed == 1
        assert report.failures()[0].failures()[0].name == "mean_fct"

    def test_scenario_error_fails_pair_not_run(self):
        bad = ValidationPair(
            name="edge/bad", family="edge",
            packet=_single_flow_spec().with_(**{"workload.src": "nope"}),
            tolerance=Tolerance(fct_rtol=1.0),
        )
        good = _edge_pairs()[0]
        report = run_validation(pairs=[bad, good])
        assert not report.ok
        by_name = {o.name: o for o in report.outcomes}
        assert by_name["edge/bad"].error is not None
        assert by_name[good.name].ok

    def test_validation_uses_ambient_runner_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        pairs = _edge_pairs()[:2]
        with use_runner(CampaignRunner(store=store)):
            run_validation(pairs=pairs)
        assert len(store) == 2 * len(pairs)
        executed = []
        with use_runner(CampaignRunner(
            store=store,
            progress=lambda o, d, t: executed.append(o)
            if not o.cached else None,
        )):
            report = run_validation(pairs=pairs)
        assert report.ok
        assert executed == []

    def test_report_roundtrip(self, tmp_path):
        report = run_validation(pairs=_edge_pairs()[:1])
        out = tmp_path / "report.json"
        payload = write_report(report, path=str(out))
        on_disk = json.loads(out.read_text())
        assert on_disk == payload
        assert on_disk["schema"] == 1
        assert on_disk["suite"] == "cross_engine"
        assert on_disk["ok"] is True
        assert on_disk["n_pairs"] == 1
        pair = on_disk["pairs"][0]
        for field in ("name", "family", "protocol", "checks",
                      "packet", "fluid"):
            assert field in pair


class TestValidateCli:
    def test_list_and_dry_run(self, capsys):
        assert cli_main(["validate", "--quick", "--list"]) == 0
        assert "edge/empty" in capsys.readouterr().out
        assert cli_main(["validate", "--quick", "--dry-run"]) == 0
        assert "no scenarios executed" in capsys.readouterr().out

    def test_edge_family_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "VALIDATE.json"
        code = cli_main([
            "validate", "--quick", "--only", "edge/empty",
            "edge/RCP", "--no-cache", "--jobs", "0",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True
        # a stale selector matches nothing: both pairs must have run
        assert report["n_pairs"] == 2
        assert "cross-engine validation" in capsys.readouterr().out

    def test_unknown_family_fails_cleanly(self, capsys):
        assert cli_main(["validate", "--only", "fig99", "--list"]) == 1
        assert "no validation pairs" in capsys.readouterr().err
