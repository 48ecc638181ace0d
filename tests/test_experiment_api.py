"""Tests for the declarative Experiment API (panels, reducers, registry,
``run-spec``) and the figure-migration pins.

The golden fixtures under ``tests/data/`` were captured from the
pre-migration imperative ``figN`` modules (``capture_golden.py``): every
migrated panel must reproduce those results byte-identically (after a
canonicalizing JSON round-trip), and the ``run-fig N --dry-run``
listing plus the validation pair grids are pinned in ``cli_pins.json``.
"""

import importlib
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignRunner,
    ResultStore,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    registry,
    use_runner,
)
from repro.campaign.cli import main as cli_main
from repro.campaign.registry import build_topology, validate_spec_kinds
from repro.errors import CampaignError, ExperimentError
from repro.experiments import fig3
from repro.experiments.api import (
    Experiment,
    Panel,
    PanelRun,
    SearchSpec,
    experiment_kinds,
    figure_numbers,
    get_experiment,
    load_experiment_file,
    run_panel,
    validate_experiment,
)
from repro.experiments.reducers import collector_metric, get_reducer
from repro.units import KBYTE

DATA = Path(__file__).parent / "data"
SPECS_DIR = Path(__file__).parent.parent / "examples" / "specs"


def _load_capture_module():
    spec = importlib.util.spec_from_file_location(
        "capture_golden", DATA / "capture_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CAPTURE = _load_capture_module()
GOLDEN = json.loads((DATA / "experiment_golden.json").read_text())
CLI_PINS = json.loads((DATA / "cli_pins.json").read_text())
FIG3_PINS = json.loads((DATA / "fig3_reducer_pins.json").read_text())


def _flow_base(**overrides) -> ScenarioSpec:
    spec = dict(
        protocol="RCP",
        topology=TopologySpec("single_rooted"),
        workload=WorkloadSpec("fig3.aggregation", {
            "n_flows": 2,
            "mean_size": 100 * KBYTE,
            "mean_deadline": None,
        }),
        engine="flow",
    )
    spec.update(overrides)
    return ScenarioSpec(**spec)


# -- byte-identical figure outputs ------------------------------------------------


class TestGoldenFigureOutputs:
    """Every migrated panel reproduces the pre-migration output."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_panel_matches_pre_migration_output(self, name):
        target, kwargs = _CAPTURE.GOLDEN_CALLS[name]
        module_name, _, attr = target.partition(":")
        builder = getattr(importlib.import_module(module_name), attr)
        assert _CAPTURE.canonicalize(run_panel(builder(**kwargs))) == \
            GOLDEN[name]


class TestCliPins:
    @pytest.mark.parametrize("figure", sorted(CLI_PINS["dry_run"], key=int))
    def test_run_fig_dry_run_output_unchanged(self, figure, capsys):
        assert cli_main(["run-fig", figure, "--dry-run"]) == 0
        assert capsys.readouterr().out == CLI_PINS["dry_run"][figure]

    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_validation_pair_grids_unchanged(self, mode):
        from repro.validate.pairs import default_pairs

        got = [
            {"name": p.name, "family": p.family, "packet_key": p.packet.key,
             "fluid_key": p.fluid.key,
             "tolerance": [p.tolerance.fct_rtol, p.tolerance.app_tput_atol,
                           p.tolerance.completion_atol]}
            for p in default_pairs(mode == "quick")
        ]
        assert got == CLI_PINS["pairs"][mode]

    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_select_pairs_picks_the_pinned_packet_keys(self, mode):
        """``repro validate --only W`` picks the same cells by family and
        by protocol name (a substring of the pair name) as before the
        pairs were derived from the panels; the pins list each
        selection's indices into the pinned grid."""
        from repro.validate import VALIDATION_PROTOCOLS, default_pairs, \
            select_pairs

        pairs = default_pairs(mode == "quick")
        pinned = [p["packet_key"] for p in CLI_PINS["pairs"][mode]]
        select = CLI_PINS["select"][mode]
        families = sorted({p.family for p in pairs})
        assert sorted(select) == sorted([*families, *VALIDATION_PROTOCOLS])
        for wanted, indices in select.items():
            assert [p.packet.key for p in select_pairs(pairs, [wanted])] \
                == [pinned[i] for i in indices], wanted

    def test_pair_names_are_unique_and_name_the_protocol(self):
        from repro.validate import default_pairs

        for quick in (True, False):
            pairs = default_pairs(quick)
            assert len({p.name for p in pairs}) == len(pairs)
            assert all(p.name.startswith(f"{p.family}/") for p in pairs)
            assert all(p.protocol in p.name for p in pairs
                       if p.packet.workload.kind != "empty")

    def test_no_figures_dict_remains(self):
        import repro.campaign.cli as cli

        assert not hasattr(cli, "FIGURES")


# -- spec hashing -----------------------------------------------------------------


def _pinned_panel() -> Panel:
    return Panel(
        name="pinned",
        base=_flow_base(),
        axes=(
            ("protocol", ("RCP", "D3")),
            ("scheme", (("plain", {"options.n_subflows": 1}),
                        ("striped", {"options.n_subflows": 2}))),
            ("seed", (1, 2)),
        ),
        reducer="series",
        reducer_params={"x": "protocol", "metric": "mean_fct"},
    )


class TestSpecHashes:
    def test_panel_key_is_stable_across_versions(self):
        """Pinned: canonicalization changes silently break caches and
        user spec files."""
        assert _pinned_panel().key == (
            "1fc9d5eec1d908b2616fdf38c05c6bac"
            "eb2b2db82ab57427037d47ee12ddad5f"
        )

    def test_experiment_key_is_stable_across_versions(self):
        experiment = Experiment(name="pinned-exp", title="ignored",
                                panels=(_pinned_panel(),),
                                meta={"note": "pin"})
        assert experiment.key == (
            "371fc2ce8f83f360a6b06ebf05cb97bc"
            "58d7f72a97efd67a64fec620f3d024bf"
        )

    def test_title_does_not_change_the_key(self):
        a = _pinned_panel()
        b = Panel(name="pinned", title="a title", base=a.base, axes=a.axes,
                  reducer=a.reducer, reducer_params=a.reducer_params)
        assert a.key == b.key

    def test_canonical_roundtrip_preserves_key(self):
        panel = _pinned_panel()
        restored = Panel.from_dict(
            json.loads(json.dumps(panel.canonical()))
        )
        assert restored.key == panel.key
        assert [s.key for s in restored.expand()] == \
            [s.key for s in panel.expand()]

    def test_search_panel_roundtrip(self):
        panel = Panel(
            name="searchy",
            base=_flow_base(),
            axes=(("protocol", ("RCP",)),),
            search=SearchSpec(axis="workload.n_flows", target=0.5,
                              seeds=(1, 2), hi=8, scale=2.0),
        )
        restored = Panel.from_dict(json.loads(json.dumps(panel.canonical())))
        assert restored.key == panel.key
        assert restored.search == panel.search

    def test_fig9_lossless_cells_keep_their_keys(self):
        from repro.experiments.fig9 import fig9b_panel

        panel = fig9b_panel(loss_rates=(0.0, 0.01), protocols=("PDQ(Full)",),
                            seeds=(1,))
        lossless, lossy = panel.expand()
        assert lossless.key == (
            "c509f2334e9e03090ede20f69a4da4c2"
            "a56ce9cb651d7aaa2a863b6a14528e7f"
        )
        # the stored form of the same cell under the retired loss tuple
        # reads back as the rules the declarative cell runs
        stored = {**lossy.canonical(), "loss": ["sw0", "recv", 0.01, 1]}
        del stored["faults"]
        assert ScenarioSpec.from_dict(stored).loss_rules() == \
            lossy.loss_rules()


# -- grid expansion ---------------------------------------------------------------


class TestPanelGrids:
    def test_labeled_axis_sets_multiple_fields(self):
        panel = Panel(
            name="p", base=_flow_base(),
            axes=(("scheme", (("one", {"protocol": "RCP"}),
                              ("two", {"protocol": "PDQ(Full)",
                                       "options.criticality_mode":
                                       "random"}))),),
        )
        cells = panel.cells()
        assert [combo["scheme"] for combo, _ in cells] == ["one", "two"]
        assert cells[0][1].options == {}
        assert cells[1][1].protocol == "PDQ(Full)"
        assert cells[1][1].options == {"criticality_mode": "random"}

    def test_composite_axis_zips_fields(self):
        panel = Panel(
            name="p", base=_flow_base(),
            axes=(("protocol,seed", (("RCP", 1), ("D3", 2))),),
        )
        cells = panel.cells()
        assert len(cells) == 2
        assert cells[1][0]["protocol,seed"] == ("D3", 2)
        assert cells[1][1].protocol == "D3"
        assert cells[1][1].seed == 2

    def test_composite_axis_arity_checked(self):
        with pytest.raises(CampaignError):
            Panel(name="p", base=_flow_base(),
                  axes=(("protocol,seed", (("RCP",),)),)).cells()

    def test_exclude_drops_matching_cells(self):
        panel = Panel(
            name="p", base=_flow_base(),
            axes=(("engine", ("packet", "flow")),
                  ("protocol", ("RCP", "TCP"))),
            exclude=({"engine": "flow", "protocol": "TCP"},),
        )
        combos = [combo for combo, _ in panel.cells()]
        assert len(combos) == 3
        assert {"engine": "flow", "protocol": "TCP"} not in combos

    def test_empty_axis_rejected(self):
        with pytest.raises(CampaignError):
            Panel(name="p", base=_flow_base(),
                  axes=(("protocol", ()),)).cells()

    def test_panel_shape_validation(self):
        with pytest.raises(CampaignError):
            Panel(name="nothing")
        with pytest.raises(CampaignError):
            Panel(name="search-needs-base",
                  search=SearchSpec(axis="workload.n_flows"))

    def test_exclude_must_name_declared_axes(self):
        with pytest.raises(CampaignError, match="unknown axis"):
            Panel(name="p", base=_flow_base(),
                  axes=(("engine", ("packet", "flow")),),
                  exclude=({"engin": "flow"},))

    def test_exclude_rejected_on_explicit_specs(self):
        with pytest.raises(CampaignError, match="explicit spec list"):
            Panel(name="p", specs=(_flow_base(),),
                  exclude=({"protocol": "TCP"},))

    def test_panel_builders_accept_positional_args(self):
        from repro.experiments import fig6, fig7
        from repro.experiments.fig8 import fct_vs_size_panel
        from repro.experiments.fig9 import fig9b_panel

        keys = [
            fig6.fig6_panel(2, 100 * KBYTE).key,
            fig6.fig6_panel(n_flows=2, flow_size=100 * KBYTE).key,
            fig7.fig7_panel(3, 10 * KBYTE).key,
            fig7.fig7_panel(n_short=3, short_size=10 * KBYTE).key,
        ]
        assert keys[0] == keys[1] != keys[2] == keys[3]
        assert fct_vs_size_panel("bcube", (16,)).key == fct_vs_size_panel(
            family="bcube", sizes=(16,)).key
        assert fig9b_panel((0.0,), ("PDQ(Full)",)).key == fig9b_panel(
            loss_rates=(0.0,), protocols=("PDQ(Full)",)).key
        with pytest.raises(TypeError):
            fig6.fig6_panel(1, 2, 3, 4, 5)  # more args than it takes

    def test_retired_panel_runner_field_is_rejected(self):
        with pytest.raises(CampaignError, match="retired"):
            Panel.from_dict({"name": "p", "runner": "fig1.motivation"})

    def test_duplicate_panel_names_rejected(self):
        panel = Panel(name="p", base=_flow_base(),
                      axes=(("seed", (1,)),))
        with pytest.raises(CampaignError):
            Experiment(name="e", panels=(panel, panel))


# -- execution --------------------------------------------------------------------


class TestPanelExecution:
    def test_probe_panel_is_served_from_the_store(self, tmp_path,
                                                  monkeypatch):
        from repro.campaign import engines
        from repro.experiments.fig7 import fig7_panel

        panel = fig7_panel(n_short=3, short_size=10 * KBYTE,
                           long_size=200 * KBYTE, sim_deadline=0.1)
        executed = []
        real = engines.execute_spec
        monkeypatch.setattr(engines, "execute_spec",
                            lambda spec: executed.append(spec) or real(spec))
        with use_runner(CampaignRunner(store=ResultStore(tmp_path))):
            cold = run_panel(panel)
            assert len(executed) == 1
            warm = run_panel(panel)
        assert len(executed) == 1
        assert warm == cold
        assert cold["short_completed"] == 3

    def test_grid_panel_series_reducer(self):
        panel = Panel(
            name="p", base=_flow_base(),
            axes=(("protocol", ("RCP", "D3")), ("seed", (1, 2))),
            reducer="series",
            reducer_params={"x": "protocol", "metric": "mean_fct"},
        )
        result = run_panel(panel)
        assert set(result) == {"RCP", "D3"}
        assert all(v > 0 for v in result.values())

    def test_table_reducer_schema(self):
        panel = Panel(
            name="p", base=_flow_base(),
            axes=(("protocol", ("RCP",)), ("seed", (1, 2))),
            reducer="table",
            reducer_params={"metrics": ["mean_fct",
                                        "completion_fraction"]},
        )
        result = run_panel(panel)
        assert result["columns"] == ["protocol", "mean_fct",
                                     "completion_fraction"]
        assert len(result["rows"]) == 1
        assert result["rows"][0][0] == "RCP"
        assert result["rows"][0][2] == 1.0

    def test_search_capped_at_hi(self):
        # target 0.0 always passes; grow=False returns hi after two probes
        panel = Panel(
            name="p", base=_flow_base(),
            axes=(("protocol", ("RCP",)),),
            search=SearchSpec(axis="workload.n_flows", target=0.0,
                              metric="completion_fraction", hi=4,
                              grow=False),
            reducer="series",
            reducer_params={"x": "protocol"},
        )
        assert run_panel(panel) == {"RCP": 4}

    def test_search_require_deadlines_short_circuits(self):
        # the workload draws no deadlines, so every probe passes without
        # running a single scenario
        panel = Panel(
            name="p", base=_flow_base(),
            axes=(("protocol", ("RCP",)),),
            search=SearchSpec(axis="workload.n_flows", target=0.99,
                              hi=4, grow=False, require_deadlines=True),
            reducer="series",
            reducer_params={"x": "protocol"},
        )
        assert run_panel(panel) == {"RCP": 4}

    def test_normalize_to_flat_series(self):
        panel = Panel(
            name="p", base=_flow_base(),
            axes=(("protocol", ("RCP", "D3")), ("seed", (1,))),
            reducer="series",
            reducer_params={"x": "protocol", "metric": "mean_fct",
                            "normalize_to": "RCP"},
        )
        result = run_panel(panel)
        assert result["RCP"] == 1.0

    def test_agreement_reducer_needs_engine_axis(self):
        panel = Panel(
            name="p", base=_flow_base(),
            axes=(("protocol", ("RCP",)),),
            reducer="validate.agreement",
        )
        with pytest.raises(ExperimentError):
            run_panel(panel)

    def test_run_experiment_keys_by_panel(self):
        from repro.experiments.api import run_experiment

        experiment = Experiment(name="e", panels=(
            Panel(name="a", base=_flow_base(), axes=(("seed", (1,)),),
                  reducer="series",
                  reducer_params={"x": "seed", "metric": "mean_fct"}),
        ))
        result = run_experiment(experiment)
        assert list(result) == ["a"]


# -- reducer inputs: built once per panel run -------------------------------------


def _count_builds(monkeypatch) -> dict[str, int]:
    """Count registry topology/workload builds from here on."""
    calls = {"topology": 0, "workload": 0}
    build_topology = registry.build_topology
    build_workload = registry.build_workload

    def counted_topology(*args):
        calls["topology"] += 1
        return build_topology(*args)

    def counted_workload(*args):
        calls["workload"] += 1
        return build_workload(*args)

    monkeypatch.setattr(registry, "build_topology", counted_topology)
    monkeypatch.setattr(registry, "build_workload", counted_workload)
    return calls


def _fresh_flows(run, spec):
    """Rebuild a cell's inputs on every call: the memo-free reference."""
    return spec.workload.build(spec.topology.build(), spec.seed)


def _flow_engine(panel: Panel) -> Panel:
    return replace(panel, base=panel.base.with_(engine="flow"))


class TestPanelInputMemo:
    """A warm panel run builds each distinct reducer input once: one
    topology and one workload per (x, seed), whatever the protocols."""

    def test_warm_norm_fct_grid_builds_each_input_once(self, tmp_path,
                                                        monkeypatch):
        panel = _flow_engine(fig3.fig3d_panel(
            flow_counts=(2, 4), protocols=("PDQ(Full)", "PDQ(Basic)", "RCP"),
            seeds=(1, 2)))
        store = ResultStore(tmp_path)
        with use_runner(CampaignRunner(store=store)):
            cold = run_panel(panel)
            calls = _count_builds(monkeypatch)
            warm = run_panel(panel)
            assert calls == {"topology": 1, "workload": 4}
            monkeypatch.setattr(PanelRun, "flows", _fresh_flows)
            fresh = run_panel(panel)
        assert calls == {"topology": 1 + 12, "workload": 4 + 12}
        assert warm == cold == fresh

    def test_search_deadline_probes_share_one_topology(self, monkeypatch):
        panel = Panel(
            name="p", base=_flow_base(),
            axes=(("protocol", ("RCP", "D3")),),
            search=SearchSpec(axis="workload.n_flows", seeds=(1, 2), hi=4,
                              grow=False, require_deadlines=True),
            reducer="series",
            reducer_params={"x": "protocol"},
        )
        calls = _count_builds(monkeypatch)
        assert run_panel(panel) == {"RCP": 4, "D3": 4}
        # probes n=1 and n=4 per protocol; the first seed settles each
        assert calls == {"topology": 1, "workload": 2}


class TestFig3ReducerPins:
    """fig3 a, b, d and e on the flow engine (one seed, every protocol
    with a flow-level model) return exactly what they returned when the
    reducers rebuilt every input per row: same keys in the same order,
    same floats. ``fig3_reducer_pins.json`` was captured from these
    panels then."""

    @staticmethod
    def _panel(name: str) -> Panel:
        no_tcp = tuple(p for p in fig3.DEFAULT_PROTOCOLS if p != "TCP")
        fct = ("PDQ(Full)", "PDQ(ES)", "PDQ(Basic)", "RCP")
        build = {
            "fig3a": lambda: fig3.fig3a_panel(protocols=no_tcp, seeds=(1,)),
            "fig3b": lambda: fig3.fig3b_panel(protocols=no_tcp, seeds=(1,)),
            "fig3d": lambda: fig3.fig3d_panel(protocols=fct, seeds=(1,)),
            "fig3e": lambda: fig3.fig3e_panel(protocols=fct, seeds=(1,)),
        }[name]
        return _flow_engine(build())

    @pytest.mark.parametrize("name", list(FIG3_PINS))
    def test_panel_output_unchanged(self, name):
        got = run_panel(self._panel(name))
        assert json.dumps(got) == json.dumps(FIG3_PINS[name])


# -- registries and errors --------------------------------------------------------


class TestRegistries:
    @pytest.mark.parametrize("name", experiment_kinds())
    def test_every_registered_experiment_passes_the_dry_run(self, name):
        """Every name a registered experiment spells — kinds, engines,
        reducers, options — resolves, and every cell's inputs build."""
        assert validate_experiment(get_experiment(name)) >= 0

    def test_figures_and_validate_registered(self):
        kinds = experiment_kinds()
        assert "validate" in kinds
        assert figure_numbers() == [1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
        assert [p.name for p in get_experiment("fig3").panels] == [
            "fig3a", "fig3b", "fig3c", "fig3d", "fig3e",
        ]

    def test_unknown_kind_errors_suggest_close_matches(self):
        with pytest.raises(CampaignError, match="fattree"):
            build_topology("fatree", {})
        with pytest.raises(CampaignError,
                           match="Did you mean 'fig3.aggregation'"):
            validate_spec_kinds(_flow_base(
                workload=WorkloadSpec("fig3.agregation", {"n_flows": 2}),
            ))
        with pytest.raises(CampaignError, match="Did you mean 'packet'"):
            ScenarioSpec(
                protocol="RCP", topology=TopologySpec("single_rooted"),
                workload=WorkloadSpec("empty"), engine="packat",
            )
        with pytest.raises(CampaignError, match="Did you mean 'series'"):
            get_reducer("serie")
        with pytest.raises(CampaignError, match="Did you mean 'mean_fct'"):
            collector_metric("mean_fc")
        with pytest.raises(CampaignError, match="Did you mean 'fig5'"):
            get_experiment("fig55")

    def test_every_registered_panel_is_grid_or_search(self):
        kinds = {panel.kind for name in experiment_kinds()
                 for panel in get_experiment(name).panels}
        assert kinds == {"grid", "search"}

    def test_experiment_registry_unknown(self):
        with pytest.raises(CampaignError, match="registered"):
            get_experiment("no-such-experiment")


# -- run-spec files ---------------------------------------------------------------


EXAMPLE_SPECS = sorted(SPECS_DIR.glob("*.json"))


class TestRunSpecFiles:
    def test_examples_exist(self):
        assert len(EXAMPLE_SPECS) >= 2

    @pytest.mark.parametrize(
        "path", EXAMPLE_SPECS, ids=[p.stem for p in EXAMPLE_SPECS]
    )
    def test_example_file_roundtrip(self, path):
        experiment = load_experiment_file(str(path))
        # every registry reference resolves and every grid expands
        validate_experiment(experiment)
        restored = Experiment.from_dict(
            json.loads(json.dumps(experiment.canonical()))
        )
        assert restored.key == experiment.key

    @pytest.mark.parametrize(
        "path", EXAMPLE_SPECS, ids=[p.stem for p in EXAMPLE_SPECS]
    )
    def test_example_file_dry_run_cli(self, path, capsys):
        assert cli_main(["run-spec", str(path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "dry run: no scenarios executed" in out

    def test_smallest_example_runs_end_to_end(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        rc = cli_main([
            "run-spec", str(SPECS_DIR / "aggregation_deadline_sweep.json"),
            "--jobs", "0", "--no-cache", "--out", str(out_path),
        ])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["experiment"] == "aggregation-deadline-sweep"
        series = payload["results"]["app-throughput"]
        assert set(series) == {"PDQ(Full)", "D3", "RCP"}
        table = payload["results"]["summary-table"]
        assert table["columns"][0] == "protocol"

    def test_run_spec_caches_scenarios(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["run-spec",
                str(SPECS_DIR / "aggregation_deadline_sweep.json"),
                "--jobs", "0", "--cache", cache]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "cached" in out

    def test_bad_file_reports_campaign_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "bad",
            "panels": [{
                "name": "p",
                "base": {
                    "protocol": "RCP",
                    "topology": {"kind": "single_rooted"},
                    "workload": {"kind": "no.such.kind"},
                    "engine": "flow",
                },
                "axes": [["seed", [1]]],
            }],
        }))
        assert cli_main(["run-spec", str(bad), "--dry-run"]) == 1
        assert "unknown workload kind" in capsys.readouterr().err

    def test_unknown_reducer_caught_by_dry_run(self, tmp_path, capsys):
        bad = tmp_path / "bad_reducer.json"
        bad.write_text(json.dumps({
            "name": "bad",
            "panels": [{
                "name": "p",
                "base": {
                    "protocol": "RCP",
                    "topology": {"kind": "single_rooted"},
                    "workload": {"kind": "empty"},
                    "engine": "flow",
                },
                "axes": [["seed", [1]]],
                "reducer": "serie",
            }],
        }))
        assert cli_main(["run-spec", str(bad), "--dry-run"]) == 1
        assert "Did you mean 'series'" in capsys.readouterr().err

    def test_unknown_probe_kind_caught_by_dry_run(self, capsys):
        data = json.loads((SPECS_DIR / "fig7_burst.json").read_text())
        data["panels"][0]["base"]["options"]["probes"]["rates"]["kind"] = (
            "flow_rate")
        with pytest.raises(ExperimentError, match="unknown kind 'flow_rate'"):
            validate_experiment(Experiment.from_dict(data))

    def test_probe_reducer_names_a_missing_probe(self):
        from repro.experiments.fig7 import fig7_panel

        panel = fig7_panel(n_short=1, short_size=10 * KBYTE,
                           long_size=20 * KBYTE, sim_deadline=0.05)
        bare = replace(panel, base=panel.base.with_(options={}))
        with pytest.raises(ExperimentError, match="bottleneck"):
            run_panel(bare)

    def test_not_json_reports_campaign_error(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        assert cli_main(["run-spec", str(bad), "--dry-run"]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_misspelled_panel_field_rejected(self):
        with pytest.raises(CampaignError, match="did you mean 'exclude'"):
            Panel.from_dict({
                "name": "p",
                "base": _flow_base().canonical(),
                "axes": [["seed", [1]]],
                "exlude": [{"protocol": "TCP"}],
            })
        with pytest.raises(CampaignError,
                           match="did you mean 'require_deadlines'"):
            SearchSpec.from_dict({"axis": "workload.n_flows",
                                  "require_deadline": True})
        with pytest.raises(CampaignError, match="did you mean 'panels'"):
            Experiment.from_dict({"name": "e", "panles": []})

    def test_composite_axis_result_survives_cli_json(self, tmp_path,
                                                     capsys):
        """Tuple-keyed reducer output must not crash the CLI dump."""
        spec = tmp_path / "composite.json"
        spec.write_text(json.dumps({
            "name": "composite",
            "panels": [{
                "name": "p",
                "base": _flow_base().canonical(),
                "axes": [["protocol,seed", [["RCP", 1], ["D3", 2]]]],
                "reducer": "series",
                "reducer_params": {"x": "protocol,seed",
                                   "metric": "mean_fct"},
            }],
        }))
        rc = cli_main(["run-spec", str(spec), "--jobs", "0", "--no-cache"])
        assert rc == 0
        assert "('RCP', 1)" in capsys.readouterr().out
