"""The spec dataclasses are their own JSON schema.

Each case starts from the smallest legal document of one spec class and
breaks one field of it, for every field the class declares: the wrong
JSON type, a bool where a number goes, NaN and ±inf, the field missing,
an unknown key. Every case must be a :class:`CampaignError` naming the
JSON path (``search hi: must be an integer, got '1'``), through
``from_dict`` and through direct construction alike. A failure here
means a spec file can again reach a cell as a traceback, or run as a
silently different scenario.
"""

import json
import math
import re
import typing
from dataclasses import MISSING, fields, replace

import pytest

from repro.campaign.cli import main as cli_main
from repro.campaign.engines import check_options, make_model, make_stack
from repro.campaign.spec import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.errors import CampaignError, FaultError
from repro.experiments.api import Experiment, Panel, SearchSpec
from repro.faults.spec import FaultEvent, Faults, LossRule
from repro.metrics.streaming import StreamingOptions
from repro.obs.probes import FlowRatesProbe, LinkProbe

LOSS_RULE = {"src": "a", "dst": "b", "rate": 0.5}

#: the smallest legal document of each spec shape, and its path root
MINIMAL = [
    (TopologySpec, {"kind": "single_rooted"}, "topology"),
    (WorkloadSpec, {"kind": "empty"}, "workload"),
    (ScenarioSpec, {"protocol": "RCP", "topology": {"kind": "single_rooted"},
                    "workload": {"kind": "empty"}}, "scenario"),
    (SearchSpec, {"axis": "workload.n_flows"}, "search"),
    (Panel, {"name": "p", "specs": []}, "panel 'p'"),
    (Experiment, {"name": "e", "panels": [{"name": "p", "specs": []}]},
     "experiment 'e'"),
    # a fault event in its link form and in its switch form
    (FaultEvent, {"time": 0.0, "action": "link_down", "a": "x", "b": "y"},
     "fault event"),
    (FaultEvent, {"time": 0.0, "action": "switch_down", "node": "s"},
     "fault event"),
    (LossRule, LOSS_RULE, "loss rule"),
    (Faults, {"loss": [LOSS_RULE]}, "faults"),
    # a probe's kind picks its class, and is no field of it
    (LinkProbe, {"interval": 1, "link": ["a", "b"]}, "link probe"),
    (FlowRatesProbe, {"interval": 1}, "flow rates probe"),
    (StreamingOptions, {}, "streaming options"),
]

#: JSON values no field of any spec class accepts
NON_FINITE = [math.nan, math.inf, -math.inf]


def _id(cls, doc) -> str:
    """A shape's test id: its class name, and a fault event's action."""
    return cls.__name__ + (f"({doc['action']})" if cls is FaultEvent else "")


def _doc(cls) -> dict:
    return next(doc for shape, doc, _ in MINIMAL if shape is cls)


def _is_str(cls, name: str) -> bool:
    hint = typing.get_type_hints(cls)[name]
    return str in (hint, *typing.get_args(hint))


def _cases(kind: str) -> list:
    out = []
    for cls, doc, root in MINIMAL:
        for f in fields(cls):
            if kind == "wrong-type":
                values = [5 if _is_str(cls, f.name) else "x"]
            elif kind == "bool":
                if typing.get_type_hints(cls)[f.name] is bool:
                    continue
                values = [True]
            else:
                values = NON_FINITE
            for value in values:
                out.append(pytest.param(
                    cls, doc, root, f.name, value,
                    id=f"{_id(cls, doc)}.{f.name}={value!r}"))
    return out


class TestGeneratedSchema:
    @pytest.mark.parametrize("cls, doc", [
        pytest.param(cls, doc, id=_id(cls, doc)) for cls, doc, _ in MINIMAL])
    def test_minimal_document_parses_and_round_trips(self, cls, doc):
        spec = cls.from_dict(doc)
        assert cls.from_dict(spec.canonical()) == spec

    @pytest.mark.parametrize("cls, doc, root, name, value",
                             _cases("wrong-type") + _cases("bool")
                             + _cases("non-finite"))
    def test_bad_field_value_is_named(self, cls, doc, root, name, value):
        if name == "name":  # the root names the document by its name
            root = f"{root.split()[0]} {value!r}"
        message = re.escape(f"{root} {name}: must be")
        with pytest.raises(CampaignError, match=message):
            cls.from_dict({**doc, name: value})
        # direct construction and replace read the field the same way
        with pytest.raises(CampaignError, match=message):
            replace(cls.from_dict(doc), **{name: value})

    @pytest.mark.parametrize("cls, doc, root, name", [
        pytest.param(cls, doc, root, f.name, id=f"{_id(cls, doc)}-{f.name}")
        for cls, doc, root in MINIMAL for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING])
    def test_missing_required_field_is_named(self, cls, doc, root, name):
        if name == "name":  # a nameless document has a bare root
            root = root.split()[0]
        with pytest.raises(CampaignError, match=re.escape(
                f"{root}: missing required field {name!r}")):
            cls.from_dict({k: v for k, v in doc.items() if k != name})

    @pytest.mark.parametrize("cls, doc, root", [
        pytest.param(*entry, id=_id(*entry[:2])) for entry in MINIMAL])
    def test_unknown_key_is_named(self, cls, doc, root):
        with pytest.raises(CampaignError,
                           match=re.escape(f"{root}: unknown field(s) "
                                           "'bogus'")):
            cls.from_dict({**doc, "bogus": 1})

    def test_required_fields_are_the_ones_without_defaults(self):
        required = {cls.__name__: sorted(
            f.name for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING)
            for cls, _, _ in MINIMAL}
        assert required == {
            "TopologySpec": ["kind"], "WorkloadSpec": ["kind"],
            "ScenarioSpec": ["protocol", "topology", "workload"],
            "SearchSpec": ["axis"], "Panel": ["name"], "Experiment": ["name"],
            "FaultEvent": ["action", "time"],
            "LossRule": ["dst", "rate", "src"], "Faults": [],
            "LinkProbe": ["interval", "link"],
            "FlowRatesProbe": ["interval"], "StreamingOptions": [],
        }

    @pytest.mark.parametrize("cls", [FaultEvent, LossRule, Faults])
    def test_a_fault_shape_raises_fault_errors(self, cls):
        with pytest.raises(FaultError):
            cls.from_dict({**_doc(cls), "bogus": 1})

    def test_a_malformed_faults_field_is_a_fault_error_at_its_path(self):
        with pytest.raises(FaultError, match=re.escape(
                "scenario faults events[0] time: must be >= 0, got -1")):
            ScenarioSpec.from_dict({**_doc(ScenarioSpec), "faults": {
                "events": [{"time": -1, "action": "switch_down",
                            "node": "s"}]}})

    def test_nested_error_names_the_whole_path(self):
        doc = {"name": "e", "panels": [{"name": "p", "specs": [
            _doc(ScenarioSpec),
            {**_doc(ScenarioSpec),
             "workload": {"kind": "empty", "params": [1]}},
        ]}]}
        with pytest.raises(CampaignError, match=re.escape(
                "experiment 'e' panels[0] specs[1] workload params: "
                "must be a mapping, got [1]")):
            Experiment.from_dict(doc)

    def test_with_reads_like_construction(self):
        spec = ScenarioSpec.from_dict(_doc(ScenarioSpec))
        with pytest.raises(CampaignError, match="scenario seed: must be an "
                                                "integer, got '2'"):
            spec.with_(seed="2")
        with pytest.raises(CampaignError, match="scenario options"):
            spec.with_(options=[1])


# -- the defects a spec file could reach a cell with ----------------------------------


def _spec_file(tmp_path, **base):
    """A one-panel spec file whose base spec is a small flow-engine RCP
    cell updated with ``base`` (the file with its ``experiment`` entry,
    the panel with its ``panel`` entry)."""
    top = base.pop("experiment", {})
    panel = {"name": "p", "axes": [["seed", [1]]], **base.pop("panel", {}),
             "base": {
        "protocol": "RCP",
        "topology": {"kind": "single_rooted"},
        "workload": {"kind": "fig3.aggregation",
                     "params": {"n_flows": 2, "mean_size": 100000}},
        "engine": "flow",
        **base}}
    doc = {"name": "x", "panels": [panel], **top}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def _dry_run(tmp_path, capsys, **base) -> str:
    """``run-spec --dry-run`` on :func:`_spec_file`; returns stderr after
    asserting the dry run failed."""
    path = _spec_file(tmp_path, **base)
    assert cli_main(["run-spec", str(path), "--dry-run"]) == 1
    return capsys.readouterr().err


class TestDryRunRejects:
    def test_misspelt_protocol(self, tmp_path, capsys):
        """The flow engine used to run ``PDQ(Fulll)`` as PDQ(Full)."""
        err = _dry_run(tmp_path, capsys, protocol="PDQ(Fulll)")
        assert "unknown protocol kind 'PDQ(Fulll)'" in err
        assert "Did you mean 'PDQ(Full)'?" in err

    @pytest.mark.parametrize("engine", ["packet", "flow"])
    @pytest.mark.parametrize("protocol", ["RCP", "D3"])
    @pytest.mark.parametrize("option", ["bogus_option", "aging_rate"])
    def test_option_the_protocol_ignores(self, tmp_path, capsys, engine,
                                         protocol, option):
        """These ran, and cached an unchanged result under a new key."""
        err = _dry_run(tmp_path, capsys, protocol=protocol, engine=engine,
                       options={option: 1})
        assert (f"{protocol} on the {engine} engine takes no option "
                f"{option!r}") in err

    def test_misspelt_pdq_option(self, tmp_path, capsys):
        """This passed the dry run, then every cell died with a bare
        ``TypeError`` from ``PdqConfig``."""
        err = _dry_run(tmp_path, capsys, protocol="PDQ(Full)",
                       options={"early_terminaton": False})
        assert ("'early_terminaton' (did you mean 'early_termination'?)"
                in err)

    @pytest.mark.parametrize("protocol, options, message", [
        # passed the dry run, then every cell died with a bare TypeError
        # comparing the string with a number
        ("PDQ(Basic)", {"aging_rate": "x"},
         "options aging_rate: must be a finite number, got 'x'"),
        # passed the dry run, then died in PdqConfig.basic with "got
        # multiple values for keyword argument"
        ("PDQ(Basic)", {"early_start": True},
         "options early_start: PDQ(Basic) fixes early_start=False"),
        ("PDQ(Full)", {"hard_flow_limit": 8.5},
         "options hard_flow_limit: must be an integer, got 8.5"),
        ("PDQ(Full)", {"K": -1.0}, "options: PDQ(Full): K must be >= 0"),
        ("PDQ(ES)", {"criticality_mode": "edf"},
         "options: PDQ(ES): unknown criticality_mode 'edf'"),
        # passed the dry run: the first died at its first switch in
        # PeriodicTimer, the others ran with an empty flow list or a
        # negative crumb floor
        ("PDQ(Full)", {"rate_controller_rtts": 0.0},
         "options: PDQ(Full): rate_controller_rtts must be > 0, got 0.0"),
        ("PDQ(Full)", {"hard_flow_limit": 0},
         "options: PDQ(Full): hard_flow_limit must be >= 1, got 0"),
        ("PDQ(Full)", {"crumb_fraction": -1.0},
         "options: PDQ(Full): crumb_fraction must be in [0, 1], got -1.0"),
    ])
    def test_pdq_option_value(self, tmp_path, capsys, protocol, options,
                              message):
        err = _dry_run(tmp_path, capsys, protocol=protocol, options=options)
        assert err.startswith(
            f"campaign error: panel 'p' cell 0 (seed=1): {message}")

    @pytest.mark.parametrize("part, message", [
        # bound by name, passed the dry run, then every cell died in the
        # builder with a WorkloadError
        ({"workload": {"kind": "fig3.aggregation",
                       "params": {"n_flows": 2, "mean_size": 1000}}},
         "workload kind 'fig3.aggregation': mean 1000 must exceed the "
         "minimum size 2000"),
        ({"topology": {"kind": "bcube", "params": {"n": 2}}},
         "topology kind 'bcube': bcube needs either k or n_servers"),
        # passed the dry run, then every cell died with "TopologyError:
        # unknown node"
        ({"topology": {"kind": "single_bottleneck",
                       "params": {"n_senders": 4}}},
         "workload kind 'fig3.aggregation': flow 0 src 'h7' is not a host "
         "of topology kind 'single_bottleneck'"),
    ])
    def test_value_the_builder_refuses(self, tmp_path, capsys, part,
                                       message):
        err = _dry_run(tmp_path, capsys, **part)
        assert err == f"campaign error: panel 'p' cell 0 (seed=1): {message}\n"

    @pytest.mark.parametrize("options, message", [
        # failed at run time as a WorkloadError, then as a bare TypeError
        ({"n_subflows": 0}, "options n_subflows: must be in [1, 64], got 0"),
        ({"n_subflows": "3"},
         "options n_subflows: must be an integer, got '3'"),
        # truthy: it turned tracing on
        ({"trace": "no"}, "options trace: must be true or false, got 'no'"),
        # these failed only once the cell ran
        ({"streaming_metrics": "x"}, "options streaming_metrics: must be "
         "true or a mapping, got 'x'"),
        ({"streaming_metrics": {"reservoirr": 5}},
         "options streaming_metrics: unknown field(s) 'reservoirr' (did you "
         "mean 'reservoir'?)"),
        # falsy, so the adapters ignored it, under a key of its own
        ({"streaming_metrics": {}}, "options streaming_metrics: {} turns "
         "nothing on; give true for the defaults"),
        # the dry run crashed with a bare TypeError traceback
        ({"streaming_metrics": {"reservoir": "ten"}},
         "options streaming_metrics reservoir: must be an integer, "
         "got 'ten'"),
        ({"streaming_metrics": {"reservoir": 1.5}},
         "options streaming_metrics reservoir: must be an integer, got 1.5"),
        # passed the dry run, then both engines divided by zero
        ({"streaming_metrics": {"reference_rate_bps": 0}},
         "options streaming_metrics reference_rate_bps: must be positive, "
         "got 0"),
    ])
    def test_engine_option_value(self, tmp_path, capsys, options, message):
        err = _dry_run(tmp_path, capsys, protocol="M-PDQ", engine="packet",
                       options=options)
        assert err.startswith(
            f"campaign error: panel 'p' cell 0 (seed=1): {message}")

    @pytest.mark.parametrize("part, message", [
        # each passed the dry run, then every cell failed
        ({"options": {"probes": {"p": {"kind": "link",
                                       "link": ["h0", "nosuch"],
                                       "interval": 0.001}}}},
         "options probes p link: no link h0 -> nosuch in the topology"),
        ({"faults": {"events": [{"time": 0.001, "action": "switch_down",
                                 "node": "nosuch"}]}},
         "switch_down at t=0.001: no node 'nosuch' in the topology"),
        # accepted silently, and hashed into the cell's key
        ({"options": {"probes": {"p": {"kind": "flow_rates",
                                       "interval": 0.001, "bogus": 3}}}},
         "options probes p: unknown field(s) 'bogus'"),
    ])
    def test_bad_probe_or_fault_event(self, tmp_path, capsys, part, message):
        err = _dry_run(tmp_path, capsys, **part)
        assert err.startswith(
            f"campaign error: panel 'p' cell 0 (seed=1): {message}")

    def test_reducer_parameter_the_reducer_does_not_take(self, tmp_path,
                                                         capsys):
        """This ran every cell, then died with a bare ``TypeError``."""
        err = _dry_run(tmp_path, capsys, panel={
            "reducer": "table", "reducer_params": {"metric": "mean_fct"}})
        assert err == ("campaign error: panel 'p': reducer kind 'table': "
                       "got an unexpected keyword argument 'metric'\n")

    def test_the_unbroken_file_passes(self, tmp_path):
        path = _spec_file(tmp_path)
        assert cli_main(["run-spec", str(path), "--dry-run"]) == 0

    def test_protocol_of_the_wrong_type(self, tmp_path, capsys):
        err = _dry_run(tmp_path, capsys, protocol=5)
        assert "panels[0] base protocol: must be a string, got 5" in err

    def test_name_of_the_wrong_type(self, tmp_path, capsys):
        err = _dry_run(tmp_path, capsys, experiment={"name": 5})
        assert "experiment 5 name: must be a string, got 5" in err

    def test_meta_of_the_wrong_type(self, tmp_path, capsys):
        """This was a bare ``TypeError`` from ``dict([1])``."""
        err = _dry_run(tmp_path, capsys, experiment={"meta": [1]})
        assert "experiment 'x' meta: must be a mapping, got [1]" in err

    @pytest.mark.parametrize("value", [-1.0, 0])
    def test_non_positive_sim_deadline(self, tmp_path, capsys, value):
        """``-1.0`` ran and cached a result with every flow unfinished."""
        err = _dry_run(tmp_path, capsys, sim_deadline=value)
        assert f"base sim_deadline: must be positive, got {value!r}" in err

    def test_packet_only_protocol_on_the_flow_engine(self, tmp_path, capsys):
        err = _dry_run(tmp_path, capsys, protocol="TCP")
        assert "no flow-level model for 'TCP'" in err


class TestOptionVocabulary:
    """The protocol table is the one option vocabulary: the dry run, the
    builders and direct callers of the engine runners share it."""

    def test_n_subflows_is_legal_on_every_packet_protocol(self):
        from repro.campaign.engines import PROTOCOLS

        for protocol in PROTOCOLS:
            check_options("packet", protocol, {"n_subflows": 2})

    def test_pdq_options_on_pdq_protocols_only(self):
        check_options("flow", "PDQ(ES)", {"criticality_mode": "estimate"})
        with pytest.raises(CampaignError, match="takes no option"):
            check_options("flow", "RCP", {"criticality_mode": "estimate"})

    def test_every_engine_has_an_option_vocabulary(self):
        from repro.campaign.engines import ENGINE_OPTIONS, ENGINES

        assert tuple(ENGINE_OPTIONS) == ENGINES
        assert "n_subflows" in ENGINE_OPTIONS["packet"]
        assert set(ENGINE_OPTIONS["flow"]) \
            == set(ENGINE_OPTIONS["packet"]) - {"n_subflows"}

    def test_flow_engine_takes_no_n_subflows(self):
        with pytest.raises(CampaignError, match="RCP on the flow engine "
                           "takes no option 'n_subflows'"):
            check_options("flow", "RCP", {"n_subflows": 2})

    def test_builders_check_direct_callers(self):
        with pytest.raises(CampaignError, match="did you mean 'aging_rate'"):
            make_model("PDQ(Full)", aging_rat=1.0)
        with pytest.raises(CampaignError, match="takes no option 'K'"):
            make_stack("RCP", K=1.0)
        with pytest.raises(CampaignError, match="no flow-level model"):
            make_model("M-PDQ")
        with pytest.raises(CampaignError, match="PDQ.Basic. fixes"):
            make_stack("PDQ(Basic)", early_termination=False)
        assert make_stack("M-PDQ", n_subflows=2).n_subflows == 2
