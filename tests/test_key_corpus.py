"""The spec-key contract: every corpus document still hashes to its key.

``tests/data/key_corpus.json`` holds scenario, panel and experiment
documents with the keys they hashed to when ``capture_keys.py`` captured
them. A result store, a user's pinned experiment key and every golden
fixture address results by these keys, so a key may move only on
purpose: then re-run the capture script and say so. A failure lists one
line per moved document, with its shape, what it describes and its old
and new key.
"""

import copy
import importlib.util
import json
import types
from itertools import pairwise
from pathlib import Path

import pytest

from repro.campaign import engines, registry
from repro.campaign.engines import ENGINE_OPTIONS, PROTOCOLS
from repro.campaign.spec import ScenarioSpec
from repro.core.config import PdqConfig
from repro.errors import ReproError
from repro.experiments.api import Experiment, Panel
from repro.experiments import reducers
from repro.faults.spec import ACTIONS
from repro.obs.probes import PROBE_KINDS

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "key_corpus.json").read_text())["documents"]
SHAPES = {"scenario": ScenarioSpec, "panel": Panel, "experiment": Experiment}


def _load_capture_module():
    spec = importlib.util.spec_from_file_location(
        "capture_keys", DATA / "capture_keys.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _describe(spec) -> str:
    if isinstance(spec, ScenarioSpec):
        return spec.describe()
    if isinstance(spec, Panel):
        return f"{spec.name!r} [{spec.kind}]"
    return f"{spec.name!r} ({len(spec.panels)} panels)"


def moved_documents(entries) -> list[str]:
    """One line per document whose key is not the captured one."""
    lines = []
    for i, entry in enumerate(entries):
        try:
            spec = SHAPES[entry["shape"]].from_dict(
                copy.deepcopy(entry["doc"]))
            what, key = _describe(spec), spec.key
        except ReproError as exc:
            what, key = "no longer reads", f"{type(exc).__name__}: {exc}"
        if key != entry["key"]:
            lines.append(f"#{i} {entry['shape']} {what}: "
                         f"{entry['key'][:12]} -> {key[:12]}")
    return lines


def _scenario_documents(shape: str, doc: dict):
    """The scenario documents a document holds where a scenario is read
    (not inside axis cells, which are hashed as written)."""
    if shape == "scenario":
        yield doc
    elif shape == "panel":
        if doc.get("base"):
            yield doc["base"]
        yield from doc.get("specs") or ()
    else:
        for panel in doc["panels"]:
            yield from _scenario_documents("panel", panel)


def _declares_unsorted_events(entry) -> bool:
    for doc in _scenario_documents(entry["shape"], entry["doc"]):
        events = (doc.get("faults") or {}).get("events") or ()
        if any(a["time"] > b["time"] for a, b in pairwise(events)):
            return True
    return False


def test_every_document_keeps_its_key():
    moved = moved_documents(CORPUS)
    assert not moved, (f"{len(moved)} spec key(s) moved; re-run "
                       "tests/data/capture_keys.py only if that is meant:\n"
                       + "\n".join(moved))


def test_corpus_holds_every_shape():
    counts = {shape: sum(e["shape"] == shape for e in CORPUS)
              for shape in SHAPES}
    assert len(CORPUS) >= 200
    assert all(n >= 20 for n in counts.values()), counts


def test_the_keys_unit_tests_pinned_are_in_the_corpus():
    for shape, doc, key in _load_capture_module().PINNED:
        assert {"shape": shape, "doc": doc, "key": key} in CORPUS


def _cells():
    """Every scenario cell the corpus declares, axes expanded."""
    for entry in CORPUS:
        spec = SHAPES[entry["shape"]].from_dict(copy.deepcopy(entry["doc"]))
        if isinstance(spec, ScenarioSpec):
            yield spec
            continue
        for panel in spec.panels if isinstance(spec, Experiment) else (spec,):
            yield from (cell for _combo, cell in panel.cells())


def _library(builders: dict) -> set[str]:
    """The names a registry holds for the library, not for a test that
    registered its own kinds in this process."""
    registry.load_experiment_modules()
    return {name for name, fn in builders.items()
            if fn.__module__.startswith("repro.")}


def test_corpus_covers_every_registered_name():
    cells = list(_cells())
    panels = [e["doc"] for e in CORPUS if e["shape"] == "panel"]
    options = {name for cell in cells for name in cell.options}
    covered = {
        "topology": {c.topology.kind for c in cells},
        "workload": {c.workload.kind for c in cells},
        "engine": {c.engine for c in cells},
        "protocol": {c.protocol for c in cells},
        "protocol on the flow engine": {
            c.protocol for c in cells if c.engine == "flow"},
        "fault action": {e.action for c in cells for e in c.fault_events()},
        "probe kind": {p["kind"] for c in cells
                       for p in c.options.get("probes", {}).values()},
        "reducer": {p.get("reducer") or "table" for p in panels},
        "option": options,
    }
    registered = {
        "topology": _library(registry._TOPOLOGIES),
        "workload": _library(registry._WORKLOADS),
        "engine": _library(engines._ENGINES),
        "protocol": PROTOCOLS,
        "protocol on the flow engine": [
            name for name, row in PROTOCOLS.items() if row.model],
        "fault action": ACTIONS,
        "probe kind": PROBE_KINDS,
        "reducer": _library(reducers._REDUCERS),
        "option": {*ENGINE_OPTIONS["packet"], *ENGINE_OPTIONS["flow"],
                   *PdqConfig.__dataclass_fields__},
    }
    missing = {what: sorted(set(names) - covered[what])
               for what, names in registered.items()
               if set(names) - covered[what]}
    assert not missing, (f"no corpus document covers {missing}; add one to "
                         "tests/data/capture_keys.py")


class TestTheCheckSeesKeyBreaks:
    def test_event_order_in_a_canonical_callee_names_each_moved_document(
            self, monkeypatch):
        """``canonical_faults`` sorts fault events by time; keeping them
        in declaration order moves exactly the documents that declare
        them out of order, and the check names each of them."""
        import repro.faults.spec as faults

        original = faults.canonical_faults

        def declaration_order(data):
            out = original(data)
            if "events" in out:
                out["events"] = [faults._canonical_event(event)
                                 for event in data["events"]]
            return out

        monkeypatch.setattr(faults, "canonical_faults", declaration_order)
        expected = {i for i, entry in enumerate(CORPUS)
                    if _declares_unsorted_events(entry)}
        assert {CORPUS[i]["shape"] for i in expected} == set(SHAPES)
        moved = moved_documents(CORPUS)
        assert {int(line.split()[0][1:]) for line in moved} == expected
        assert len(moved) == len(expected)

    def test_a_separator_change_in_canonical_json_moves_every_key(
            self, monkeypatch):
        import repro.campaign.spec as spec

        def dumps(data, **kwargs):
            return json.dumps(data, **{**kwargs, "separators": (", ", ": ")})

        monkeypatch.setattr(spec, "json", types.SimpleNamespace(dumps=dumps))
        assert len(moved_documents(CORPUS)) == len(CORPUS)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_moved_key_is_reported_with_its_document(shape):
    entry = next(e for e in CORPUS if e["shape"] == shape)
    stale = [{**entry, "key": "0" * 64}]
    (line,) = moved_documents(stale)
    assert line.startswith(f"#0 {shape} ")
    assert line.endswith(f"000000000000 -> {entry['key'][:12]}")
