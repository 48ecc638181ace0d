"""Generate the spec-key corpus: JSON documents and the keys they hash to.

Every cached result is addressed by a spec key (``ScenarioSpec.key``,
``Panel.key``, ``Experiment.key``): a SHA-256 of the spec's canonical
JSON. ``tests/test_key_corpus.py`` reads each document of
``key_corpus.json`` back through ``from_dict`` and checks that it still
hashes to the key captured here, so any change to canonicalization —
in ``canonical()``, in ``canonical_json`` or in the fault-event order
that ``Faults.__post_init__``'s time sort fixes — names the documents
whose keys moved.

The documents are the inputs a user or a figure module writes, not the
canonical forms: fault events out of time order, axes given as a
mapping, defaults left out. They come
from three places, drawn with a fixed seed, one random stream per
registered kind and per generated family (:func:`stream`), so a new
registered cell or a new generated document re-draws only its own
family:

* the live registries: a sample of the cells of every registered
  experiment and example spec file, every registered panel, and every
  registered experiment;
* generated variants that cover every topology and workload kind, both
  engines, every ``engines.PROTOCOLS`` row, every ``PdqConfig`` field,
  the engine options, every fault action and loss-rule form, and
  search, composite, labeled, excluded and explicit-spec panels;
* the keys that unit tests pinned before the corpus existed, verbatim.

``tests/data/capture_pins.py keys`` rewrites the fixture from the
current code, so run it only to re-baseline the keys on purpose (a key
change strands every stored result).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import typing
from pathlib import Path

#: the corpus is drawn from this seed (the paper's arXiv number)
SEED = 12062057


def stream(name: str) -> random.Random:
    """The random stream of one document family: ``SEED`` and the
    family name (a string seed hashes the same in every process)."""
    return random.Random(f"{SEED}:{name}")

ROOT = Path(__file__).resolve().parents[2]

#: documents whose keys unit tests pinned verbatim before the corpus
PINNED_SCENARIO = {
    "protocol": "RCP",
    "topology": {"kind": "single_bottleneck", "params": {"n_senders": 4}},
    "workload": {"kind": "fig3.aggregation", "params": {
        "n_flows": 2, "mean_size": 100000.0, "mean_deadline": None}},
    "engine": "flow",
    "seed": 7,
}
PINNED_PANEL = {
    "name": "pinned",
    "base": {
        "protocol": "RCP",
        "topology": {"kind": "single_rooted"},
        "workload": {"kind": "fig3.aggregation", "params": {
            "n_flows": 2, "mean_size": 100000, "mean_deadline": None}},
        "engine": "flow",
    },
    "axes": [
        ["protocol", ["RCP", "D3"]],
        ["scheme", [["plain", {"options.n_subflows": 1}],
                    ["striped", {"options.n_subflows": 2}]]],
        ["seed", [1, 2]],
    ],
    "reducer": "series",
    "reducer_params": {"x": "protocol", "metric": "mean_fct"},
}
PINNED_EXPERIMENT = {
    "name": "pinned-exp",
    "title": "ignored",
    "panels": [PINNED_PANEL],
    "meta": {"note": "pin"},
}
PINNED = (
    ("scenario", PINNED_SCENARIO,
     "fbe937ba74f5f5949987170cb7e6aa2aef3ff937261948bfbdf380e758d513b3"),
    ("panel", PINNED_PANEL,
     "1fc9d5eec1d908b2616fdf38c05c6baceb2b2db82ab57427037d47ee12ddad5f"),
    ("experiment", PINNED_EXPERIMENT,
     "371fc2ce8f83f360a6b06ebf05cb97bc58d7f72a97efd67a64fec620f3d024bf"),
)

#: a valid parameter set for every builtin topology kind
TOPOLOGIES = {
    "single_rooted": {},
    "single_bottleneck": {"n_senders": 4},
    "fattree": {"n_servers": 16},
    "bcube": {"n": 2, "k": 2},
    "jellyfish": {"n_servers": 16, "seed": 2},
    "random_graph": {"n_switches": 8, "mean_degree": 3.0,
                     "hosts_per_switch": 2, "seed": 1},
}

#: scenario fields a user may leave out, with the value they default to
_DEFAULTS = {"engine": "packet", "seed": 1, "sim_deadline": None,
             "loss": None, "options": {}, "faults": None}


def shapes():
    from repro.campaign.spec import ScenarioSpec
    from repro.experiments.api import Experiment, Panel

    return {"scenario": ScenarioSpec, "panel": Panel,
            "experiment": Experiment}


def user_form(doc: dict) -> dict:
    """A scenario's canonical form as a user writes it: default-valued
    fields and empty ``params`` left out."""
    out = {k: v for k, v in doc.items()
           if k not in _DEFAULTS or v != _DEFAULTS[k]}
    for part in ("topology", "workload"):
        if not out[part].get("params"):
            out[part] = {"kind": out[part]["kind"]}
    return out


def base_scenario(rng: random.Random, protocol: str = "RCP",
                  engine: str = "packet") -> dict:
    return {
        "protocol": protocol,
        "topology": {"kind": "single_rooted"},
        "workload": {"kind": "fig3.aggregation", "params": {
            "n_flows": rng.randint(2, 12), "mean_size": 100000.0,
            "mean_deadline": rng.choice([None, 0.02, 0.03])}},
        "engine": engine,
        "seed": rng.randint(1, 5),
    }


# -- the live registries ------------------------------------------------------------


def registered_experiments():
    """Every registered experiment, then every example spec file."""
    from repro.experiments.api import (
        experiment_kinds,
        get_experiment,
        load_experiment_file,
    )

    out = [get_experiment(name) for name in experiment_kinds()]
    for path in sorted((ROOT / "examples" / "specs").glob("*.json")):
        out.append(load_experiment_file(str(path)))
    return out


def registered_scenarios(experiments) -> list[dict]:
    """Up to three cells per workload kind, and one per topology kind,
    sampled from every registered grid and search panel, each kind from
    its own stream."""
    cells = {}
    for experiment in experiments:
        for panel in experiment.panels:
            for _combo, spec in panel.cells():
                cells.setdefault(spec.key, spec)
    by_kind: dict[str, list] = {}
    for spec in cells.values():
        by_kind.setdefault(spec.workload.kind, []).append(spec)
        by_kind.setdefault(f"topology:{spec.topology.kind}", []).append(spec)
    docs = []
    for kind in sorted(by_kind):
        rng = stream(kind)
        specs = by_kind[kind]
        picked = rng.sample(specs, min(len(specs),
                                       1 if kind.startswith("topology:")
                                       else 3))
        for spec in picked:
            doc = json.loads(json.dumps(spec.canonical()))
            docs.append(user_form(doc) if rng.random() < 0.5 else doc)
    return docs


# -- generated scenario variants ----------------------------------------------------


def protocol_documents(rng: random.Random) -> list[dict]:
    """Every protocol row on every engine that runs it."""
    from repro.campaign.engines import PROTOCOLS

    docs = []
    for name, row in PROTOCOLS.items():
        for engine in ("packet", "flow"):
            if engine == "flow" and row.model is None:
                continue
            docs.append(base_scenario(rng, name, engine))
    return docs


def _value(rng: random.Random, hint, default):
    if hint is bool:
        return not default
    if hint is int:
        return default + rng.randint(1, 8)
    if hint is float:
        return round(default * rng.choice([0.5, 2.0, 3.0]) + rng.random(), 6)
    return rng.choice(["random", "estimate"])


def pdq_option_documents(rng: random.Random) -> list[dict]:
    """One document per ``PdqConfig`` field, on a PDQ protocol that
    takes it (the variant flags only on PDQ(Full))."""
    from repro.core.config import PdqConfig

    hints = typing.get_type_hints(PdqConfig)
    flags = ("early_start", "early_termination", "suppressed_probing")
    docs = []
    for f in dataclasses.fields(PdqConfig):
        protocol = "PDQ(Full)" if f.name in flags else rng.choice(
            ["PDQ(Full)", "PDQ(ES+ET)", "PDQ(ES)", "PDQ(Basic)"])
        doc = base_scenario(rng, protocol, rng.choice(["packet", "flow"]))
        doc["options"] = {f.name: _value(rng, hints[f.name], f.default)}
        docs.append(doc)
    # several options at once, in unsorted order
    doc = base_scenario(rng, "PDQ(Full)", "flow")
    doc["options"] = {"criticality_mode": "estimate", "aging_rate": 2,
                      "aging_time_unit": 0.05, "estimate_chunk": 25000}
    docs.append(doc)
    return docs


def engine_option_documents(rng: random.Random) -> list[dict]:
    """``n_subflows``, every probe kind, ``trace`` and
    ``streaming_metrics``, on both engines."""
    docs = []
    for n in (2, 4):
        doc = base_scenario(rng, "M-PDQ")
        doc["topology"] = {"kind": "bcube", "params": {"n": 2, "k": 1}}
        doc["workload"] = {"kind": "single_flow", "params": {
            "src": "h0", "dst": "h3", "size_bytes": 200000}}
        doc["options"] = {"n_subflows": n}
        docs.append(doc)
    link = {"kind": "link", "link": ["sw0", "recv"], "interval": 0.001}
    rates = {"kind": "flow_rates", "interval": 0.002}
    for engine in ("packet", "flow"):
        for probes in ({"bottleneck": link}, {"rates": rates},
                       {"rates": rates, "bottleneck": link}):
            doc = base_scenario(rng, "PDQ(Full)", engine)
            doc["topology"] = {"kind": "single_bottleneck",
                               "params": {"n_senders": 3}}
            doc["workload"] = {"kind": "fig6.convergence", "params": {}}
            doc["options"] = {"probes": probes}
            docs.append(doc)
        for options in ({"trace": True}, {"streaming_metrics": True},
                        {"streaming_metrics": {"reservoir": 256}}):
            doc = base_scenario(rng, "RCP", engine)
            doc["options"] = dict(options)
            docs.append(doc)
    return docs


def _link(time, action, a="agg0_0", b="core0_0"):
    return {"time": time, "action": action, "a": a, "b": b}


def _switch(time, action, node="core0_1"):
    return {"time": time, "action": action, "node": node}


def fault_documents(rng: random.Random) -> list[dict]:
    """Every fault action, schedules declared out of time order, and
    every loss-rule form."""
    faults = [
        {"events": [_link(0.002, "link_down")]},
        {"events": [_link(0.004, "link_up"), _link(0.001, "link_down")]},
        {"events": [_switch(0.003, "switch_up"),
                    _switch(0.0005, "switch_down")]},
        {"events": [_switch(0.002, "switch_down"),
                    _link(0.002, "link_down"), _link(0, "link_up"),
                    _switch(0.005, "switch_up")]},
        {"events": [_link(0.001, "link_down", "tor0", "agg0"),
                    _link(0.001, "link_up", "tor0", "agg0")]},
        {"loss": [{"src": "sw0", "dst": "recv", "rate": 0.01}]},
        {"loss": [{"src": "sw*", "dst": "*", "rate": 0.005, "seed": 3}]},
        {"loss": [{"src": "sw0", "dst": "recv", "rate": 0.02,
                   "both_directions": False}]},
        {"loss": [{"src": "sw0", "dst": "recv", "rate": 0.02,
                   "both_directions": True, "seed": 1}]},
        {"loss": [{"src": "*", "dst": "*", "rate": 0},
                  {"src": "sw0", "dst": "h*", "rate": 1}]},
        {"events": [_link(0.003, "link_up", "sw0", "recv"),
                    _link(0.001, "link_down", "sw0", "recv")],
         "loss": [{"src": "sw0", "dst": "recv", "rate": 0.001}]},
    ]
    docs = []
    for i, fault in enumerate(faults):
        has_loss = "loss" in fault
        doc = base_scenario(rng, rng.choice(["PDQ(Full)", "RCP", "TCP"]),
                            "packet" if has_loss or i % 2 else "flow")
        if doc["engine"] == "flow" and doc["protocol"] == "TCP":
            doc["protocol"] = "RCP"
        doc["topology"] = {"kind": "fattree", "params": {"n_servers": 16}}
        doc["workload"] = {"kind": "fig8.permutation", "params": {
            "flows_per_server": 1, "mean_size": 400000.0}}
        doc["faults"] = fault
        docs.append(doc)
    return docs


def topology_documents(rng: random.Random) -> list[dict]:
    """Every builtin topology kind, with its parameters."""
    docs = []
    for kind, params in TOPOLOGIES.items():
        doc = base_scenario(rng, rng.choice(["PDQ(Full)", "RCP", "D3"]),
                            rng.choice(["packet", "flow"]))
        doc["topology"] = {"kind": kind, "params": dict(params)}
        doc["workload"] = {"kind": "fig8.random_pairs", "params": {
            "n_flows": rng.randint(4, 16), "mean_deadline": 0.003}}
        docs.append(doc)
    return docs


def value_form_documents(rng: random.Random) -> list[dict]:
    """Forms a canonicalization edit could treat differently: ints
    against floats, unsorted params, non-ASCII names, explicit
    defaults, tiny and huge numbers."""
    docs = []
    for size in (100000, 100000.0, 1e5 + 0.5):
        doc = base_scenario(rng)
        doc["workload"]["params"]["mean_size"] = size
        docs.append(doc)
    doc = base_scenario(rng, "D3", "flow")
    doc["workload"]["params"] = dict(
        reversed(list(doc["workload"]["params"].items())))
    doc["sim_deadline"] = 1e-05
    docs.append(doc)
    doc = base_scenario(rng, "RCP", "flow")
    doc.update(engine="packet", seed=1, sim_deadline=None, options={},
               loss=None, faults=None)
    docs.append(doc)
    doc = base_scenario(rng, "PDQ(Full)")
    doc["workload"] = {"kind": "single_flow", "params": {
        "src": "h1", "dst": "h0", "size_bytes": 2 ** 40,
        "arrival": 0.1 + 0.2, "deadline": 0.05}}
    docs.append(doc)
    doc = base_scenario(rng, "PDQ(Full)")
    doc["faults"] = {"events": [_link(0.001, "link_down", "sé", "t")]}
    docs.append(doc)
    doc = base_scenario(rng, "RCP", "flow")
    doc["workload"] = {"kind": "empty"}
    docs.append(doc)
    doc = base_scenario(rng, "RCP", "flow")
    doc["topology"] = {"kind": "fattree", "params": {"n_servers": 16}}
    doc["workload"] = {"kind": "open_system", "params": {
        "duration": 0.05, "rate_per_sec": 2000.0, "arrival": "pareto",
        "sizes": "vl2", "size_scale": 0.01}}
    docs.append(doc)
    return docs


# -- generated panels and experiments -----------------------------------------------


def panel_documents(rng: random.Random) -> list[dict]:
    """Every panel shape: plain, composite, labeled and mapping axes,
    exclude rules, explicit spec lists (and none), search directives,
    and fault schedules in the base, the spec list and an axis."""
    base = base_scenario(rng)
    flow = base_scenario(rng, engine="flow")
    unsorted = dict(base_scenario(rng), faults={"events": [
        _link(0.004, "link_up", "tor0", "agg0"),
        _link(0.001, "link_down", "tor0", "agg0")]})
    docs = [
        {"name": "plain", "base": base,
         "axes": [["protocol", ["RCP", "PDQ(Full)", "D3"]],
                  ["seed", [1, 2, 3]]]},
        {"name": "mapping-axes", "base": flow,
         "axes": {"workload.n_flows": [2, 4, 8], "seed": [1, 2]},
         "reducer": "series",
         "reducer_params": {"x": "workload.n_flows", "metric": "p99_fct"}},
        {"name": "composite", "base": base,
         "axes": [["protocol,options.n_subflows",
                   [["M-PDQ", 1], ["M-PDQ", 4]]]],
         "reducer": "table", "reducer_params": {"by": ["protocol"]}},
        {"name": "labeled", "base": flow,
         "axes": [["scheme", [
             ["PDQ perfect", {"protocol": "PDQ(Full)"}],
             ["PDQ random", {"protocol": "PDQ(Full)",
                             "options.criticality_mode": "random"}],
             ["RCP", {"protocol": "RCP"}]]],
             ["seed", [1, 2]]],
         "reducer": "series",
         "reducer_params": {"x": "scheme", "metric": "mean_fct",
                            "normalize_to": "PDQ perfect"}},
        {"name": "labeled-faults", "base": base,
         "axes": [["failure", [
             ["none", {"faults": None}],
             ["flap", {"faults": {"events": [
                 _link(0.002, "link_up", "tor0", "agg0"),
                 _link(0.0005, "link_down", "tor0", "agg0")]}}]]]]},
        {"name": "excluded", "base": base,
         "axes": [["protocol", ["TCP", "RCP"]], ["engine", ["packet", "flow"]]],
         "exclude": [{"protocol": "TCP", "engine": "flow"}]},
        {"name": "explicit", "specs": [base, flow]},
        {"name": "no-cells", "specs": [], "reducer": "fig1.motivation"},
        {"name": "unsorted-base", "base": unsorted,
         "axes": [["protocol", ["RCP", "PDQ(Full)"]]]},
        {"name": "unsorted-specs", "specs": [base, unsorted]},
        {"name": "search", "base": base,
         "axes": [["protocol", ["PDQ(Full)", "RCP"]]],
         "search": {"axis": "workload.n_flows"},
         "reducer": "series", "reducer_params": {"x": "protocol"}},
        {"name": "search-scaled", "base": flow,
         "axes": [["protocol", ["RCP"]]],
         "search": {"axis": "workload.n_flows", "target": 0.9,
                    "metric": "completion_fraction", "seeds": [1, 2, 3],
                    "lo": 2, "hi": 16, "grow": False, "scale": 2.5,
                    "require_deadlines": True}},
        {"name": "legacy-runner-slots", "title": "titles are not hashed",
         "base": flow, "axes": [["seed", [1]]], "runner": None,
         "params": {}},
        {"name": "validate-style", "base": base,
         "axes": [["protocol", ["RCP", "D3"]], ["engine", ["packet", "flow"]]],
         "reducer": "validate.agreement",
         "reducer_params": {"family": "custom", "fct_rtol": 0.5,
                            "fct_rtol_by_protocol": {"RCP": 0.3}}},
    ]
    for i in range(6):
        doc = base_scenario(rng, rng.choice(["PDQ(Full)", "RCP", "D3"]),
                            rng.choice(["packet", "flow"]))
        axes = [["seed", rng.sample(range(1, 10), rng.randint(1, 3))]]
        if rng.random() < 0.5:
            axes.insert(0, ["workload.mean_deadline",
                            [None, round(rng.uniform(0.01, 0.05), 4)]])
        docs.append({"name": f"random-{i}", "base": doc, "axes": axes,
                     "reducer": rng.choice(["table", "series"]),
                     "reducer_params": ({"x": "seed"} if i % 2 else {})})
    return docs


def experiment_documents(rng: random.Random, panels: list[dict]) -> list[dict]:
    """Generated experiments over the generated panels: meta, titles,
    panel order and the ``experiment`` name alias."""
    docs = [
        {"name": "one", "panels": [panels[0]]},
        {"name": "one", "title": "a title", "panels": [panels[0]],
         "meta": {}},
        {"name": "reordered", "panels": [panels[1], panels[0]]},
        {"name": "reordered", "panels": [panels[0], panels[1]]},
        {"experiment": "alias", "panels": [panels[2]],
         "meta": {"description": "the file-level name alias",
                  "nested": {"b": [1, 2.5, None], "a": True}}},
        {"name": "faults", "panels": [p for p in panels
                                      if "unsorted" in p["name"]]},
        {"name": "search", "panels": [p for p in panels
                                      if p.get("search")]},
    ]
    for i in range(3):
        picked = rng.sample(panels, rng.randint(2, 5))
        docs.append({"name": f"random-{i}", "panels": picked,
                     "meta": {"seed": rng.randint(1, 1000)}})
    return docs


def documents() -> list[tuple[str, dict]]:
    """``(shape, document)`` for the whole corpus, in a fixed order."""
    experiments = registered_experiments()
    scenarios = [
        *registered_scenarios(experiments),
        *topology_documents(stream("topology")),
        *protocol_documents(stream("protocol")),
        *pdq_option_documents(stream("pdq_option")),
        *engine_option_documents(stream("engine_option")),
        *fault_documents(stream("fault")),
        *value_form_documents(stream("value_form")),
    ]
    registered_panels = [json.loads(json.dumps(p.canonical()))
                         for e in experiments for p in e.panels]
    panels = panel_documents(stream("panel"))
    out = [(shape, doc) for shape, doc, _ in PINNED]
    out += [("scenario", doc) for doc in scenarios]
    out += [("panel", doc) for doc in registered_panels + panels]
    out += [("experiment", json.loads(json.dumps(e.canonical())))
            for e in experiments]
    out += [("experiment", doc)
            for doc in experiment_documents(stream("experiment"), panels)]
    return [(shape, copy.deepcopy(doc)) for shape, doc in out]


def render() -> str:
    """The corpus file: each document with the key it hashes to now."""
    classes = shapes()
    entries = []
    for shape, doc in documents():
        key = classes[shape].from_dict(copy.deepcopy(doc)).key
        entries.append({"shape": shape, "key": key, "doc": doc})
    for (shape, _doc, pinned), entry in zip(PINNED, entries[:len(PINNED)],
                                            strict=True):
        if entry["key"] != pinned:
            raise SystemExit(f"the pinned {shape} key moved")
    # one document a line, so a re-baseline diffs per document; no
    # sort_keys: the order of a mapping (axes) is part of its input
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    return (f'{{"schema": 1, "seed": {SEED}, "documents": [\n'
            f"{lines}\n]}}\n")
