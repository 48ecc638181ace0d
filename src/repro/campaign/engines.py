"""The campaign layer's only door into the simulators.

Every :class:`~repro.campaign.spec.ScenarioSpec` names an *engine* — the
simulator that executes it, one of :data:`ENGINES`. The runner, the
result store and the CLI treat both alike: same spec schema, same cache
keys, same serialized :class:`~repro.metrics.collector.MetricsCollector`
payload. :func:`execute_spec` builds the spec's topology and workload
(resolved from their registered kinds) and hands them, with the spec's
engine options, to one of two runners:

* ``packet`` — :func:`run_packet_level` assembles a
  :class:`~repro.net.network.Network` with the protocol's transport
  stack (PDQ/D3/RCP/TCP endpoints and per-switch state) and runs the
  discrete-event simulator until the flows resolve;
* ``flow`` — :func:`run_flow_level` pairs the protocol's rate model
  with the fluid :class:`~repro.flowsim.engine.FlowLevelSimulation`.

The simulators themselves are imported inside the runner bodies; at
import this module reads only the option schemas (the multipath subflow
bound, the probe and streaming-metrics readers).
"""

from __future__ import annotations

import functools
import importlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from typing import Any, TYPE_CHECKING

from repro.core.multipath import MAX_SUBFLOWS
from repro.errors import CampaignError
from repro.metrics.streaming import read_streaming
from repro.obs.probes import read_probes
from repro.schema import Reader, _plan, unknown_names, within

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.spec import ScenarioSpec
    from repro.metrics.collector import MetricsCollector
    from repro.topology.base import Topology
    from repro.workload.flow import FlowSpec


# -- the protocol table -------------------------------------------------------------


@dataclass(frozen=True)
class Protocol:
    """One protocol a spec can name: its PdqConfig ``preset``
    (classmethod name; ``None``: it takes no PDQ option), its packet
    ``stack`` and fluid ``model`` as ``module:Class``, imported when
    built (``model`` ``None``: packet engine only), and the per-packet
    ``header_bytes`` the fluid engine charges (its stack's own)."""

    name: str
    preset: str | None
    stack: str
    model: str | None
    header_bytes: int


#: the four PDQ variants share stack, model and header
_PDQ = ("repro.core.stack:PdqStack", "repro.flowsim.pdq_model:PdqModel", 56)

#: every protocol make_stack / make_model build, by paper name
PROTOCOLS: dict[str, Protocol] = {p.name: p for p in (
    Protocol("PDQ(Full)", "full", *_PDQ),
    Protocol("PDQ(ES+ET)", "es_et", *_PDQ),
    Protocol("PDQ(ES)", "es", *_PDQ),
    Protocol("PDQ(Basic)", "basic", *_PDQ),
    Protocol("M-PDQ", "full", "repro.core.multipath:MpdqStack", None, 56),
    Protocol("D3", None, "repro.transport.d3:D3Stack",
             "repro.flowsim.d3_model:D3Model", 52),
    Protocol("RCP", None, "repro.transport.rcp:RcpStack",
             "repro.flowsim.rcp_model:RcpModel", 44),
    Protocol("TCP", None, "repro.transport.tcp:TcpStack", None, 40),
)}


@dataclass(frozen=True)
class EngineOptions:
    """The options the engine runners read, each field the schema of
    its option (:func:`check_options` reads the ones a spec gives) and
    its default the runners'."""

    n_subflows: int = field(default=3, metadata=within(1, MAX_SUBFLOWS))
    probes: Mapping[str, Any] = field(default_factory=dict,
                                      metadata={"read": read_probes})
    trace: bool = False
    streaming_metrics: bool | Mapping[str, Any] = field(
        default=False, metadata={"read": read_streaming})


#: the options each engine reads (the fluid engine splits no flow into
#: subflows); a PDQ protocol also takes every PdqConfig field
ENGINE_OPTIONS = {
    "packet": tuple(f.name for f in fields(EngineOptions)),
    "flow": tuple(f.name for f in fields(EngineOptions)
                  if f.name != "n_subflows"),
}

#: the engines a spec can name, packet first (the spec default)
ENGINES = tuple(ENGINE_OPTIONS)


def check_options(engine: str, protocol: str,
                  options: Mapping[str, Any]) -> Protocol:
    """The protocol's row, once the (engine, protocol, options) triple
    checks out: an unknown protocol, one the engine cannot run, an
    option name outside the pair's vocabulary, or an option value its
    field of :class:`EngineOptions` or ``PdqConfig`` refuses (or
    :func:`_check_pdq_values`) is a :class:`CampaignError` naming it."""
    allowed = ENGINE_OPTIONS[engine]
    row = PROTOCOLS.get(protocol)
    if row is None:
        from repro.campaign.registry import unknown_kind

        raise unknown_kind("protocol", protocol, PROTOCOLS)
    if engine == "flow" and row.model is None:
        raise CampaignError(f"no flow-level model for {protocol!r}; it "
                            "runs on the packet engine only")
    readers = _readers(EngineOptions)
    if row.preset is not None:
        from repro.core.config import PdqConfig

        readers = {**readers, **_readers(PdqConfig)}
        allowed += tuple(_readers(PdqConfig))
    unknown = set(options).difference(allowed)
    if unknown:
        raise CampaignError(
            f"options: {protocol} on the {engine} engine takes no option "
            + unknown_names(unknown, allowed))
    for name, value in options.items():
        readers[name](value, ("options", name))
    if row.preset is not None:
        _check_pdq_values(protocol, row.preset, options)
    return row


@functools.cache
def _readers(cls: type) -> dict[str, Reader]:
    """Field name -> the spec reader of a dataclass field."""
    return {name: read for name, read, *_ in _plan(cls)}


def _check_pdq_values(protocol: str, preset: str,
                      options: Mapping[str, Any]) -> None:
    """Refuse a variant flag the protocol's preset fixes, then build the
    config so its own range checks speak as a :class:`CampaignError`
    too."""
    from repro.core.config import PRESET_FLAGS, PdqConfig

    pdq = {name: value for name, value in options.items()
           if name in PdqConfig.__dataclass_fields__}
    fixed = sorted(set(pdq).intersection(PRESET_FLAGS[preset]))
    if fixed:
        raise CampaignError(
            f"options {fixed[0]}: {protocol} fixes "
            + ", ".join(f"{f}={PRESET_FLAGS[preset][f]}" for f in fixed)
            + "; name the PDQ variant with the flags wanted instead")
    try:
        getattr(PdqConfig, preset)(**pdq)
    except ValueError as exc:
        raise CampaignError(f"options: {protocol}: {exc}") from None


# -- protocol factories -------------------------------------------------------------


def _build(path: str, row: Protocol, pdq_overrides: Mapping[str, Any],
           **kwargs: Any) -> Any:
    module, _, name = path.partition(":")
    cls = getattr(importlib.import_module(module), name)
    if row.preset is None:
        return cls()
    from repro.core.config import PdqConfig

    return cls(getattr(PdqConfig, row.preset)(**pdq_overrides), **kwargs)


def make_stack(name: str, n_subflows: int = 3, **pdq_overrides):
    """Build a packet-level protocol stack from its paper name."""
    row = check_options("packet", name,
                        {"n_subflows": n_subflows, **pdq_overrides})
    # only the multipath stack splits a flow into subflows
    extra = {"n_subflows": n_subflows} if name == "M-PDQ" else {}
    return _build(row.stack, row, pdq_overrides, **extra)


def make_model(name: str, **pdq_overrides):
    """Flow-level rate model for a protocol name (TCP has none)."""
    row = check_options("flow", name, pdq_overrides)
    return _build(row.model, row, pdq_overrides)


# -- scenario runners ---------------------------------------------------------------


def run_packet_level(
    topology: "Topology",
    protocol: str,
    flows: Sequence["FlowSpec"],
    sim_deadline: float = 2.0,
    loss: "Sequence | None" = None,
    faults: "Sequence | None" = None,
    network_config=None,
    n_subflows: int = 3,
    probes: Mapping[str, dict] | None = None,
    trace: bool = False,
    metrics: "MetricsCollector | None" = None,
    **pdq_overrides,
) -> "MetricsCollector":
    """Run one packet-level scenario and return its metrics.

    ``loss`` is a sequence of :class:`~repro.faults.spec.LossRule`;
    ``faults`` is a sequence of :class:`~repro.faults.spec.FaultEvent`
    applied by a :class:`~repro.faults.controller.FaultController` at
    their simulated times. ``probes``/``trace`` are the telemetry
    options (repro.obs); run counters are always harvested into
    ``collector.stats`` — reading a handful of ints after the run is
    free. ``metrics`` substitutes a
    pre-built collector (the streaming-metrics mode rides in here).
    """
    from repro.net.network import Network
    from repro.obs import (
        FlowTracer,
        attach_packet_probes,
        collect_probes,
        harvest_packet_run,
    )

    stack = make_stack(protocol, n_subflows=n_subflows, **pdq_overrides)
    net = Network(topology, stack, config=network_config, metrics=metrics)
    if loss is not None:
        from repro.faults.controller import apply_loss

        apply_loss(net, loss)
    if faults:
        from repro.faults.controller import FaultController

        FaultController(net, faults).start()
    tracer = FlowTracer() if trace else None
    net.metrics.tracer = tracer
    attached = attach_packet_probes(net, probes) if probes else []
    net.launch(flows)
    net.run_until_quiet(deadline=sim_deadline)
    collector = net.metrics
    collector.tracer = None
    if tracer is not None:
        collector.trace = tracer.events
    collect_probes(collector, attached)
    collector.stats.update(harvest_packet_run(net).to_dict())
    return collector


def run_flow_level(
    topology: "Topology",
    protocol: str,
    flows: Sequence["FlowSpec"],
    sim_deadline: float = 10.0,
    faults: "Sequence | None" = None,
    probes: Mapping[str, dict] | None = None,
    trace: bool = False,
    metrics: "MetricsCollector | None" = None,
    **pdq_overrides,
) -> "MetricsCollector":
    """Run one flow-level (fluid) scenario and return its metrics.

    Telemetry mirrors :func:`run_packet_level`: same option names, same
    ``collector.stats`` / ``collector.probes`` / ``collector.trace``
    shapes (plus the same ``metrics`` injection point and the same
    ``faults`` schedule semantics), so studies switch engines without
    touching their specs.
    """
    from repro.flowsim.engine import FlowLevelSimulation
    from repro.obs import (
        FlowTracer,
        attach_fluid_probes,
        collect_probes,
        harvest_fluid_run,
    )

    model = make_model(protocol, **pdq_overrides)
    sim = FlowLevelSimulation(topology, model,
                              header_bytes=PROTOCOLS[protocol].header_bytes,
                              metrics=metrics, faults=faults)
    tracer = FlowTracer() if trace else None
    sim.metrics.tracer = tracer
    attached = attach_fluid_probes(sim, probes) if probes else []
    collector = sim.run(flows, deadline=sim_deadline)
    collector.tracer = None
    if tracer is not None:
        collector.trace = tracer.events
    collect_probes(collector, attached)
    collector.stats.update(harvest_fluid_run(sim).to_dict())
    return collector


# -- the spec entry point ------------------------------------------------------------


def execute_spec(spec: "ScenarioSpec") -> "MetricsCollector":
    """Run one declarative :class:`~repro.campaign.spec.ScenarioSpec`.

    The campaign runner's single entry point into the simulators: builds
    the topology and workload from their registered kinds, then runs
    them on the spec's engine. Keyword options ride in ``spec.options``
    (``n_subflows`` plus any PDQ config overrides); a spec without
    ``sim_deadline`` runs at the engine's default horizon — except
    open-system workloads, which carry their own simulated-time horizon
    (arrival window plus drain) that becomes the deadline, so the
    campaign runner's wall-clock budget never races an engine default
    that a long stream would overrun. The options are checked first, as
    the dry run checks them (:func:`check_options`). The
    ``streaming_metrics`` option, when on, swaps in a
    :class:`~repro.metrics.streaming.StreamingMetricsCollector` seeded
    from the spec, so its reservoir sample is reproducible.
    """
    check_options(spec.engine, spec.protocol, spec.options)
    topology = spec.topology.build()
    flows = spec.workload.build(topology, spec.seed)
    options = dict(spec.options)
    if spec.sim_deadline is not None:
        options["sim_deadline"] = spec.sim_deadline
    else:
        horizon = getattr(flows, "horizon", None)
        if horizon is not None:
            options["sim_deadline"] = horizon
    streaming = options.pop("streaming_metrics", None)
    if streaming:
        from repro.metrics.streaming import streaming_collector

        options["metrics"] = streaming_collector(streaming, seed=spec.seed)
    faults = spec.fault_events() or None
    if spec.engine == "flow":
        return run_flow_level(topology, spec.protocol, flows, faults=faults,
                              **options)
    # spec.loss_rules resolves unseeded faults.loss rules to the spec seed
    return run_packet_level(topology, spec.protocol, flows,
                            loss=spec.loss_rules() or None, faults=faults,
                            **options)
