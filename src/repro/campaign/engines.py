"""Engine adapters: the campaign layer's only door into the simulators.

Every :class:`~repro.campaign.spec.ScenarioSpec` names an *engine* — the
simulator that executes it. Engines are registered here by kind name,
exactly like topologies and workloads in :mod:`repro.campaign.registry`,
so the runner, the result store, and the CLI treat the packet-level
stack and the fluid flow-level model identically: same spec schema, same
cache keys, same serialized :class:`~repro.metrics.collector.
MetricsCollector` payload.

Adapters receive the built topology and workload (resolved from their
registered kinds) plus the spec's engine options, and return a collector:

* ``packet`` — assembles a :class:`~repro.net.network.Network` with the
  protocol's transport stack (PDQ/D3/RCP/TCP endpoints and per-switch
  state) and runs the discrete-event simulator until the flows resolve;
* ``flow`` — pairs the protocol's rate model with the fluid
  :class:`~repro.flowsim.engine.FlowLevelSimulation`.

Heavy simulator imports stay inside the adapter bodies so this module —
imported by :mod:`repro.campaign.spec` for engine-name validation — adds
no weight to spec construction in driver processes.
"""

from __future__ import annotations

import functools
import importlib
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, fields
from typing import Any, TYPE_CHECKING

from repro.errors import CampaignError, ExperimentError

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

#: the options each builtin engine's adapter reads; a PDQ protocol also
#: takes every PdqConfig field
ENGINE_OPTIONS = {
    "packet": ("n_subflows", "probes", "trace", "streaming_metrics"),
    "flow": ("probes", "trace", "streaming_metrics"),
}


def check_options(engine: str, protocol: str,
                  options: Mapping[str, Any]) -> Protocol | None:
    """The protocol's row, once the (engine, protocol, options) triple
    checks out: an unknown protocol, one the engine cannot run, an
    option name outside the pair's vocabulary, or an option value
    :func:`_check_engine_values` or :func:`_check_pdq_values` refuses is
    a :class:`CampaignError` naming it. A custom engine owns its
    options: ``None``, unchecked."""
    allowed = ENGINE_OPTIONS.get(engine)
    if allowed is None:
        return None
    row = PROTOCOLS.get(protocol)
    if row is None:
        from repro.campaign.registry import unknown_kind

        raise unknown_kind("protocol", protocol, PROTOCOLS)
    if engine == "flow" and row.model is None:
        raise CampaignError(f"no flow-level model for {protocol!r}; it "
                            "runs on the packet engine only")
    if row.preset is not None:
        allowed += tuple(_pdq_readers())
    unknown = set(options).difference(allowed)
    if unknown:
        from repro.campaign.spec import unknown_names

        raise CampaignError(
            f"options: {protocol} on the {engine} engine takes no option "
            + unknown_names(unknown, allowed))
    _check_engine_values(options)
    if row.preset is not None:
        _check_pdq_values(protocol, row.preset, options)
    if "probes" in options:
        from repro.obs.probes import validate_probes_option

        validate_probes_option(options["probes"])
    return row


def _check_engine_values(options: Mapping[str, Any]) -> None:
    """Read the adapters' own options as they use them: ``n_subflows``
    an integer in the multipath stack's range, ``trace`` true or false,
    and ``streaming_metrics`` as :func:`~repro.metrics.streaming.
    streaming_collector` takes it, but not the empty mapping, which the
    adapters ignore."""
    from repro.campaign.spec import _reader

    if "n_subflows" in options:
        from repro.core.multipath import MAX_SUBFLOWS

        n = _reader(int)(options["n_subflows"], ("options", "n_subflows"))
        if not 1 <= n <= MAX_SUBFLOWS:
            raise CampaignError(f"options n_subflows: must be in "
                                f"[1, {MAX_SUBFLOWS}], got {n}")
    if "trace" in options:
        _reader(bool)(options["trace"], ("options", "trace"))
    if "streaming_metrics" in options:
        from repro.metrics.streaming import streaming_collector

        if options["streaming_metrics"] == {}:
            # _pop_metrics reads a falsy value as "off"
            raise CampaignError("options streaming_metrics: {} turns "
                                "nothing on; give true for the defaults")
        try:
            streaming_collector(options["streaming_metrics"])
        except ExperimentError as exc:
            raise CampaignError(f"options: {exc}") from None


@functools.cache
def _pdq_readers() -> dict[str, Callable[[Any, tuple[str, ...]], Any]]:
    """``PdqConfig`` field -> the spec reader of its annotation."""
    import typing

    from repro.campaign.spec import _reader
    from repro.core.config import PdqConfig

    hints = typing.get_type_hints(PdqConfig)
    return {f.name: _reader(hints[f.name]) for f in fields(PdqConfig)}


def _check_pdq_values(protocol: str, preset: str,
                      options: Mapping[str, Any]) -> None:
    """Read each PDQ option as its ``PdqConfig`` annotation says, refuse
    a variant flag the protocol's preset fixes, then build the config
    so its own range checks speak as a :class:`CampaignError` too."""
    from repro.core.config import PRESET_FLAGS, PdqConfig

    readers = _pdq_readers()
    pdq = {name: value for name, value in options.items()
           if name in readers}
    for name, value in pdq.items():
        readers[name](value, ("options", name))
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


#: engine kind -> adapter(spec, topology, flows, options) -> collector
EngineAdapter = Callable[..., "MetricsCollector"]
_ENGINES: dict[str, EngineAdapter] = {}


def register_engine(kind: str) -> Callable[[EngineAdapter], EngineAdapter]:
    """Decorator: register an engine adapter under ``kind``."""

    def decorate(adapter: EngineAdapter) -> EngineAdapter:
        _ENGINES[kind] = adapter
        return adapter

    return decorate


def engine_kinds() -> tuple[str, ...]:
    """Registered engine kind names (the valid ``ScenarioSpec.engine``
    values) in registration order — packet first, matching the spec
    default, then flow, then any custom engines."""
    return tuple(_ENGINES)


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


# -- engine adapters ----------------------------------------------------------------


def _pop_metrics(spec: "ScenarioSpec",
                 options: Mapping[str, Any]) -> tuple[dict, Any]:
    """Split the ``streaming_metrics`` option off and build its collector.

    The option is additive: specs that omit it hash and run exactly as
    before. When present (``true`` or an options dict), the adapter
    injects a :class:`~repro.metrics.streaming.StreamingMetricsCollector`
    seeded from the spec so reservoir sampling is reproducible.
    """
    options = dict(options)
    streaming = options.pop("streaming_metrics", None)
    if not streaming:
        return options, None
    from repro.metrics.streaming import streaming_collector

    return options, streaming_collector(streaming, seed=spec.seed)


@register_engine("packet")
def _packet_adapter(spec: "ScenarioSpec", topology: "Topology",
                    flows: list["FlowSpec"],
                    options: Mapping[str, Any]) -> "MetricsCollector":
    """ns-2-style packet engine: Network + transport endpoints + switches."""
    options, metrics = _pop_metrics(spec, options)
    # spec.loss_rules resolves unseeded faults.loss rules to the spec seed
    return run_packet_level(
        topology, spec.protocol, flows, loss=spec.loss_rules() or None,
        faults=spec.fault_events() or None, metrics=metrics,
        **options
    )


@register_engine("flow")
def _flow_adapter(spec: "ScenarioSpec", topology: "Topology",
                  flows: list["FlowSpec"],
                  options: Mapping[str, Any]) -> "MetricsCollector":
    """Fluid flow-level engine: rate model + event-driven allocator."""
    options, metrics = _pop_metrics(spec, options)
    return run_flow_level(
        topology, spec.protocol, flows,
        faults=spec.fault_events() or None, metrics=metrics, **options
    )


def execute_spec(spec: "ScenarioSpec") -> "MetricsCollector":
    """Run one declarative :class:`~repro.campaign.spec.ScenarioSpec`.

    The campaign runner's single entry point into the simulators: builds
    the topology and workload from their registered kinds, then hands
    them to the spec's engine adapter. Keyword options ride in
    ``spec.options`` (``n_subflows`` plus any PDQ config overrides); a
    spec without ``sim_deadline`` runs at the engine's default horizon —
    except open-system workloads, which carry their own simulated-time
    horizon (arrival window plus drain) that becomes the deadline, so
    the campaign runner's wall-clock budget never races an engine
    default that a long stream would overrun. The options are checked
    first, as the dry run checks them (:func:`check_options`).
    """
    adapter = _ENGINES.get(spec.engine)
    if adapter is None:
        from repro.campaign.registry import unknown_kind

        raise unknown_kind("engine", spec.engine, engine_kinds())
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
    return adapter(spec, topology, flows, options)
