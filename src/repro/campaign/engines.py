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

from collections.abc import Callable, Mapping, Sequence
from typing import Any, TYPE_CHECKING

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.spec import ScenarioSpec
    from repro.metrics.collector import MetricsCollector
    from repro.topology.base import Topology
    from repro.workload.flow import FlowSpec

#: protocols understood by make_stack / make_model
PROTOCOLS = (
    "PDQ(Full)",
    "PDQ(ES+ET)",
    "PDQ(ES)",
    "PDQ(Basic)",
    "D3",
    "RCP",
    "TCP",
)

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


def available_protocols() -> tuple[str, ...]:
    return PROTOCOLS


# -- protocol factories -------------------------------------------------------------


def make_stack(name: str, n_subflows: int = 3, **pdq_overrides):
    """Build a packet-level protocol stack from its paper name."""
    from repro.core.config import PdqConfig
    from repro.core.multipath import MpdqStack
    from repro.core.stack import PdqStack
    from repro.transport.d3 import D3Stack
    from repro.transport.rcp import RcpStack
    from repro.transport.tcp import TcpStack

    if name == "PDQ(Full)":
        return PdqStack(PdqConfig.full(**pdq_overrides))
    if name == "PDQ(ES+ET)":
        return PdqStack(PdqConfig.es_et(**pdq_overrides))
    if name == "PDQ(ES)":
        return PdqStack(PdqConfig.es(**pdq_overrides))
    if name == "PDQ(Basic)":
        return PdqStack(PdqConfig.basic(**pdq_overrides))
    if name == "M-PDQ":
        return MpdqStack(PdqConfig.full(**pdq_overrides), n_subflows=n_subflows)
    if name == "D3":
        return D3Stack()
    if name == "RCP":
        return RcpStack()
    if name == "TCP":
        return TcpStack()
    raise ExperimentError(f"unknown protocol {name!r}")


def make_model(name: str, **pdq_overrides):
    """Flow-level rate model for a protocol name (TCP has none)."""
    from repro.core.config import PdqConfig
    from repro.flowsim.d3_model import D3Model
    from repro.flowsim.pdq_model import PdqModel
    from repro.flowsim.rcp_model import RcpModel

    if name.startswith("PDQ"):
        variant = {
            "PDQ(Full)": PdqConfig.full,
            "PDQ(ES+ET)": PdqConfig.es_et,
            "PDQ(ES)": PdqConfig.es,
            "PDQ(Basic)": PdqConfig.basic,
        }.get(name, PdqConfig.full)
        return PdqModel(variant(**pdq_overrides))
    if name == "RCP":
        return RcpModel()
    if name == "D3":
        return D3Model()
    raise ExperimentError(f"no flow-level model for {name!r}")


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
    header = {"RCP": 44, "D3": 52}.get(protocol, 56)
    sim = FlowLevelSimulation(topology, model, header_bytes=header,
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
    default that a long stream would overrun.
    """
    adapter = _ENGINES.get(spec.engine)
    if adapter is None:
        from repro.campaign.registry import unknown_kind

        raise unknown_kind("engine", spec.engine, engine_kinds())
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
