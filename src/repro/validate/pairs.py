"""Matched packet/fluid scenario pairs and their agreement tolerances.

PDQ's evaluation (paper §5) rests on two simulators telling the same
story: the packet-level ns-2-style stack and the fluid flow-level model.
A :class:`ValidationPair` pins one scenario cell in both engines — the
specs differ *only* in ``engine`` — together with the tolerances within
which the two must agree.

Tolerances are declared per protocol, not globally, because the fluid
model idealizes different amounts of each protocol's machinery away:

* **RCP** maps almost directly onto explicit-rate fluid allocation, so
  the engines track each other within a few percent up to ~20 %.
* **PDQ** adds probe/ACK round trips and switch dampening the fluid
  model compresses; observed gaps stay under ~30 %.
* **D3** is rate-*request* based — every sender spends round trips
  re-requesting its reservation, and under contention the packet stack
  serves requests first-come-first-serve while the fluid model grants
  the idealized allocation instantly. Gaps up to ~2x are structural,
  which is exactly why the looser bound is pinned here: a regression
  that pushes D3 past it is a real behavior change, not noise.

The grids are declared once, through the Experiment API: each pair
family is a :class:`~repro.experiments.api.Panel` whose axes include
``engine`` and whose ``reducer_params`` carry its family and any
tolerance overrides. :func:`panel_pairs` derives the
:class:`ValidationPair` list of any such panel, :func:`validation_panels`
is the standard grid — fig3-style query aggregation and fig5-style VL2
traffic (the acceptance grids), fat-tree multipath and a mid-run link
failure, plus degenerate cells (zero flows, a single flow) that bound
the agreement analytically — and both ``default_pairs`` (the harness,
``repro validate``) and the registered ``validate`` experiment (its
``validate.agreement`` reducer, ``run-spec``) read it, so the two name
and gate every pair identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

# ENGINES is the cross-engine pairing axis: one cell, both engines
from repro.campaign.engines import ENGINES
from repro.campaign.spec import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.errors import ExperimentError
from repro.experiments.api import (
    Experiment,
    Panel,
    register_experiment,
)
from repro.experiments.reducers import register_reducer
from repro.units import KBYTE, MSEC

#: validation protocols: every protocol with *both* a transport stack and
#: a fluid rate model (TCP has no fluid model, so it cannot be paired)
VALIDATION_PROTOCOLS = ("PDQ(Full)", "D3", "RCP")

TOPOLOGY = TopologySpec("single_rooted")


@dataclass(frozen=True)
class Tolerance:
    """Agreement bounds for one pair (packet measured against fluid).

    ``fct_rtol``       — max relative mean-FCT gap, |pkt - fluid| / fluid
    ``app_tput_atol``  — max absolute application-throughput gap
    ``completion_atol`` — max absolute completed-fraction gap
    """

    fct_rtol: float
    app_tput_atol: float = 0.25
    completion_atol: float = 0.15


#: per-protocol mean-FCT tolerance (see module docstring for the why;
#: measured worst cases on the default grids: PDQ 0.45, RCP 0.17, D3 1.40)
FCT_RTOL: dict[str, float] = {
    "PDQ(Full)": 0.55,
    "RCP": 0.45,
    "D3": 2.00,
}

#: per-protocol application-throughput tolerance. PDQ's packet stack
#: misses deadlines under heavy fan-in (probe/termination round trips)
#: that the fluid allocator meets exactly; measured worst case 0.22.
APP_TPUT_ATOL: dict[str, float] = {
    "PDQ(Full)": 0.30,
    "RCP": 0.20,
    "D3": 0.35,
}

#: per-protocol completed-fraction tolerance (same mechanism: packet PDQ
#: early-terminates deadline-missing flows the fluid model completes)
COMPLETION_ATOL: dict[str, float] = {
    "PDQ(Full)": 0.30,
    "RCP": 0.20,
    "D3": 0.25,
}

#: single-uncontended-flow mean-FCT tolerance. Contention idealizations
#: vanish but *startup* round trips remain — dominant for D3, whose
#: sender spends RTTs acquiring its reservation before data flows
#: (measured: RCP 0.04, PDQ 0.18, D3 0.64).
SINGLE_FLOW_RTOL: dict[str, float] = {
    "PDQ(Full)": 0.30,
    "RCP": 0.25,
    "D3": 0.85,
}


@dataclass(frozen=True)
class ValidationPair:
    """One scenario cell expressed in both engines."""

    name: str
    family: str
    packet: ScenarioSpec
    tolerance: Tolerance

    def __post_init__(self) -> None:
        if self.packet.engine != "packet":
            raise ValueError(f"pair {self.name!r}: base spec must be packet")

    @property
    def fluid(self) -> ScenarioSpec:
        """The matched fluid spec: identical except for the engine."""
        return self.packet.with_(engine="flow")

    @property
    def protocol(self) -> str:
        return self.packet.protocol

    def specs(self) -> tuple[ScenarioSpec, ScenarioSpec]:
        return (self.packet, self.fluid)


# -- pair families as declared panels -----------------------------------------------


def fig3_panel(quick: bool = False,
               protocols: Sequence[str] = VALIDATION_PROTOCOLS) -> Panel:
    """Fig-3-style query aggregation on the 12-server single-rooted tree:
    senders h1..h11 fan in to h0, with and without deadlines. The
    no-deadline cells get a longer horizon (labeled axis: the deadline
    and the simulated horizon vary together)."""
    flow_counts = (3, 10) if quick else (3, 10, 18)
    seeds = (1,) if quick else (1, 2)
    deadline_axis = (
        (None, {"workload.mean_deadline": None, "sim_deadline": 4.0}),
        (20 * MSEC, {"workload.mean_deadline": 20 * MSEC,
                     "sim_deadline": 2.0}),
    )
    return Panel(
        name="fig3-agreement" + ("-quick" if quick else ""),
        title="fig3 aggregation: packet vs fluid agreement",
        base=ScenarioSpec(
            protocol=protocols[0],
            topology=TOPOLOGY,
            workload=WorkloadSpec("fig3.aggregation", {
                "n_flows": flow_counts[0],
                "mean_size": 100 * KBYTE,
                "mean_deadline": None,
            }),
            engine="packet",
            sim_deadline=4.0,
        ),
        axes=(("protocol", tuple(protocols)),
              ("workload.n_flows", flow_counts),
              ("deadline", deadline_axis),
              ("seed", seeds),
              ("engine", ENGINES)),
        reducer="validate.agreement",
        reducer_params={"family": "fig3"},
    )


def fig5_panel(quick: bool = False,
               protocols: Sequence[str] = VALIDATION_PROTOCOLS) -> Panel:
    """Fig-5-style VL2 mix: Poisson arrivals between random host pairs,
    short flows carrying deadlines, the elephant tail as background."""
    rates = (1500.0,) if quick else (1000.0, 2500.0)
    seeds = (1,) if quick else (1, 2)
    duration = 0.03
    return Panel(
        name="fig5-agreement" + ("-quick" if quick else ""),
        title="fig5 VL2 mix: packet vs fluid agreement",
        base=ScenarioSpec(
            protocol=protocols[0],
            topology=TOPOLOGY,
            workload=WorkloadSpec("fig5.vl2", {
                "rate_per_sec": rates[0],
                "duration": duration,
                "mean_deadline": 20 * MSEC,
            }),
            engine="packet",
            sim_deadline=duration + 1.0,
        ),
        axes=(("protocol", tuple(protocols)),
              ("workload.rate_per_sec", rates),
              ("seed", seeds),
              ("engine", ENGINES)),
        reducer="validate.agreement",
        reducer_params={"family": "fig5"},
    )


def fattree_panel() -> Panel:
    """Fat-tree permutation traffic under multipath routing — promoted
    from ``examples/specs/fattree_multipath_cell.json`` once its
    measured cross-engine FCT gap (0.21) proved stable. Exercises the
    one topology family where packet and fluid runs hash flows onto
    equal-cost paths independently, so the 0.6 bound deliberately
    leaves room for path-assignment skew on top of protocol gaps."""
    return Panel(
        name="fattree-pdq-agreement",
        title="fat-tree permutation: multipath packet vs fluid agreement",
        base=ScenarioSpec(
            protocol="PDQ(Full)",
            topology=TopologySpec("fattree", {"n_servers": 16}),
            workload=WorkloadSpec("fig8.permutation", {
                "flows_per_server": 1,
                "mean_size": 100 * KBYTE,
            }),
            engine="packet",
            sim_deadline=4.0,
        ),
        axes=(("seed", (1,)), ("engine", ENGINES)),
        reducer="validate.agreement",
        reducer_params={"family": "fattree", "fct_rtol": 0.6},
    )


def faults_panel(
        protocols: Sequence[str] = ("PDQ(Full)", "RCP")) -> Panel:
    """Degraded network: the fat-tree permutation scenario with one
    core uplink scheduled to fail mid-run, forcing both engines through
    the reroute path of :mod:`repro.faults`. Measured mean-FCT gaps on
    this cell are 0.28 (PDQ) and 0.10 (RCP); the 0.6 bound inherits the
    fat-tree multipath headroom since the surviving-path hash skew is
    the same phenomenon, now concentrated on fewer equal-cost paths."""
    return Panel(
        name="faults-link-down-agreement",
        title="degraded fat-tree: mid-run link failure, packet vs fluid",
        base=ScenarioSpec(
            protocol=protocols[0],
            topology=TopologySpec("fattree", {"n_servers": 16}),
            workload=WorkloadSpec("fig8.permutation", {
                "flows_per_server": 1,
                "mean_size": 400 * KBYTE,
            }),
            engine="packet",
            sim_deadline=4.0,
            faults={"events": [{"time": 0.002, "action": "link_down",
                                "a": "agg0_0", "b": "core0_0"}]},
        ),
        axes=(("protocol", tuple(protocols)), ("seed", (1,)),
              ("engine", ENGINES)),
        reducer="validate.agreement",
        reducer_params={"family": "faults", "fct_rtol": 0.6},
    )


def edge_empty_panel() -> Panel:
    """An empty workload: both engines must produce an empty collector."""
    return Panel(
        name="edge-empty-agreement",
        title="empty workload: emptiness agrees",
        base=ScenarioSpec(
            protocol="RCP",
            topology=TOPOLOGY,
            workload=WorkloadSpec("empty"),
            engine="packet",
            sim_deadline=0.5,
        ),
        axes=(("engine", ENGINES),),
        reducer="validate.agreement",
        # an empty pair has no protocol to take bounds from
        reducer_params={"family": "edge", "fct_rtol": 0.0,
                        "app_tput_atol": 0.25, "completion_atol": 0.15},
    )


def edge_single_panel(
        protocols: Sequence[str] = VALIDATION_PROTOCOLS) -> Panel:
    """A single uncontended flow: FCT pinned near size/rate in both
    engines, so idealization gaps shrink to startup effects."""
    return Panel(
        name="edge-single-agreement",
        title="single uncontended flow: startup-only gaps",
        base=ScenarioSpec(
            protocol=protocols[0],
            topology=TOPOLOGY,
            workload=WorkloadSpec("single_flow", {
                "src": "h1", "dst": "h0",
                "size_bytes": 100 * KBYTE,
            }),
            engine="packet",
            sim_deadline=2.0,
        ),
        axes=(("protocol", tuple(protocols)), ("engine", ENGINES)),
        reducer="validate.agreement",
        # uncontended single flows get the tighter startup-only bounds
        reducer_params={"family": "edge",
                        "fct_rtol_by_protocol": dict(SINGLE_FLOW_RTOL)},
    )


# -- pairs derived from the panels --------------------------------------------------


def validation_panels(quick: bool = False) -> tuple[Panel, ...]:
    """The standard cross-engine validation grid (CI runs ``quick``),
    in pair order; the registered ``validate`` experiment is the full
    grid."""
    return (edge_empty_panel(), edge_single_panel(), fig3_panel(quick),
            fig5_panel(quick), fattree_panel(), faults_panel())


def _tolerance(protocol: str, fct_rtol: float | None = None,
               app_tput_atol: float | None = None,
               completion_atol: float | None = None,
               fct_rtol_by_protocol: Mapping[str, float] | None = None,
               ) -> Tolerance:
    """A pair's bounds from its panel's ``reducer_params``: each one
    defaults to the per-protocol table; ``fct_rtol_by_protocol`` wins
    over the table, the flat ``fct_rtol`` over both. A protocol with no
    measured table entry and no explicit bound is an
    :class:`ExperimentError`, never a guessed bound."""
    if fct_rtol is None and fct_rtol_by_protocol is not None:
        fct_rtol = fct_rtol_by_protocol.get(protocol)

    def bound(name: str, given: float | None,
              table: Mapping[str, float]) -> float:
        if given is None and protocol not in table:
            raise ExperimentError(
                f"no measured {name} for {protocol!r}: declare it in the "
                "panel's reducer_params")
        return table[protocol] if given is None else given

    return Tolerance(
        fct_rtol=bound("fct_rtol", fct_rtol, FCT_RTOL),
        app_tput_atol=bound("app_tput_atol", app_tput_atol, APP_TPUT_ATOL),
        completion_atol=bound("completion_atol", completion_atol,
                              COMPLETION_ATOL),
    )


def panel_pairs(panel: Panel) -> list[ValidationPair]:
    """The :class:`ValidationPair` of every cell of a panel whose axes
    include ``engine``: the cells that differ only in the engine pair up,
    in grid order. The pair is named ``family/protocol-axis=value...``
    from the cell's other axes (a panel that sweeps only the engine is
    one cell, named by its workload kind), and its tolerance is resolved
    from the panel's ``reducer_params`` (:func:`_tolerance`)."""
    params = dict(panel.reducer_params)
    family = params.pop("family", "custom")
    swept = [name for name, _ in panel.axes if name != "engine"]
    if len(swept) == len(panel.axes):
        raise ExperimentError(
            f"panel {panel.name!r}: validation needs an 'engine' axis "
            "pairing packet and flow runs")
    cells: dict[tuple, dict[str, ScenarioSpec]] = {}
    for combo, spec in panel.cells():
        cell = tuple(combo[name] for name in swept)
        cells.setdefault(cell, {})[combo["engine"]] = spec
    if not cells:
        raise ExperimentError(f"panel {panel.name!r}: no cells to pair")
    pairs = []
    for cell, engines in cells.items():
        if set(engines) != set(ENGINES):
            raise ExperimentError(
                f"panel {panel.name!r}: cell {cell!r} must run exactly the "
                f"engines {ENGINES}, got {sorted(engines)}")
        packet = engines["packet"]
        if engines["flow"].key != packet.with_(engine="flow").key:
            raise ExperimentError(
                f"panel {panel.name!r}: cell {cell!r} must differ between "
                "its packet and flow runs only in the engine")
        tags = [f"{name.rsplit('.', 1)[-1]}={value}"
                for name, value in zip(swept, cell) if name != "protocol"]
        label = ("-".join([packet.protocol, *tags]) if swept
                 else packet.workload.kind)
        try:
            tolerance = _tolerance(packet.protocol, **params)
        except (ExperimentError, TypeError) as exc:  # TypeError: a bad name
            raise ExperimentError(
                f"panel {panel.name!r}: cell {cell!r}: {exc}") from None
        pairs.append(ValidationPair(
            name=f"{family}/{label}", family=family, packet=packet,
            tolerance=tolerance))
    return pairs


def default_pairs(quick: bool = False) -> list[ValidationPair]:
    """The pairs of :func:`validation_panels`, the harness's default."""
    return [pair for panel in validation_panels(quick)
            for pair in panel_pairs(panel)]


# -- the agreement reducer ----------------------------------------------------------


@register_reducer("validate.agreement", check=panel_pairs)
def _reduce_agreement(run, **_params) -> dict:
    """Run the harness tolerance checks on every pair of the panel
    (:func:`panel_pairs`, the one reader of its ``reducer_params``: the
    same names, family and bounds ``repro validate`` gates). This is how
    a ``run-spec`` file declares its own cross-engine validation cells."""
    from repro.validate.harness import compare_pair

    collectors = {spec.key: collector for _, spec, collector in run.rows}
    pairs = panel_pairs(run.panel)
    outcomes = [
        compare_pair(pair, collectors[pair.packet.key],
                     collectors[pair.fluid.key]).to_dict()
        for pair in pairs
    ]
    return {
        "family": pairs[0].family,
        "ok": all(o["ok"] for o in outcomes),
        "n_pairs": len(outcomes),
        "pairs": outcomes,
    }


register_experiment(Experiment(
    name="validate",
    title="cross-engine packet/fluid agreement grids",
    panels=validation_panels(),
))
