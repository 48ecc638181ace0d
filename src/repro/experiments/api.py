"""Declarative experiment surface: Panels, Experiments, and registries.

The paper's evaluation is a matrix of scenario grids reduced to
per-panel curves. This module makes that matrix *data*:

* a :class:`Panel` declares one figure panel — a scenario grid (a base
  :class:`~repro.campaign.spec.ScenarioSpec` plus named axes, expanded
  through the campaign layer's :func:`~repro.campaign.spec.expand_cells`
  / :func:`~repro.campaign.spec.expand_grid` machinery), an optional
  :class:`SearchSpec` directive (the paper's §5.2.1 "maximal load at
  99 % application throughput" binary search), and a named *reducer*
  (see :mod:`repro.experiments.reducers`) that turns the executed
  collectors into the panel's rows;
* an :class:`Experiment` is an ordered set of panels with metadata;
* a registry resolves experiments (``fig1`` … ``fig12``, ``validate``)
  by name, exactly like topology/workload kinds in
  :mod:`repro.campaign.registry`.

Every panel is a grid or a search. In-run time series (fig 6/7's link
utilization and per-flow throughput) are declarative probes in the
spec's ``options`` (:mod:`repro.obs.probes`).

Experiments canonicalize to sorted-key JSON with a stable SHA-256
``key`` (pinned by tests, like scenario keys), load from user-authored
JSON files (``python -m repro run-spec FILE.json``), and execute
through the ambient campaign runner — so user-defined studies get grid
expansion, process fan-out, and result caching with zero new code.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from typing import Any

from repro.campaign.context import run_scenarios
from repro.campaign.registry import (
    bind_params,
    load_experiment_modules,
    unknown_kind,
    validate_spec_kinds,
)
from repro.campaign.spec import (
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    _axis_cells,
    canonical_json,
    expand_cells,
    is_labeled_cell,
)
from repro.errors import (
    CampaignError,
    ExperimentError,
    ReproError,
    WorkloadError,
)
from repro.experiments.reducers import (
    collector_metric,
    get_reducer,
    reducer_check,
)
from repro.experiments.search import binary_search_max
from repro.faults.spec import validate_events
from repro.metrics.collector import MetricsCollector
from repro.obs.probes import check_probe_links
from repro.schema import JsonSpec, _document, _PathError, read_list
from repro.utils.stats import mean


def _axes_tuple(axes: Any) -> tuple[tuple[str, tuple[Any, ...]], ...]:
    """Normalize an axes declaration (mapping or pair sequence, values
    possibly JSON lists) into the hashable stored form."""
    pairs = axes.items() if isinstance(axes, Mapping) else axes
    out = []
    for name, values in pairs:
        if not isinstance(name, str):
            raise CampaignError(f"axis names must be strings, got {name!r}")
        normalized = []
        for value in values:
            if isinstance(value, list):
                value = tuple(value)
            if is_labeled_cell(value):
                value = (value[0], dict(value[1]))
            normalized.append(value)
        out.append((name, tuple(normalized)))
    return tuple(out)


def _read_axes(axes: Any, path: tuple[str, ...]) -> Any:
    """Reject axes of the wrong JSON shape, then normalize them with
    :func:`_axes_tuple`: a list of ``[name, values]`` pairs (or a
    mapping) whose values are lists."""
    pairs = axes.items() if isinstance(axes, Mapping) else read_list(
        axes, path)
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise _PathError(path, "entries must be [name, values] pairs, "
                                   f"got {pair!r}")
        read_list(pair[1], path + (f"axis {pair[0]!r} values",))
    return _axes_tuple(axes)


@dataclass(frozen=True)
class SearchSpec(JsonSpec):
    """Declarative "maximal load meeting a target" directive (§5.2.1).

    For every grid cell the executor binary-searches the largest integer
    ``n`` in ``[lo, hi]`` for which the mean of ``metric`` over the
    ``seeds`` replicas — each run with the cell's spec and the search
    ``axis`` set to ``n`` (times ``scale`` when given, for axes like
    arrival rates that move in steps) — stays at or above ``target``.
    The reported value is ``n * scale``. ``grow=False`` caps the answer
    at ``hi`` instead of growing the bracket geometrically.

    ``require_deadlines`` makes a probe pass trivially when its built
    workload contains no deadline-constrained flow (fig 5a's guard: with
    nothing to miss, the throughput target is met by definition).
    """

    axis: str
    target: float = 0.99
    metric: str = "application_throughput"
    seeds: tuple[int, ...] = (1,)
    lo: int = 1
    hi: int = 64
    grow: bool = True
    scale: float | None = None
    require_deadlines: bool = False

    def canonical(self) -> dict[str, Any]:
        return {
            "axis": self.axis,
            "target": self.target,
            "metric": self.metric,
            "seeds": list(self.seeds),
            "lo": self.lo,
            "hi": self.hi,
            "grow": self.grow,
            "scale": self.scale,
            "require_deadlines": self.require_deadlines,
        }


@dataclass(frozen=True)
class Panel(JsonSpec):
    """One declarative figure panel.

    Exactly one execution shape applies:

    * *grid* — ``base`` + ``axes`` (or explicit ``specs``, possibly
      none) expanded into scenarios, executed through the ambient
      campaign runner, and reduced by the registered ``reducer``;
    * *search* — ``base`` + ``axes`` for the outer cells plus a
      :class:`SearchSpec` run per cell; the reducer shapes the found
      values.

    ``exclude`` drops grid cells whose axis display values match any of
    the given mappings (fig 8's "TCP has no flow-level model" hole).
    """

    name: str
    title: str = ""
    base: ScenarioSpec | None = None
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = field(
        default=(), metadata={"read": _read_axes})
    specs: tuple[ScenarioSpec, ...] | None = None
    exclude: tuple[Mapping[str, Any], ...] = ()
    search: SearchSpec | None = None
    reducer: str | None = None
    reducer_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.search is not None:
            if self.base is None or self.specs is not None:
                raise CampaignError(
                    f"panel {self.name!r}: a search panel needs a base "
                    "spec (and no explicit spec list)"
                )
        elif self.base is None and self.specs is None:
            raise CampaignError(
                f"panel {self.name!r}: declare a grid (base/specs) or a "
                "search"
            )
        if self.exclude:
            if self.specs is not None:
                raise CampaignError(
                    f"panel {self.name!r}: exclude rules only apply to "
                    "base+axes grids, not explicit spec lists"
                )
            axis_names = {name for name, _ in self.axes}
            for rule in self.exclude:
                unknown = sorted(set(rule) - axis_names)
                if unknown:
                    raise CampaignError(
                        f"panel {self.name!r}: exclude rule names unknown "
                        f"axis(es) {unknown}; declared axes: "
                        f"{sorted(axis_names)}"
                    )

    @property
    def kind(self) -> str:
        return "search" if self.search is not None else "grid"

    # -- grid expansion -----------------------------------------------------------

    def cells(self) -> list[tuple[dict[str, Any], ScenarioSpec]]:
        """``(combo, spec)`` grid cells; for search panels these are the
        outer cells the directive runs once per."""
        if self.specs is not None:
            return [({}, spec) for spec in self.specs]
        cells = expand_cells(self.base, dict(self.axes))
        if self.exclude:
            cells = [
                (combo, spec) for combo, spec in cells
                if not any(
                    all(combo.get(k) == v for k, v in rule.items())
                    for rule in self.exclude
                )
            ]
        return cells

    def expand(self) -> list[ScenarioSpec]:
        return [spec for _, spec in self.cells()]

    # -- identity -----------------------------------------------------------------

    def canonical(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "base": self.base.canonical() if self.base else None,
            "axes": [[name, list(values)] for name, values in self.axes],
            "specs": ([s.canonical() for s in self.specs]
                      if self.specs is not None else None),
            "exclude": [dict(e) for e in self.exclude],
            "search": self.search.canonical() if self.search else None,
            "reducer": self.reducer,
            "reducer_params": dict(self.reducer_params),
            # the retired custom-runner slots: every experiment key hashes them
            "runner": None,
            "params": {},
        }

    @property
    def key(self) -> str:
        """Stable content hash of the canonical form."""
        text = canonical_json(self.canonical())
        return hashlib.sha256(text.encode()).hexdigest()

    def __hash__(self) -> int:
        return hash(self.key)

    @classmethod
    def from_dict(cls, data: Any) -> "Panel":
        data = _document(cls, data, extra=("runner", "params"))
        if data.pop("runner", None) is not None or data.pop("params", None):
            raise CampaignError(
                f"panel {data.get('name')!r}: custom panel runners are "
                "retired; declare a grid or a search (in-run series are "
                "'probes' options)"
            )
        return cls(**data)


@dataclass(frozen=True)
class Experiment(JsonSpec):
    """An ordered set of panels plus metadata — one declared study."""

    name: str
    title: str = ""
    panels: tuple[Panel, ...] = ()
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.panels:
            raise CampaignError(f"experiment {self.name!r} has no panels")
        names = [p.name for p in self.panels]
        if len(set(names)) != len(names):
            raise CampaignError(
                f"experiment {self.name!r} has duplicate panel names"
            )

    def panel(self, name: str) -> Panel:
        for panel in self.panels:
            if panel.name == name:
                return panel
        raise CampaignError(
            f"experiment {self.name!r} has no panel {name!r}; panels: "
            f"{[p.name for p in self.panels]}"
        )

    def canonical(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "panels": [p.canonical() for p in self.panels],
            "meta": dict(self.meta),
        }

    @property
    def key(self) -> str:
        text = canonical_json(self.canonical())
        return hashlib.sha256(text.encode()).hexdigest()

    def __hash__(self) -> int:
        return hash(self.key)

    @classmethod
    def from_dict(cls, data: Any) -> "Experiment":
        if isinstance(data, Mapping) and "experiment" in data:
            # ``experiment`` is the file-level alias of ``name``
            data = dict(data)
            data.setdefault("name", data.pop("experiment"))
        return super().from_dict(data)


# -- execution ----------------------------------------------------------------------


class Inputs:
    """Each distinct topology and each distinct ``(topology, workload,
    seed)`` built once, for as long as this object lives. What it
    returns is shared between callers, so it is read-only."""

    def __init__(self) -> None:
        self._topologies: dict[TopologySpec, Any] = {}
        self._flows: dict[tuple[TopologySpec, WorkloadSpec, int], Any] = {}

    def topology(self, spec: TopologySpec) -> Any:
        topology = self._topologies.get(spec)
        if topology is None:
            topology = self._topologies[spec] = spec.build()
        return topology

    def flows(self, spec: ScenarioSpec) -> Any:
        """The workload ``spec`` runs: its builder's output on the
        spec's topology and seed (protocol-independent). Every flow of
        a list workload must run between hosts of the topology (a lazy
        stream's builder draws its own endpoints), or it is a
        :class:`WorkloadError` naming the first flow that does not."""
        key = (spec.topology, spec.workload, spec.seed)
        flows = self._flows.get(key)
        if flows is None:
            topology = self.topology(spec.topology)
            flows = spec.workload.build(topology, spec.seed)
            if isinstance(flows, list):
                _check_endpoints(flows, topology, spec.topology.kind)
            self._flows[key] = flows
        return flows


def _check_endpoints(flows: list, topology: Any, kind: str) -> None:
    hosts = set(topology.hosts)
    for flow in flows:
        for end, node in (("src", flow.src), ("dst", flow.dst)):
            if node not in hosts:
                raise WorkloadError(
                    f"flow {flow.fid} {end} {node!r} is not a host of "
                    f"topology kind {kind!r}")


@dataclass
class PanelRun:
    """One executed panel, handed to its reducer.

    ``rows`` holds ``(combo, spec, collector)`` per grid cell (in grid
    order); ``found`` holds ``(combo, value)`` per search cell.

    Reducer contract: a reducer that needs a cell's inputs (an
    omniscient-scheduler row, a normalization by the optimal FCT) reads
    them through :meth:`flows`, never by rebuilding the spec; the
    :class:`Inputs` memo behind it lives and dies with this object.
    """

    panel: Panel
    rows: list[tuple[dict[str, Any], ScenarioSpec, MetricsCollector]] = (
        field(default_factory=list))
    found: list[tuple[dict[str, Any], Any]] | None = None
    _inputs: Inputs = field(default_factory=Inputs, init=False, repr=False)

    def flows(self, spec: ScenarioSpec) -> Any:
        """The workload ``spec`` ran (see :meth:`Inputs.flows`)."""
        return self._inputs.flows(spec)

    def single_cell(self) -> tuple[ScenarioSpec, MetricsCollector]:
        """The one ``(spec, collector)`` of a one-cell grid panel."""
        if len(self.rows) != 1:
            raise ExperimentError(
                f"panel {self.panel.name!r} reduces exactly one scenario, "
                f"its grid has {len(self.rows)}"
            )
        _combo, spec, collector = self.rows[0]
        return spec, collector

    def axis_names(self) -> list[str]:
        return [name for name, _ in self.panel.axes]

    def axis_values(self, name: str) -> list[Any]:
        """The display values declared for one axis, in order."""
        for axis, values in self.panel.axes:
            if axis == name:
                return [display for display, _ in _axis_cells(axis, values)]
        raise ExperimentError(
            f"panel {self.panel.name!r} has no axis {name!r}; "
            f"axes: {self.axis_names()}"
        )

    def cell_values(self, by: Sequence[str],
                    metric: str | None) -> dict[tuple[Any, ...], Any]:
        """Group results ``by`` axes (first-seen order) and average the
        grouped-out replicas: the named ``metric`` per collector for grid
        panels, the searched value for search panels."""
        by = list(by)
        groups: dict[tuple[Any, ...], list[Any]] = {}

        def cell_of(combo: dict[str, Any]) -> tuple[Any, ...]:
            try:
                return tuple(combo[a] for a in by)
            except KeyError as exc:
                raise ExperimentError(
                    f"panel {self.panel.name!r} has no axis {exc.args[0]!r};"
                    f" axes: {self.axis_names()}"
                ) from None

        if self.found is not None:
            for combo, value in self.found:
                groups.setdefault(cell_of(combo), []).append(value)
        else:
            if metric is None:
                raise ExperimentError("grid panels need a metric to reduce")
            fn = collector_metric(metric)
            for combo, _spec, collector in self.rows:
                groups.setdefault(cell_of(combo), []).append(fn(collector))
        return {
            cell: values[0] if len(values) == 1 else mean(values)
            for cell, values in groups.items()
        }


def _run_grid(panel: Panel) -> PanelRun:
    cells = panel.cells()
    collectors = run_scenarios([spec for _, spec in cells])
    return PanelRun(panel, rows=[
        (combo, spec, collector)
        for (combo, spec), collector in zip(cells, collectors, strict=True)
    ])


def _run_search(panel: Panel) -> PanelRun:
    search = panel.search
    metric = collector_metric(search.metric)
    found: list[tuple[dict[str, Any], Any]] = []
    run = PanelRun(panel, found=found)
    for combo, cell_base in panel.cells():

        def meets_target(n: int, _base: ScenarioSpec = cell_base) -> bool:
            value = n if search.scale is None else n * search.scale
            probe_specs = []
            for seed in search.seeds:
                spec = _base.with_(seed=seed, **{search.axis: value})
                if search.require_deadlines and not any(
                        f.has_deadline for f in run.flows(spec)):
                    return True
                probe_specs.append(spec)
            measured = [metric(c) for c in run_scenarios(probe_specs)]
            return mean(measured) >= search.target

        best = binary_search_max(meets_target, lo=search.lo, hi=search.hi,
                                 grow=search.grow)
        found.append(
            (combo, best if search.scale is None else best * search.scale)
        )
    return run


def run_panel(panel: Panel) -> Any:
    """Execute one panel through the ambient campaign runner and return
    its reduced result."""
    run = _run_search(panel) if panel.search is not None else _run_grid(panel)
    reducer = get_reducer(panel.reducer or "table")
    return reducer(run, **dict(panel.reducer_params))


def run_experiment(experiment: Experiment) -> dict[str, Any]:
    """Run every panel in order; results keyed by panel name."""
    return {panel.name: run_panel(panel) for panel in experiment.panels}


# -- registries ---------------------------------------------------------------------

_EXPERIMENTS: dict[str, Experiment] = {}

def register_experiment(experiment: Experiment) -> Experiment:
    """Register a declared experiment under its name (latest wins)."""
    _EXPERIMENTS[experiment.name] = experiment
    return experiment


def experiment_kinds() -> list[str]:
    load_experiment_modules()
    return sorted(_EXPERIMENTS)


def get_experiment(name: str) -> Experiment:
    experiment = _EXPERIMENTS.get(name)
    if experiment is None:
        load_experiment_modules()
        experiment = _EXPERIMENTS.get(name)
    if experiment is None:
        raise unknown_kind("experiment", name, experiment_kinds())
    return experiment


def figure_numbers() -> list[int]:
    """The registered paper-figure numbers (``figN`` experiments)."""
    numbers = []
    for name in experiment_kinds():
        if name.startswith("fig") and name[3:].isdigit():
            numbers.append(int(name[3:]))
    return sorted(numbers)


# -- user-authored experiment files -------------------------------------------------


def load_experiment(data: Mapping[str, Any]) -> Experiment:
    """Build an Experiment from plain data (a parsed spec file)."""
    return Experiment.from_dict(data)


def load_experiment_file(path: str) -> Experiment:
    """Load and parse a user-authored JSON experiment file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CampaignError(f"cannot read experiment file {path}: {exc}") from exc
    except ValueError as exc:
        raise CampaignError(f"{path} is not valid JSON: {exc}") from exc
    return load_experiment(data)


#: what a topology or workload builder raises on parameters it refuses
_BUILD_ERRORS = (ReproError, TypeError, ValueError)


def _check_cell(spec: ScenarioSpec, inputs: Inputs) -> None:
    """One cell's dry run: its names and options resolve and its params
    bind (:func:`validate_spec_kinds`), then its topology and workload
    build, each distinct one once per ``inputs`` (:meth:`Inputs.flows`
    checks a list workload's endpoints), and its fault events and link
    probes name links and nodes of that topology, as the engines check
    them when they start."""
    validate_spec_kinds(spec)
    try:
        topology = inputs.topology(spec.topology)
    except _BUILD_ERRORS as exc:
        raise CampaignError(
            f"topology kind {spec.topology.kind!r}: {exc}") from None
    try:
        inputs.flows(spec)
    except _BUILD_ERRORS as exc:
        raise CampaignError(
            f"workload kind {spec.workload.kind!r}: {exc}") from None
    validate_events(spec.fault_events(), topology)
    check_probe_links(spec.options.get("probes", {}), topology)


def validate_experiment(experiment: Experiment) -> int:
    """Resolve every name a declared experiment references — reducers,
    metrics, topology/workload/engine and probe kinds — bind each
    panel's ``reducer_params`` to its reducer, check every cell's
    options, build its topology and workload, and run each reducer's
    own panel check (:func:`~repro.experiments.reducers.
    reducer_check`), without executing a scenario. Returns the number
    of scenarios a (non-search) full run would submit. The first defect
    raises a :class:`CampaignError` naming the panel and the cell, which
    makes it the ``run-spec --dry-run`` schema check."""
    inputs = Inputs()
    n_scenarios = 0
    for panel in experiment.panels:
        reducer = panel.reducer or "table"
        check = reducer_check(reducer)
        try:
            bind_params("reducer", reducer, get_reducer(reducer), None,
                        **panel.reducer_params)
        except CampaignError as exc:
            raise CampaignError(f"panel {panel.name!r}: {exc}") from None
        search = panel.search
        if search is not None:
            collector_metric(search.metric)
            probe = search.lo if search.scale is None \
                else search.lo * search.scale
        cells = panel.cells()
        for i, (combo, spec) in enumerate(cells):
            try:
                if search is not None:
                    # a search cell runs with its axis set (which also
                    # proves the axis assignable): check the spec it runs
                    spec = spec.with_(seed=search.seeds[0],
                                      **{search.axis: probe})
                _check_cell(spec, inputs)
            except CampaignError as exc:
                coords = ", ".join(f"{k}={v}" for k, v in combo.items())
                raise CampaignError(
                    f"panel {panel.name!r} cell {i}"
                    + (f" ({coords})" if coords else "") + f": {exc}"
                ) from None
        if check is not None:
            try:
                check(panel)
            except ExperimentError as exc:
                raise CampaignError(str(exc)) from None
        if search is None:
            n_scenarios += len(cells)
    return n_scenarios
