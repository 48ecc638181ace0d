"""Declarative scenario specifications with stable content-hash keys.

A :class:`ScenarioSpec` names everything a simulation run depends on —
protocol, topology, workload, seed, engine, and engine options — as plain
data. Two specs describing the same run canonicalize to the same JSON and
therefore the same SHA-256 key, which the :class:`~repro.campaign.store.
ResultStore` uses as its cache key: re-running a campaign only executes
scenarios whose keys are not yet stored.

Topology and workload builders are referenced by registered *kind* names
(see :mod:`repro.campaign.registry`) so specs stay picklable, hashable,
and executable in worker processes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.campaign.engines import engine_kinds
from repro.errors import CampaignError


def _plain(value: Any) -> Any:
    """Normalize to JSON-safe plain data (tuples become lists)."""
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (str, int, float)):
        return value
    raise CampaignError(f"spec values must be plain data, got {value!r}")


def canonical_json(data: Any) -> str:
    """Deterministic JSON used for content hashing (sorted keys, no ws)."""
    return json.dumps(_plain(data), sort_keys=True, separators=(",", ":"))


def _check_fields(what: str, data: Any, allowed: Sequence[str],
                  required: Sequence[str] = ()) -> None:
    """Spec files are validated strictly: a misspelled field would
    otherwise be silently dropped and its directive never applied."""
    if not isinstance(data, Mapping):
        raise CampaignError(f"{what} must be a mapping, got {data!r}")
    unknown = sorted(set(data).difference(allowed))
    if unknown:
        import difflib

        hints = []
        for name in unknown:
            close = difflib.get_close_matches(name, allowed, n=1, cutoff=0.6)
            if close:
                hints.append(f"{name!r} (did you mean {close[0]!r}?)")
            else:
                hints.append(repr(name))
        raise CampaignError(
            f"{what}: unknown field(s) {', '.join(hints)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    for name in required:
        if name not in data:
            raise CampaignError(f"{what}: missing required field {name!r}")


def _mapping(what: str, value: Any) -> dict[str, Any]:
    """A spec mapping field as a fresh dict; a JSON list or scalar in
    its place is a spec error, not a ``dict()`` traceback."""
    if not isinstance(value, Mapping):
        raise CampaignError(f"{what} must be a mapping, got {value!r}")
    return dict(value)


def _number(what: str, value: Any) -> None:
    """Check a spec number field: a finite int or float, never coerced
    (keys hash it as given). A bool, a JSON string or a NaN in its place
    is a spec error, not a ``TypeError`` once a cell runs."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise CampaignError(f"{what} must be a finite number, got {value!r}")


def _memo(spec: Any, name: str, compute: Callable[[], Any]) -> Any:
    """``compute()`` once per frozen spec, kept on the instance like
    ``ScenarioSpec.key``: panel input memos hash the same topology and
    workload specs on every lookup."""
    value = spec.__dict__.get(name)
    if value is None:
        value = compute()
        object.__setattr__(spec, name, value)
    return value


@dataclass(frozen=True)
class TopologySpec:
    """A topology by registered kind name plus constructor parameters."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _mapping("topology params",
                                                    self.params))

    def canonical(self) -> dict[str, Any]:
        return _memo(self, "_canonical", lambda: {
            "kind": self.kind, "params": _plain(self.params)})

    def __hash__(self) -> int:
        # the params dict defeats the generated frozen-dataclass hash; the
        # text is kept, not its hash, which is salted per process
        return hash(_memo(self, "_text",
                          lambda: canonical_json(self.canonical())))

    def build(self):
        from repro.campaign.registry import build_topology

        return build_topology(self.kind, self.params)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        _check_fields("topology", data, ("kind", "params"), ("kind",))
        return cls(kind=data["kind"], params=data.get("params", {}))


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload by registered kind name plus builder parameters.

    The builder receives the constructed topology and the scenario seed,
    so the same workload kind scales with whatever topology it runs on.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _mapping("workload params",
                                                    self.params))

    def canonical(self) -> dict[str, Any]:
        return _memo(self, "_canonical", lambda: {
            "kind": self.kind, "params": _plain(self.params)})

    def __hash__(self) -> int:
        return hash(_memo(self, "_text",
                          lambda: canonical_json(self.canonical())))

    def build(self, topology, seed: int):
        from repro.campaign.registry import build_workload

        return build_workload(self.kind, topology, seed, self.params)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        _check_fields("workload", data, ("kind", "params"), ("kind",))
        return cls(kind=data["kind"], params=data.get("params", {}))


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation run: protocol x topology x workload x seed x engine.

    ``sim_deadline=None`` means "use the engine's own default horizon".
    ``faults`` is a mapping with an ``events`` schedule (link/switch
    down/up at simulated times, both engines) and/or glob-matched
    ``loss`` rules (packet engine), see :mod:`repro.faults.spec`.
    ``options`` carries engine/protocol keyword options (``n_subflows``,
    PDQ config overrides like ``aging_rate`` or ``criticality_mode``).
    :meth:`from_dict` reads the retired top-level ``loss`` list of old
    spec files as an exact-name ``faults.loss`` rule.
    """

    protocol: str
    topology: TopologySpec
    workload: WorkloadSpec
    engine: str = "packet"
    seed: int = 1
    sim_deadline: float | None = None
    options: Mapping[str, Any] = field(default_factory=dict)
    faults: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.engine not in engine_kinds():
            from repro.campaign.registry import unknown_kind

            raise unknown_kind("engine", self.engine, engine_kinds())
        if not isinstance(self.topology, TopologySpec):
            raise CampaignError("topology must be a TopologySpec")
        if not isinstance(self.workload, WorkloadSpec):
            raise CampaignError("workload must be a WorkloadSpec")
        if type(self.seed) is not int:
            raise CampaignError(f"seed must be an integer, got {self.seed!r}")
        if self.sim_deadline is not None:
            _number("sim_deadline", self.sim_deadline)
        object.__setattr__(self, "options",
                           _mapping("options", self.options))
        if self.faults is not None:
            from repro.faults.spec import canonical_faults

            normalized = canonical_faults(self.faults)
            if "loss" in normalized and self.engine != "packet":
                raise CampaignError(
                    "loss injection only exists in the packet engine"
                )
            object.__setattr__(self, "faults", normalized)

    # -- identity -----------------------------------------------------------------

    def canonical(self) -> dict[str, Any]:
        """Plain-data form; equal runs canonicalize identically."""
        data = {
            "protocol": self.protocol,
            "topology": self.topology.canonical(),
            "workload": self.workload.canonical(),
            "engine": self.engine,
            "seed": self.seed,
            "sim_deadline": self.sim_deadline,
            # the retired Fig 9 loss tuple's slot: every stored key hashes it
            "loss": None,
            "options": _plain(self.options),
        }
        if self.faults is not None:
            # additive: fault-free specs keep their pre-faults key
            data["faults"] = _plain(self.faults)
        return data

    @property
    def key(self) -> str:
        """Stable content hash of the canonical form (cache key)."""
        # computed lazily once: the runner reads it on every cache probe
        cached = self.__dict__.get("_key")
        if cached is None:
            text = canonical_json(self.canonical())
            cached = hashlib.sha256(text.encode()).hexdigest()
            object.__setattr__(self, "_key", cached)
        return cached

    def __hash__(self) -> int:
        return hash(self.key)

    def describe(self) -> str:
        workload_params = ",".join(
            f"{k}={v}" for k, v in sorted(self.workload.params.items())
            if v is not None
        )
        workload = self.workload.kind + (
            f"({workload_params})" if workload_params else ""
        )
        extras = "".join(
            f" {k}={v}" for k, v in sorted(self.options.items())
        )
        return (
            f"{self.protocol} x {workload} on {self.topology.kind}"
            f" [engine={self.engine} seed={self.seed}{extras}]"
        )

    _FIELDS = ("protocol", "topology", "workload", "engine", "seed",
               "sim_deadline", "loss", "options", "faults")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        _check_fields("scenario spec", data, cls._FIELDS,
                      ("protocol", "topology", "workload"))
        faults = data.get("faults")
        if data.get("loss") is not None:
            faults = _legacy_loss_faults(data["loss"], faults)
        return cls(
            protocol=data["protocol"],
            topology=TopologySpec.from_dict(data["topology"]),
            workload=WorkloadSpec.from_dict(data["workload"]),
            engine=data.get("engine", "packet"),
            seed=data.get("seed", 1),
            sim_deadline=data.get("sim_deadline"),
            options=data.get("options", {}),
            faults=faults,
        )

    # -- fault-injection views ------------------------------------------------------

    def loss_rules(self) -> tuple:
        """The spec's ``faults.loss`` rules as typed
        :class:`~repro.faults.spec.LossRule` objects, with unseeded
        rules resolved to the scenario seed."""
        if self.faults is None or "loss" not in self.faults:
            return ()
        from repro.faults.spec import loss_rules_from

        return loss_rules_from(self.faults, default_seed=self.seed)

    def fault_events(self) -> tuple:
        """The spec's scheduled fault events as typed
        :class:`~repro.faults.spec.FaultEvent` objects (time-sorted)."""
        if self.faults is None or "events" not in self.faults:
            return ()
        from repro.faults.spec import events_from

        return events_from(self.faults)

    # -- functional updates -------------------------------------------------------

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """Functional update. Dotted names reach into the nested specs:
        ``workload.n_flows``, ``topology.n_servers``, ``options.aging_rate``.
        """
        spec = self
        flat: dict[str, Any] = {}
        for name, value in changes.items():
            if "." not in name:
                flat[name] = value
                continue
            head, _, param = name.partition(".")
            if head == "workload":
                spec = replace(spec, workload=WorkloadSpec(
                    spec.workload.kind, {**spec.workload.params, param: value}
                ))
            elif head == "topology":
                spec = replace(spec, topology=TopologySpec(
                    spec.topology.kind, {**spec.topology.params, param: value}
                ))
            elif head == "options":
                spec = replace(spec, options={**spec.options, param: value})
            else:
                raise CampaignError(f"unknown spec axis {name!r}")
        return replace(spec, **flat) if flat else spec


def _legacy_loss_faults(loss: Any, faults: Any) -> dict[str, Any]:
    """Old spec files and stored results carry Fig 9's retired
    ``[node_a, node_b, rate, seed]`` loss list: read it as the
    exact-name, explicitly seeded rule it always ran as, ahead of any
    ``faults.loss`` rules."""
    if isinstance(loss, (str, Mapping)) or not isinstance(loss, Sequence) \
            or len(loss) != 4:
        raise CampaignError(
            f"legacy loss must be [node_a, node_b, rate, seed], got {loss!r}"
        )
    faults = {} if faults is None else faults
    if not isinstance(faults, Mapping):
        raise CampaignError(f"faults must be a mapping, got {faults!r}")
    a, b, rate, seed = loss
    rule = {"src": a, "dst": b, "rate": rate, "seed": seed}
    return {**faults, "loss": [rule, *(faults.get("loss") or ())]}


def is_labeled_cell(value: Any) -> bool:
    """True for a ``(label, {field: value, ...})`` labeled axis cell.

    The single classification rule shared by grid expansion and the
    experiment API's axis canonicalization — keep them in lockstep, or
    a panel's content hash and its executed cells diverge.
    """
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and isinstance(value[1], Mapping))


def _axis_cells(name: str, values: Sequence[Any]) -> list[tuple[Any, dict]]:
    """Normalize one grid axis into (display value, with_ kwargs) cells.

    Three value forms are understood:

    * *plain* — ``protocol=["RCP", "D3"]``: the value is both the cell's
      display value and the value assigned to the axis field;
    * *composite* — a comma-joined name (``"protocol,options.n_subflows"``)
      with tuple values of matching arity, for axes whose fields must
      vary together; the display value is the tuple;
    * *labeled* — values are ``(label, {field: value, ...})`` pairs: the
      mapping is applied through :meth:`ScenarioSpec.with_` and the label
      is the cell's display value. This expresses non-field axes (named
      schemes, protocol/option bundles) and even non-cartesian grids —
      an assignment may touch any fields, or none.
    """
    if not values:
        raise CampaignError(f"empty grid axis {name!r}")
    parts = [p.strip() for p in name.split(",")] if "," in name else None
    cells: list[tuple[Any, dict]] = []
    for value in values:
        if is_labeled_cell(value):
            label, assignments = value
            cells.append((label, dict(assignments)))
        elif parts is not None:
            if not isinstance(value, (list, tuple)) or len(value) != len(parts):
                raise CampaignError(
                    f"composite axis {name!r} needs {len(parts)}-tuples, "
                    f"got {value!r}"
                )
            cells.append((tuple(value), dict(zip(parts, value, strict=True))))
        else:
            cells.append((value, {name: value}))
    return cells


def expand_cells(
    base: ScenarioSpec, axes: Mapping[str, Sequence[Any]],
) -> list[tuple[dict[str, Any], ScenarioSpec]]:
    """Cartesian product of spec axes with per-cell coordinates.

    Like :func:`expand_grid` but returns ``(combo, spec)`` pairs, where
    ``combo`` maps each axis name to that cell's display value — the
    coordinates reducers group results by. Axis values may be plain,
    composite, or labeled (see :func:`_axis_cells`); later axes vary
    fastest.
    """
    names = list(axes)
    normalized = [_axis_cells(name, axes[name]) for name in names]
    out: list[tuple[dict[str, Any], ScenarioSpec]] = []
    for combo in itertools.product(*normalized):
        assignments: dict[str, Any] = {}
        for _, kwargs in combo:
            assignments.update(kwargs)
        spec = base.with_(**assignments) if assignments else base
        out.append((
            {name: display for name, (display, _) in zip(names, combo, strict=True)},
            spec,
        ))
    return out


def expand_grid(base: ScenarioSpec,
                **axes: Sequence[Any]) -> list[ScenarioSpec]:
    """Cartesian product of spec axes around a base spec.

    Axis names are :class:`ScenarioSpec` field names or dotted paths
    (see :meth:`ScenarioSpec.with_`); axis values are sequences. Later
    axes vary fastest::

        expand_grid(base, protocol=["PDQ(Full)", "RCP"], seed=[1, 2, 3])

    Values may also use the composite and labeled forms documented on
    :func:`_axis_cells`. Note the contract this implies: any 2-element
    ``(value, mapping)`` axis value *is* a labeled cell
    (:func:`is_labeled_cell`) whose mapping is applied through
    :meth:`ScenarioSpec.with_` — a plain value of that exact shape
    cannot be swept directly.
    """
    return [spec for _, spec in expand_cells(base, axes)]
