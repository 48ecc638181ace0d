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
from dataclasses import dataclass, field, replace
from collections.abc import Mapping, Sequence
from typing import Any

from repro.campaign.engines import ENGINES
from repro.errors import CampaignError
from repro.faults.spec import Faults
from repro.schema import POSITIVE, JsonSpec, _document, _plain


def canonical_json(data: Any) -> str:
    """Deterministic JSON used for content hashing (sorted keys, no ws)."""
    return json.dumps(_plain(data), sort_keys=True, separators=(",", ":"))


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
class TopologySpec(JsonSpec):
    """A topology by registered kind name plus constructor parameters."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

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


@dataclass(frozen=True)
class WorkloadSpec(JsonSpec):
    """A workload by registered kind name plus builder parameters.

    The builder receives the constructed topology and the scenario seed,
    so the same workload kind scales with whatever topology it runs on.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def canonical(self) -> dict[str, Any]:
        return _memo(self, "_canonical", lambda: {
            "kind": self.kind, "params": _plain(self.params)})

    def __hash__(self) -> int:
        return hash(_memo(self, "_text",
                          lambda: canonical_json(self.canonical())))

    def build(self, topology, seed: int):
        from repro.campaign.registry import build_workload

        return build_workload(self.kind, topology, seed, self.params)


@dataclass(frozen=True)
class ScenarioSpec(JsonSpec):
    """One simulation run: protocol x topology x workload x seed x engine.

    ``sim_deadline=None`` means "use the engine's own default horizon";
    a given one must be positive. ``faults`` is a
    :class:`~repro.faults.spec.Faults` mapping with an ``events``
    schedule (link/switch down/up at simulated times, both engines)
    and/or glob-matched ``loss`` rules (packet engine). ``options``
    carries engine options plus, on a PDQ protocol, ``PdqConfig``
    fields (``aging_rate``, ...), as
    :func:`~repro.campaign.engines.check_options` lists them.
    :meth:`from_dict` refuses the retired top-level ``loss`` list of old
    spec files, naming the ``faults.loss`` rule that replaces it; a
    ``null`` there, as :meth:`canonical` writes it, reads as nothing.
    """

    protocol: str
    topology: TopologySpec
    workload: WorkloadSpec
    engine: str = "packet"
    seed: int = 1
    sim_deadline: float | None = field(default=None, metadata=POSITIVE)
    options: Mapping[str, Any] = field(default_factory=dict)
    faults: Faults | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.engine not in ENGINES:
            from repro.campaign.registry import unknown_kind

            raise unknown_kind("engine", self.engine, ENGINES)
        if self.faults is not None and self.faults.loss \
                and self.engine != "packet":
            raise CampaignError(
                "loss injection only exists in the packet engine"
            )

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
            data["faults"] = self.faults.canonical()
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

    @classmethod
    def from_dict(cls, data: Any) -> "ScenarioSpec":
        data = _document(cls, data, extra=("loss",))
        if data.pop("loss", None) is not None:
            raise CampaignError(
                "loss: the top-level [node_a, node_b, rate, seed] list is "
                "retired; give the rule as faults.loss [{\"src\": node_a, "
                "\"dst\": node_b, \"rate\": rate, \"seed\": seed}]")
        return cls(**data)

    # -- fault-injection views ------------------------------------------------------

    def loss_rules(self) -> tuple:
        """The spec's ``faults.loss`` rules, with unseeded rules
        resolved to the scenario seed."""
        if self.faults is None:
            return ()
        return tuple(rule if rule.seed is not None
                     else replace(rule, seed=self.seed)
                     for rule in self.faults.loss)

    def fault_events(self) -> tuple:
        """The spec's scheduled fault events (time-sorted)."""
        return () if self.faults is None else self.faults.events

    # -- functional updates -------------------------------------------------------

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """Functional update. Dotted names reach into the nested specs:
        ``workload.n_flows``, ``topology.n_servers``, ``options.aging_rate``.
        """
        parts: dict[str, Any] = {}
        flat: dict[str, Any] = {}
        for name, value in changes.items():
            head, dot, param = name.partition(".")
            if not dot:
                flat[name] = value
            elif head == "options":
                parts[head] = {**parts.get(head, self.options), param: value}
            elif head in ("workload", "topology"):
                part = parts.get(head, getattr(self, head))
                parts[head] = type(part)(part.kind,
                                         {**part.params, param: value})
            else:
                raise CampaignError(f"unknown spec axis {name!r}")
        # one construction; a whole field given flat wins over its parts
        changes = {**parts, **flat}
        return replace(self, **changes) if changes else self


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
