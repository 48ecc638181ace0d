"""Fault schedules and loss rules as first-class scenario data.

A spec's ``faults`` field is a :class:`Faults` mapping with up to two
keys:

* ``events`` — a schedule of topology changes, each
  ``{"time": t, "action": "link_down"|"link_up", "a": ..., "b": ...}``
  or ``{"time": t, "action": "switch_down"|"switch_up", "node": ...}``;
* ``loss`` — random wire-loss rules, each
  ``{"src": pattern, "dst": pattern, "rate": p}`` plus optional
  ``seed`` (defaults to the scenario seed at run time) and
  ``both_directions`` (defaults true, matching Fig 9). Patterns are
  ``fnmatch``-style globs over node names; an exact name matches only
  itself, so one rule can name a single link or a whole link class.

:class:`Faults`, :class:`FaultEvent` and :class:`LossRule` are
:class:`~repro.schema.JsonSpec` dataclasses: the spec schema reads them
when the scenario is built, before anything runs, and a malformed one
is a :class:`~repro.errors.FaultError` naming its JSON path
(``scenario faults events[0] time: must be >= 0, got -1``). The engines
consume the same objects; :func:`validate_events` checks the names
against the topology when an engine starts (and in the dry run). Both
engines track the outage a schedule has produced so far in a
:class:`FaultState`, the one place the failed directed edges are
derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping
from operator import attrgetter
from typing import TYPE_CHECKING, Any

from repro.errors import FaultError
from repro.schema import NON_EMPTY, JsonSpec, _PathError, at_least, within

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.base import Topology

#: every action a fault event may carry
ACTIONS = ("link_down", "link_up", "switch_down", "switch_up")
LINK_ACTIONS = ("link_down", "link_up")


class _FaultPathError(_PathError, FaultError):
    """A malformed ``faults`` field: a spec path error, and a FaultError."""


@dataclass(frozen=True)
class FaultEvent(JsonSpec):
    """One scheduled topology change: a link action names the cable's
    endpoints ``a`` and ``b``, a switch action its ``node``."""

    _error = _FaultPathError

    time: float = field(metadata=at_least(0))
    action: str
    a: str | None = field(default=None, metadata=NON_EMPTY)
    b: str | None = field(default=None, metadata=NON_EMPTY)
    node: str | None = field(default=None, metadata=NON_EMPTY)

    @property
    def is_link(self) -> bool:
        return self.action in LINK_ACTIONS

    def _check(self) -> None:
        if self.action not in ACTIONS:
            raise _PathError(("action",), f"must be one of "
                             f"{', '.join(ACTIONS)}, got {self.action!r}")
        names = ("a", "b") if self.is_link else ("node",)
        given = tuple(n for n in ("a", "b", "node")
                      if getattr(self, n) is not None)
        if given != names:
            raise _PathError((), f"a {self.action} event names exactly "
                             f"{' and '.join(names)}, got {list(given)}")
        if self.is_link and self.a == self.b:
            raise _PathError(("b",), f"must differ from a, got {self.b!r}")

    def canonical(self) -> dict[str, Any]:
        return {**super().canonical(), "time": float(self.time)}


@dataclass(frozen=True)
class LossRule(JsonSpec):
    """Random wire loss on every link whose endpoints match the globs.
    An unseeded rule draws from the scenario seed
    (:meth:`~repro.campaign.spec.ScenarioSpec.loss_rules`), so a seed
    sweep redraws the loss pattern per scenario (Fig 9's seed axis)."""

    _error = _FaultPathError

    src: str = field(metadata=NON_EMPTY)
    dst: str = field(metadata=NON_EMPTY)
    rate: float = field(metadata=within(0, 1))
    seed: int | None = None
    both_directions: bool = True

    def canonical(self) -> dict[str, Any]:
        # defaults are *omitted* so an explicit default and an absent
        # key hash identically
        out = {**super().canonical(), "rate": float(self.rate)}
        if self.both_directions:
            del out["both_directions"]
        return out


@dataclass(frozen=True)
class Faults(JsonSpec):
    """A scenario's ``faults``: the ``events`` sorted by time (stable,
    so same-time events keep declaration order) and the ``loss`` rules
    in declaration order (later rules override earlier ones on
    overlapping links). Empty sections are omitted from the canonical
    form, and a mapping with neither is an error."""

    _error = _FaultPathError

    events: tuple[FaultEvent, ...] = ()
    loss: tuple[LossRule, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "events",
                           tuple(sorted(self.events, key=attrgetter("time"))))

    def _check(self) -> None:
        if not self.events and not self.loss:
            raise _PathError((), "must declare at least one event or "
                                 "loss rule")

    def canonical(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        if self.events:
            out["events"] = [event.canonical() for event in self.events]
        if self.loss:
            out["loss"] = [rule.canonical() for rule in self.loss]
        return out


# -- run-time state (both engines) ---------------------------------------------------


def validate_events(events: Iterable[FaultEvent], topology: Topology) -> None:
    """Fail fast on events naming links or nodes the topology lacks."""
    graph = topology.graph
    for event in events:
        if event.is_link:
            if not graph.has_edge(event.a, event.b):
                raise FaultError(
                    f"{event.action} at t={event.time}: no link "
                    f"{event.a!r} -- {event.b!r} in the topology"
                )
        elif event.node not in graph.nodes:
            raise FaultError(
                f"{event.action} at t={event.time}: no node "
                f"{event.node!r} in the topology"
            )


class FaultState:
    """The cables and switches a fault schedule has taken down so far.

    :meth:`down_edges` derives the failed directed edges from scratch,
    so overlapping faults compose: an edge stays down while its cable
    or either endpoint is down, and a link downed both explicitly and
    via its switch comes back only once both are lifted.
    """

    def __init__(self) -> None:
        #: down cables, stored in both orientations
        self.down_pairs: set[tuple[str, str]] = set()
        self.down_switches: set[str] = set()

    def apply(self, event: FaultEvent) -> None:
        a, b = event.a, event.b
        if event.action == "link_down":
            self.down_pairs.update(((a, b), (b, a)))
        elif event.action == "link_up":
            self.down_pairs.difference_update(((a, b), (b, a)))
        elif event.action == "switch_down":
            self.down_switches.add(event.node)
        else:  # switch_up
            self.down_switches.discard(event.node)

    def down_edges(self, edge_index: Mapping[tuple[str, str], int]) -> set[int]:
        """The ids in ``edge_index`` of every edge currently down."""
        pairs = self.down_pairs
        switches = self.down_switches
        return {
            eid for (a, b), eid in edge_index.items()
            if a in switches or b in switches or (a, b) in pairs
        }
