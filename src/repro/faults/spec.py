"""Fault schedules and loss rules as first-class scenario data.

A spec's ``faults`` field is a plain mapping with up to two keys:

* ``events`` — a schedule of topology changes, each
  ``{"time": t, "action": "link_down"|"link_up", "a": ..., "b": ...}``
  or ``{"time": t, "action": "switch_down"|"switch_up", "node": ...}``;
* ``loss`` — random wire-loss rules, each
  ``{"src": pattern, "dst": pattern, "rate": p}`` plus optional
  ``seed`` (defaults to the scenario seed at run time) and
  ``both_directions`` (defaults true, matching Fig 9). Patterns are
  ``fnmatch``-style globs over node names; an exact name matches only
  itself, so one rule can name a single link or a whole link class.

:func:`canonical_faults` validates and normalizes the mapping into the
plain-data form that :meth:`~repro.campaign.spec.ScenarioSpec.canonical`
hashes; :func:`events_from` / :func:`loss_rules_from` turn that form
into the typed objects the engines consume. Validation lives here — not
in the engines — so a bad schedule fails at spec construction, before
anything runs; :func:`validate_events` checks the names against the
topology when an engine starts. Both engines track the outage a
schedule has produced so far in a :class:`FaultState`, the one place
the failed directed edges are derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.errors import FaultError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.base import Topology

#: every action a fault event may carry
ACTIONS = ("link_down", "link_up", "switch_down", "switch_up")
LINK_ACTIONS = ("link_down", "link_up")
SWITCH_ACTIONS = ("switch_down", "switch_up")

_EVENT_KEYS_LINK = frozenset(("time", "action", "a", "b"))
_EVENT_KEYS_SWITCH = frozenset(("time", "action", "node"))
_LOSS_KEYS = frozenset(("src", "dst", "rate", "seed", "both_directions"))
_FAULT_KEYS = frozenset(("events", "loss"))


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled topology change.

    ``a``/``b`` are the link endpoints for link actions; switch actions
    carry the switch name in ``a`` with ``b`` left None.
    """

    time: float
    action: str
    a: str
    b: str | None = None

    @property
    def is_link(self) -> bool:
        return self.action in LINK_ACTIONS


@dataclass(frozen=True)
class LossRule:
    """Random wire loss on every link whose endpoints match the globs."""

    src: str
    dst: str
    rate: float
    seed: int
    both_directions: bool = True


def _require_str(value: Any, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise FaultError(f"{what} must be a non-empty string, got {value!r}")
    return value


def _require_time(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FaultError(f"fault event time must be a number, got {value!r}")
    # spelled so that NaN fails it; +inf is no time either
    if not 0 <= value < float("inf"):
        raise FaultError(
            f"fault event time must be finite and >= 0, got {value!r}")
    return float(value)


def _canonical_event(data: Any) -> dict[str, Any]:
    if not isinstance(data, Mapping):
        raise FaultError(f"fault event must be a mapping, got {data!r}")
    action = data.get("action")
    if action not in ACTIONS:
        raise FaultError(
            f"fault action must be one of {'/'.join(ACTIONS)}, got {action!r}"
        )
    allowed = _EVENT_KEYS_LINK if action in LINK_ACTIONS else _EVENT_KEYS_SWITCH
    extra = set(data) - allowed
    missing = allowed - set(data)
    if extra or missing:
        raise FaultError(
            f"{action} event needs exactly keys {sorted(allowed)}; "
            f"got {sorted(data)}"
        )
    out: dict[str, Any] = {"time": _require_time(data["time"]),
                           "action": action}
    if action in LINK_ACTIONS:
        a = _require_str(data["a"], "link event endpoint 'a'")
        b = _require_str(data["b"], "link event endpoint 'b'")
        if a == b:
            raise FaultError(f"link event endpoints must differ, got {a!r}")
        out["a"], out["b"] = a, b
    else:
        out["node"] = _require_str(data["node"], "switch event 'node'")
    return out


def _canonical_loss_rule(data: Any) -> dict[str, Any]:
    if not isinstance(data, Mapping):
        raise FaultError(f"loss rule must be a mapping, got {data!r}")
    extra = set(data) - _LOSS_KEYS
    if extra:
        raise FaultError(f"unknown loss-rule keys {sorted(extra)}")
    for required in ("src", "dst", "rate"):
        if required not in data:
            raise FaultError(f"loss rule needs a {required!r} key")
    rate = data["rate"]
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) \
            or not 0.0 <= rate <= 1.0:
        raise FaultError(f"loss rate must be in [0, 1], got {rate!r}")
    out: dict[str, Any] = {
        "src": _require_str(data["src"], "loss rule 'src'"),
        "dst": _require_str(data["dst"], "loss rule 'dst'"),
        "rate": float(rate),
    }
    # defaults are *omitted* from the canonical form so an explicit
    # default and an absent key hash identically
    seed = data.get("seed")
    if seed is not None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise FaultError(f"loss rule seed must be an int, got {seed!r}")
        out["seed"] = seed
    both = data.get("both_directions", True)
    if not isinstance(both, bool):
        raise FaultError(
            f"both_directions must be a bool, got {both!r}"
        )
    if not both:
        out["both_directions"] = False
    return out


def canonical_faults(data: Mapping[str, Any]) -> dict[str, Any]:
    """Validate a ``faults`` mapping and return its normal form.

    The normal form is plain data (hashable by ``canonical_json``):
    events sorted by time (stable, so same-time events keep declaration
    order), loss rules in declaration order (later rules override
    earlier ones on overlapping links), empty sections omitted.
    """
    if not isinstance(data, Mapping):
        raise FaultError(f"faults must be a mapping, got {data!r}")
    extra = set(data) - _FAULT_KEYS
    if extra:
        raise FaultError(
            f"unknown faults keys {sorted(extra)} (expected 'events'/'loss')"
        )
    out: dict[str, Any] = {}
    events = data.get("events")
    if events is not None:
        if isinstance(events, (str, Mapping)) or \
                not isinstance(events, Sequence):
            raise FaultError("faults 'events' must be a list of events")
        normalized = [_canonical_event(event) for event in events]
        normalized.sort(key=lambda e: e["time"])
        if normalized:
            out["events"] = normalized
    loss = data.get("loss")
    if loss is not None:
        if isinstance(loss, (str, Mapping)) or not isinstance(loss, Sequence):
            raise FaultError("faults 'loss' must be a list of loss rules")
        rules = [_canonical_loss_rule(rule) for rule in loss]
        if rules:
            out["loss"] = rules
    if not out:
        raise FaultError("faults must declare at least one event or loss rule")
    return out


def events_from(faults: Mapping[str, Any]) -> tuple[FaultEvent, ...]:
    """Typed fault events from a (canonical or raw) ``faults`` mapping."""
    events = canonical_faults(faults).get("events", ())
    return tuple(
        FaultEvent(
            time=event["time"],
            action=event["action"],
            a=event.get("a", event.get("node")),
            b=event.get("b"),
        )
        for event in events
    )


def loss_rules_from(faults: Mapping[str, Any],
                    default_seed: int) -> tuple[LossRule, ...]:
    """Typed loss rules, with unseeded rules resolved to ``default_seed``.

    Seed resolution happens here — not in the canonical form — so a
    seed sweep over a spec whose rules omit ``seed`` redraws the loss
    pattern per scenario (Fig 9's seed axis relies on this).
    """
    rules = canonical_faults(faults).get("loss", ())
    return tuple(
        LossRule(
            src=rule["src"],
            dst=rule["dst"],
            rate=rule["rate"],
            seed=rule.get("seed", default_seed),
            both_directions=rule.get("both_directions", True),
        )
        for rule in rules
    )


# -- run-time state (both engines) ---------------------------------------------------


def validate_events(events: Iterable[FaultEvent], topology: Topology) -> None:
    """Fail fast on events at no valid time, or naming links or nodes
    the topology lacks."""
    graph = topology.graph
    for event in events:
        _require_time(event.time)
        if event.is_link:
            if not graph.has_edge(event.a, event.b):
                raise FaultError(
                    f"{event.action} at t={event.time}: no link "
                    f"{event.a!r} -- {event.b!r} in the topology"
                )
        elif event.a not in graph.nodes:
            raise FaultError(
                f"{event.action} at t={event.time}: no node "
                f"{event.a!r} in the topology"
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
            self.down_switches.add(a)
        else:  # switch_up
            self.down_switches.discard(a)

    def down_edges(self, edge_index: Mapping[tuple[str, str], int]) -> set[int]:
        """The ids in ``edge_index`` of every edge currently down."""
        pairs = self.down_pairs
        switches = self.down_switches
        return {
            eid for (a, b), eid in edge_index.items()
            if a in switches or b in switches or (a, b) in pairs
        }
