"""The strict JSON reader: each spec dataclass is its own JSON schema.

A :class:`JsonSpec` dataclass reads every field on construction (direct,
``replace``, :meth:`JsonSpec.from_dict`) as its annotation says, then
the one value constraint its field metadata may name (:data:`POSITIVE`,
:data:`NON_EMPTY`, :func:`at_least`, :func:`within`). A value that fails
is a :class:`_PathError` naming its JSON path from the spec's root:
``scenario faults events[0] time: must be >= 0, got -1``.

Every spec shape reads through it: scenarios, topologies and workloads
(:mod:`repro.campaign.spec`), panels, searches and experiments
(:mod:`repro.experiments.api`), fault schedules and loss rules
(:mod:`repro.faults.spec`), probes (:mod:`repro.obs.probes`),
streaming-metrics options (:mod:`repro.metrics.streaming`) and the
engine options (:mod:`repro.campaign.engines`). It imports nothing of
the simulator, so each of those modules can build on it.
"""

from __future__ import annotations

import difflib
import functools
import math
import re
import types
import typing
from dataclasses import MISSING, fields
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

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


class _PathError(CampaignError):
    """A spec error at a JSON path from the failing spec's root, printed
    space-joined: ``panel 'p' base seed: must be an integer, got 'one'``."""

    def __init__(self, path: tuple[str, ...], detail: str) -> None:
        self.path, self.detail = path, detail
        super().__init__(f"{' '.join(path)}: {detail}")


def unknown_names(names: Iterable[str], allowed: Iterable[str]) -> str:
    """``'x' (did you mean 'y'?), 'z'; allowed: ...``: the close-match
    listing of every strict name check (spec fields, engine options)."""
    allowed = sorted(allowed)
    hints = []
    for name in sorted(names):
        close = difflib.get_close_matches(name, allowed, n=1, cutoff=0.6)
        hints.append(f"{name!r} (did you mean {close[0]!r}?)" if close
                     else repr(name))
    return f"{', '.join(hints)}; allowed: {', '.join(allowed)}"


#: a field reader: ``(value, path) -> normalized value``, or a _PathError
Reader = Callable[[Any, tuple[str, ...]], Any]


def _check(expected: str, test: Callable[[Any], bool],
           normalize: Callable[[Any], Any] | None = None) -> Reader:
    def read(value: Any, path: tuple[str, ...]) -> Any:
        if not test(value):
            raise _PathError(path, f"must be {expected}, got {value!r}")
        return value if normalize is None else normalize(value)

    return read


#: the reader of each plain annotation (or its generic origin). A bool
#: is an int to Python, never to a spec; numbers are checked, not
#: coerced: keys hash them as written
_READERS: dict[Any, Reader] = {
    str: _check("a string", lambda v: isinstance(v, str)),
    bool: _check("true or false", lambda v: isinstance(v, bool)),
    int: _check("an integer",
                lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: _check("a finite number",
                  lambda v: isinstance(v, int) and not isinstance(v, bool)
                  or isinstance(v, float) and math.isfinite(v)),
    Mapping: _check("a mapping", lambda v: isinstance(v, Mapping), dict),
    Any: lambda value, path: value,
}

#: a spec list field; a JSON scalar or object in its place is a spec
#: error, not an iteration traceback
read_list = _check("a list", lambda v: isinstance(v, Sequence)
                   and not isinstance(v, (str, Mapping)))


# -- value constraints: field metadata, checked after the JSON type -----------------


def _constraint(text: str, test: Callable[[Any], Any]) -> dict[str, Any]:
    """Field metadata: a read value (not None) must pass ``test``, or it
    is ``must be <text>, got <value>``."""
    return {"check": (text, test)}


POSITIVE = _constraint("positive", lambda v: v > 0)
NON_EMPTY = _constraint("non-empty", len)


def at_least(lo: float) -> dict[str, Any]:
    return _constraint(f">= {lo}", lambda v: v >= lo)


def within(lo: float, hi: float) -> dict[str, Any]:
    return _constraint(f"in [{lo}, {hi}]", lambda v: lo <= v <= hi)


def _constrained(read: Reader, check: tuple[str, Callable] | None) -> Reader:
    if check is None:
        return read
    text, test = check

    def read_checked(value: Any, path: tuple[str, ...]) -> Any:
        value = read(value, path)
        if value is not None and not test(value):
            raise _PathError(path, f"must be {text}, got {value!r}")
        return value

    return read_checked


# -- the reader of a spec dataclass -------------------------------------------------


def _reader(hint: Any) -> Reader:
    """The JSON-type check of one resolved field annotation."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if (origin or hint) in _READERS:
        return _READERS[origin or hint]
    if origin is types.UnionType:  # ``X | None``
        (inner,) = (a for a in args if a is not type(None))
        read = _reader(inner)
        return lambda value, path: (None if value is None
                                    else read(value, path))
    if origin is tuple and args[1:] == (...,):
        item = _reader(args[0])
        return lambda value, path: tuple(
            item(v, path[:-1] + (f"{path[-1]}[{i}]",))
            for i, v in enumerate(read_list(value, path)))
    if isinstance(hint, type) and issubclass(hint, JsonSpec):
        return lambda value, path: _nested(hint, value, path)
    raise TypeError(f"no JSON reader for {hint!r}")


def _nested(cls: type["JsonSpec"], value: Any,
            path: tuple[str, ...]) -> Any:
    """A nested spec field: an instance as given, a JSON object through
    ``cls.from_dict``, its errors re-rooted at ``path``."""
    if isinstance(value, cls):
        return value
    try:
        return cls.from_dict(value)
    except _PathError as exc:
        raise type(exc)(path + exc.path[1:], exc.detail) from None
    except CampaignError as exc:  # a hand check's: its message is the detail
        raise _PathError(path, str(exc)) from None


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, Reader, bool, tuple[str]], ...]:
    """``(name, reader, required, path)`` per field of a spec dataclass,
    from ``dataclasses.fields`` and the resolved annotations; a field's
    ``metadata["read"]`` stands in where no annotation says the shape,
    and its ``metadata["check"]`` (:func:`_constraint`) follows either."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name,
         _constrained(f.metadata.get("read") or _reader(hints[f.name]),
                      f.metadata.get("check")),
         f.default is MISSING and f.default_factory is MISSING, (f.name,))
        for f in fields(cls))


def _root(cls: type, name: Any = None) -> str:
    """A spec's JSON path root: its class name less ``Spec``, in lower
    case words, plus its ``name`` when it has one (``scenario``,
    ``panel 'fig3a'``, ``fault event``)."""
    words = re.sub(r"(?<=[a-z])(?=[A-Z])", " ",
                   cls.__name__.removesuffix("Spec")).lower()
    return words if name is None else f"{words} {name!r}"


class JsonSpec:
    """Base of the spec dataclasses, each its own JSON schema: every
    construction (direct, ``replace``, ``with_``, :meth:`from_dict`)
    reads each field as its annotation says (:func:`_plan`), keeps the
    normalized value (tuples, fresh dicts, nested specs), then runs the
    cross-field :meth:`_check`. Its errors are ``_error``s: a subclass
    may name a narrower one (fault specs raise ``FaultError``s)."""

    _error = _PathError

    def __post_init__(self) -> None:
        try:
            for name, read, _, path in _plan(type(self)):
                value = getattr(self, name)
                checked = read(value, path)
                if checked is not value:
                    object.__setattr__(self, name, checked)
            self._check()
        except _PathError as exc:
            root = _root(type(self), getattr(self, "name", None))
            error = type(exc) if isinstance(exc, self._error) else self._error
            raise error((root, *exc.path), exc.detail) from None

    def _check(self) -> None:
        """What no one field says: a _PathError below the spec's root."""

    def canonical(self) -> dict[str, Any]:
        """Plain data of every field that is set."""
        return {f.name: _plain(value) for f in fields(self)
                if (value := getattr(self, f.name)) is not None}

    @classmethod
    def from_dict(cls, data: Any) -> Any:
        return cls(**_document(cls, data))


def _document(cls: type, data: Any, extra: Sequence[str] = ()) -> dict:
    """The fields of a JSON document for ``cls``: a mapping naming only
    its fields (and the ``extra`` legacy keys the caller reads) and
    every required one. A misspelled field would otherwise be silently
    dropped, and its directive never applied."""
    name = data.get("name") if isinstance(data, Mapping) else None
    root = (_root(cls, name),)
    if not isinstance(data, Mapping):
        raise cls._error(root, f"must be a mapping, got {data!r}")
    plan = _plan(cls)
    allowed = [field_name for field_name, *_ in plan] + list(extra)
    unknown = set(data).difference(allowed)
    if unknown:
        raise cls._error(root, "unknown field(s) "
                               + unknown_names(unknown, allowed))
    for field_name, _, required, _ in plan:
        if required and field_name not in data:
            raise cls._error(root,
                             f"missing required field {field_name!r}")
    return dict(data)
