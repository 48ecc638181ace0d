"""The pin contract: every pinned run and output, and how a moved one is
reported.

* Digest pins live in ``tests/data/pins.json``: family -> case -> the
  run's :func:`repro.metrics.digest` and headline statistics (flows,
  completed, terminated, unfinished, mean and p99 FCT, application
  throughput, and the :data:`COUNTERS` the engine reports); a flow
  sequence pins its digest, count and bytes. The test modules in
  :data:`DIGESTS` own the builders. A moved case fails with one line
  listing each statistic that moved as old -> new.
* JSON pins live one family a file (:data:`FILES`), generated by
  ``capture_golden.py`` and ``capture_keys.py``. A mismatch names the
  first differing JSON path as old -> new.

A pin moves only when behaviour does. To re-baseline on purpose, run
``PYTHONPATH=src python tests/data/capture_pins.py [family ...]``: it
rewrites the stores from the current code and prints a table of what
moved, per case, for CHANGES.md.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import json
from itertools import zip_longest
from pathlib import Path
from typing import Any

from repro.metrics import MetricsCollector, SummaryStats, digest

DATA = Path(__file__).parent / "data"
STORE = DATA / "pins.json"
HINT = "re-baseline on purpose with tests/data/capture_pins.py"

#: digest family -> (test module, its table: case -> run() -> outputs)
DIGESTS = {
    "packet": ("test_pdq_digest_pins", "PINNED"),
    "fluid": ("test_fluid_digest_pins", "PINNED"),
    "specs": ("test_fluid_digest_pins", "SPECS_PINNED"),
    "faults": ("test_faults", "PINNED"),
}

#: JSON family -> (its file, the depth of one case in it)
FILES = {
    "golden": ("experiment_golden.json", 1),
    "cli": ("cli_pins.json", 2),
    "fig3": ("fig3_reducer_pins.json", 1),
    "keys": ("key_corpus.json", 2),
}

#: the work counters a headline carries, whichever the engine reports
COUNTERS = ("sim.events", "net.wire_losses", "fluid.iterations")


@functools.cache
def capture_module(name: str):
    """``tests/data/<name>.py``, a generator of JSON pins."""
    spec = importlib.util.spec_from_file_location(name, DATA / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def stored(family: str) -> Any:
    """What a family pins: its slice of ``pins.json``, or its file."""
    if family in FILES:
        return json.loads((DATA / FILES[family][0]).read_text())
    return json.loads(STORE.read_text())[family]


def record(output) -> dict:
    """The pinned form of one output: a collector's digest and headline,
    or a flow sequence's digest, count and bytes."""
    if not isinstance(output, MetricsCollector):
        return {"digest": digest([spec.to_dict() for spec in output]),
                "flows": len(output),
                "bytes": sum(spec.size_bytes for spec in output)}
    summary = SummaryStats.from_collector(output)
    return {
        "digest": digest(output),
        "flows": summary.n_flows,
        "completed": summary.n_completed,
        "terminated": summary.n_terminated,
        "unfinished": output.unfinished_count(),
        "mean_fct": summary.mean_fct,
        "p99_fct": (output.fct_percentile(99) if summary.n_completed
                    else None),
        "app_throughput": summary.application_throughput,
        **{name: output.stats[name] for name in COUNTERS
           if name in output.stats},
    }


class _Absent:
    def __repr__(self) -> str:
        return "(absent)"


_ABSENT = _Absent()


def _short(value) -> str:
    if isinstance(value, str) and len(value) == 64:
        return value[:12]  # a digest or a key
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def delta(old: dict, new: dict) -> str:
    """``name old -> new`` for each statistic two records differ in."""
    moved = [f"{name} {_short(old.get(name, _ABSENT))} -> "
             f"{_short(new.get(name, _ABSENT))}"
             for name in dict.fromkeys(["digest", *new, *old])
             if old.get(name, _ABSENT) != new.get(name, _ABSENT)]
    if len(moved) == 1 and old.get("digest") != new.get("digest"):
        moved.append("no headline statistic moved")
    return ", ".join(moved)


def moved(family: str, case: str, outputs: list) -> list[str]:
    """One line per output of ``case`` whose record is not the pinned
    one, naming the case and each statistic that moved."""
    pinned = stored(family)[case]
    lines = []
    for i, output in enumerate(outputs):
        got = record(output)
        if got != pinned:
            run = f" (run {i + 1} of {len(outputs)})" if len(outputs) > 1 \
                else ""
            lines.append(f"{family} {case}{run}: {delta(pinned, got)}")
    return lines


def assert_pinned(family: str, case: str, outputs: list) -> None:
    assert outputs
    lines = moved(family, case, outputs)
    assert not lines, "\n".join([*lines, HINT])


def first_difference(old, new, path: str = "") -> str | None:
    """``path: old -> new`` at the first place two JSON values differ
    (a mapping's key order included), or ``None``; strings of several
    lines are compared line by line."""
    if isinstance(old, dict) and isinstance(new, dict):
        found = _first((f"{path}[{key!r}]", old.get(key, _ABSENT),
                        new.get(key, _ABSENT))
                       for key in dict.fromkeys([*old, *new]))
        if found is None and list(old) != list(new):
            found = f"{path}: key order {list(old)} -> {list(new)}"
        return found
    if isinstance(old, list) and isinstance(new, list):
        return _first((f"{path}[{i}]", a, b) for i, (a, b) in
                      enumerate(zip_longest(old, new, fillvalue=_ABSENT)))
    if type(old) is type(new) and old == new:
        return None
    if isinstance(old, str) and isinstance(new, str) and "\n" in old + new:
        return first_difference(old.splitlines(), new.splitlines(),
                                f"{path} line")
    return f"{path}: {_short(old)} -> {_short(new)}"


def _first(triples) -> str | None:
    return next(filter(None, (first_difference(old, new, path)
                              for path, old, new in triples)), None)


def assert_same(family: str, got, *keys) -> None:
    """``got`` is what ``family`` pins at ``keys``, or the first
    differing JSON path is the failure."""
    pinned = stored(family)
    for key in keys:
        pinned = pinned[key]
    where = family + "".join(f"[{key!r}]" for key in keys)
    found = first_difference(pinned, json.loads(json.dumps(got)), where)
    assert found is None, f"{found}\n{HINT}"


# -- capture ------------------------------------------------------------------------


def cases(family: str) -> dict:
    """A digest family's table: case -> run() -> its outputs."""
    module, table = DIGESTS[family]
    return getattr(importlib.import_module(module), table)


def _pin(family: str, case: str, run) -> dict:
    records = [record(output) for output in run()]
    if any(r != records[0] for r in records):
        raise SystemExit(f"{family} {case}: its runs disagree: "
                         + delta(records[0], records[-1]))
    return records[0]


def render(family: str) -> str:
    """The text of a family's store, generated from the current code (a
    digest family's: ``pins.json`` with that family rewritten)."""
    golden = capture_module("capture_golden")
    if family in DIGESTS:
        store = json.loads(STORE.read_text()) if STORE.exists() else {}
        store[family] = {case: _pin(family, case, run)
                         for case, run in cases(family).items()}
        return json.dumps(store, indent=1, sort_keys=True) + "\n"
    if family == "keys":
        return capture_module("capture_keys").render()
    if family == "cli":
        return json.dumps(golden.cli_pins(), indent=2) + "\n"
    if family == "fig3":
        return json.dumps({name: golden.fig3_output(name)
                           for name in golden.FIG3_PANELS}, indent=1) + "\n"
    return json.dumps({name: golden.golden_output(name)
                       for name in golden.GOLDEN_CALLS},
                      indent=1, sort_keys=True) + "\n"


@functools.cache
def generated(family: str) -> str:
    """:func:`render` once per process, for the tests that read a store
    as the capture script would write it now."""
    return render(family)


def _cases_at(value, depth: int, path: str = ""):
    """``(path, value)`` of each case ``depth`` levels into a store."""
    if depth == 0 or not isinstance(value, (dict, list)):
        yield path, value
        return
    for key in value if isinstance(value, dict) else range(len(value)):
        yield from _cases_at(value[key], depth - 1, f"{path}[{key!r}]")


def capture(families) -> list[str]:
    """Rewrite the stores of ``families`` from the current code; return
    a table row per case that moved, naming each moved statistic or the
    first differing JSON path."""
    rows = []
    for family in families:
        name, depth = FILES.get(family, (STORE.name, 2))
        path = DATA / name
        text = render(family)
        old = dict(_cases_at(json.loads(path.read_text()), depth)
                   if path.exists() else ())
        new = dict(_cases_at(json.loads(text), depth))
        for where in dict.fromkeys([*new, *old]):
            label = path.stem + where
            if family in FILES:
                line = first_difference(old.get(where, _ABSENT),
                                        new.get(where, _ABSENT), label)
            else:
                a, b = old.get(where, {}), new.get(where, {})
                line = a != b and f"{label}: {delta(a, b)}"
            if line:
                rows.append("| " + line.replace(": ", " | ", 1) + " |")
        path.write_text(text)
    return rows
