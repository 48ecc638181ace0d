"""Persistent scenario-result cache keyed by scenario content hash.

One JSON file per scenario under the store root, named ``<key>.json``.
Each file holds the canonical spec (for provenance / ``repro ls``), the
one-line summary, and the full serialized
:class:`~repro.metrics.collector.MetricsCollector`, so any paper metric
can be recomputed from a cache hit without re-simulating.

Campaign telemetry rides alongside: every scenario outcome (fresh,
cached, or failed) appends one line to ``campaign_log.jsonl`` in the
same directory — wall time, attempt count, cache hit/miss, worker pid —
which ``repro report`` summarizes. The log's ``.jsonl`` suffix keeps it
invisible to the ``*.json`` entry glob.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.campaign.spec import ScenarioSpec
from repro.errors import ReproError
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import SummaryStats

STORE_VERSION = 1


@dataclass(frozen=True)
class StoreEntry:
    """Metadata for one cached scenario (``repro ls`` row)."""

    key: str
    spec: dict[str, Any]
    summary: dict[str, Any]
    created_at: float
    elapsed: float
    stats: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        spec = ScenarioSpec.from_dict(self.spec)
        return spec.describe()


class ResultStore:
    """Filesystem-backed result cache plus its campaign log.

    A cache hit costs one ``open`` of ``<root>/<key>.json``; a missing,
    unreadable, truncated or foreign entry reads as a miss. Outcome rows
    go to the log one at a time (:meth:`log_outcome`) or as one batch in
    one append (:meth:`log_outcomes`).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # _load's entry-path prefix: a read builds no Path object
        self._prefix = os.path.join(self.root, "")

    # -- paths --------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    @staticmethod
    def _key_of(spec_or_key: ScenarioSpec | str) -> str:
        if isinstance(spec_or_key, ScenarioSpec):
            return spec_or_key.key
        return spec_or_key

    # -- cache protocol -----------------------------------------------------------

    def __contains__(self, spec_or_key: ScenarioSpec | str) -> bool:
        return self.path_for(self._key_of(spec_or_key)).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def get(self, spec_or_key: ScenarioSpec | str
            ) -> MetricsCollector | None:
        """Restored collector for a spec, or None on miss / corrupt file."""
        payload = self._load(self._key_of(spec_or_key))
        if payload is None:
            return None
        try:
            return MetricsCollector.from_dict(payload["collector"])
        except (KeyError, TypeError, ValueError, ReproError):
            # truncated/drifted payloads must degrade to a cache miss,
            # not abort the campaign
            return None

    def put(self, spec: ScenarioSpec, collector: MetricsCollector,
            elapsed: float = 0.0) -> Path:
        """Persist one result atomically (write temp file, then rename)."""
        path = self.path_for(spec.key)
        payload = {
            "version": STORE_VERSION,
            "key": spec.key,
            "spec": spec.canonical(),
            "summary": SummaryStats.from_collector(collector).to_dict(),
            "collector": collector.to_dict(),
            "created_at": time.time(),
            "elapsed": elapsed,
        }
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def discard(self, spec_or_key: ScenarioSpec | str) -> bool:
        path = self.path_for(self._key_of(spec_or_key))
        if path.exists():
            path.unlink()
            return True
        return False

    def clear(self) -> int:
        n = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            n += 1
        return n

    # -- campaign log -------------------------------------------------------------

    LOG_NAME = "campaign_log.jsonl"

    @property
    def log_path(self) -> Path:
        return self.root / self.LOG_NAME

    def log_outcome(self, row: dict[str, Any]) -> None:
        """Append one scenario-outcome row to the campaign log."""
        self.log_outcomes((row,))

    def log_outcomes(self, rows: Sequence[dict[str, Any]]) -> None:
        """Append scenario-outcome rows to the campaign log, in order,
        through one ``open`` (a runner logs a batch of cache hits so).

        Append-only JSONL: cheap, crash-tolerant (a torn final line is
        skipped on read), and safe for the ``*.json`` entry glob.
        """
        if not rows:
            return
        with self.log_path.open("a", encoding="utf-8") as fh:
            fh.write("".join(json.dumps(row) + "\n" for row in rows))

    def read_log(self) -> list[dict[str, Any]]:
        """All campaign-log rows, oldest first (corrupt lines skipped)."""
        path = self.log_path
        if not path.exists():
            return []
        rows: list[dict[str, Any]] = []
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except ValueError:
                    continue
                if isinstance(row, dict):
                    rows.append(row)
        return rows

    # -- inspection ---------------------------------------------------------------

    def entries(self) -> list[StoreEntry]:
        """All cached entries, oldest first."""
        out: list[StoreEntry] = []
        for path in self.root.glob("*.json"):
            payload = self._load(path.stem)
            if payload is None:
                continue
            collector = payload.get("collector")
            stats = (
                collector.get("stats", {}) if isinstance(collector, dict)
                else {}
            )
            out.append(StoreEntry(
                key=payload["key"],
                spec=payload["spec"],
                summary=payload.get("summary", {}),
                created_at=payload.get("created_at", 0.0),
                elapsed=payload.get("elapsed", 0.0),
                stats=stats,
            ))
        return sorted(out, key=lambda e: e.created_at)

    def _load(self, key: str) -> dict[str, Any] | None:
        try:
            with open(self._prefix + key + ".json") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            # FileNotFoundError is the plain miss; any other OSError (a
            # directory, permissions) or ValueError (JSONDecodeError,
            # UnicodeDecodeError) is an unreadable entry, also a miss
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != STORE_VERSION:
            return None
        if payload.get("key") != key:
            return None
        return payload
