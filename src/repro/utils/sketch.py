"""Streaming quantile sketch (KLL/MRL-style compactors).

Open-system runs (``repro.workload.open_system``) resolve millions of
flows; keeping every FCT just to read p99 off the sorted list is exactly
the O(n)-memory habit the streaming collector exists to break. This
sketch keeps a ladder of fixed-capacity buffers: level ``i`` holds
values each standing in for ``2**i`` original samples. When a level
fills it is sorted and every other element is promoted one level up, so
total space is ``k * log2(n / k)`` — a few kilobytes at a million
samples — while rank error stays a small fraction of ``n``.

Determinism matters more here than the last half-percent of accuracy:
the same input sequence must serialize to the same bytes on every run
(result-store payloads are content-hashed). Instead of the randomized
compaction offset of the published KLL sketch, compactions alternate a
parity bit, which cancels adjacent compaction biases the same way in
every run.

Queries use the definition of :func:`repro.utils.stats.percentile`:
linear interpolation at rank ``q * (W - 1)`` of the multiset in which
each retained value appears ``weight`` times (``W`` the total weight).
A streaming run's ``p99_fct`` therefore means what a closed run's does,
and is exactly equal to it until the first compaction (fewer than ``k``
samples).
"""

from __future__ import annotations

from repro.errors import ExperimentError


class QuantileSketch:
    """Fixed-space quantile estimator over a stream of floats.

    ``k`` is the per-level buffer capacity: space and accuracy both grow
    with it (rank error is roughly ``1/k`` in practice). The exact
    minimum and maximum are tracked separately, so ``quantile(0.0)`` and
    ``quantile(1.0)`` are always exact.
    """

    __slots__ = ("k", "n", "levels", "min_value", "max_value", "_flip")

    def __init__(self, k: int = 200):
        if k < 8:
            raise ExperimentError(f"sketch capacity k must be >= 8, got {k}")
        self.k = k
        self.n = 0
        self.levels: list[list[float]] = [[]]
        self.min_value: float | None = None
        self.max_value: float | None = None
        self._flip = 0

    # -- ingest -----------------------------------------------------------------

    def add(self, value: float) -> None:
        value = float(value)
        self.n += 1
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        level0 = self.levels[0]
        level0.append(value)
        if len(level0) >= self.k:
            self._compact(0)

    def _compact(self, index: int) -> None:
        """Promote half of a full level: sort, keep alternating elements
        (parity flips per compaction so discard bias cancels), and push
        the survivors — each now worth twice the weight — one level up."""
        level = self.levels[index]
        level.sort()
        if index + 1 == len(self.levels):
            self.levels.append([])
        self._flip ^= 1
        self.levels[index + 1].extend(level[self._flip :: 2])
        level.clear()
        if len(self.levels[index + 1]) >= self.k:
            self._compact(index + 1)

    # -- queries -----------------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1] (0 -> exact min, 1 -> exact
        max); raises on an empty sketch.

        The definition is :func:`repro.utils.stats.percentile`'s linear
        interpolation, applied to the multiset in which each retained
        value appears ``weight`` times: with total weight ``W`` the rank
        is ``q * (W - 1)``, and the answer interpolates between the
        values at the ranks either side of it. Below ``k`` samples every
        weight is 1, so the answer is exactly ``percentile(values,
        100 * q)``."""
        if not 0.0 <= q <= 1.0:
            raise ExperimentError(f"quantile must be in [0, 1], got {q}")
        if self.n == 0 or self.min_value is None or self.max_value is None:
            raise ExperimentError("quantile of an empty sketch")
        if q == 0.0:
            return self.min_value
        if q == 1.0:
            return self.max_value
        weighted = [
            (value, 1 << level_index)
            for level_index, level in enumerate(self.levels)
            for value in level
        ]
        if not weighted:  # everything compacted away (cannot happen with k>=8)
            return self.max_value
        weighted.sort()
        total = sum(w for _, w in weighted)
        rank = q * (total - 1)
        lo = int(rank)
        frac = rank - lo
        # the values at expanded positions lo and lo + 1 (0-based); the
        # total weight exceeds lo, so the loop always breaks
        cumulative = 0
        for index, (below, weight) in enumerate(weighted):
            cumulative += weight
            if cumulative > lo:
                break
        above = below
        if cumulative == lo + 1 and index + 1 < len(weighted):
            above = weighted[index + 1][0]
        value = below * (1.0 - frac) + above * frac
        return min(max(value, self.min_value), self.max_value)

    def __len__(self) -> int:
        return self.n

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe), inverse of :meth:`from_dict`.
        Trailing empty levels are dropped so equal sketches serialize to
        equal bytes regardless of compaction history."""
        levels = list(self.levels)
        while levels and not levels[-1]:
            levels = levels[:-1]
        return {
            "k": self.k,
            "n": self.n,
            "min": self.min_value,
            "max": self.max_value,
            "flip": self._flip,
            "levels": [list(level) for level in levels],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        sketch = cls(k=data["k"])
        sketch.n = data["n"]
        sketch.min_value = data["min"]
        sketch.max_value = data["max"]
        sketch._flip = data.get("flip", 0)
        sketch.levels = [list(level) for level in data["levels"]] or [[]]
        return sketch
