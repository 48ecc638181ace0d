"""Tests for the mergeable quantile sketch (repro.utils.sketch)."""

import math

import pytest

from repro.errors import ExperimentError
from repro.utils.rng import spawn_rng
from repro.utils.sketch import QuantileSketch
from repro.utils.stats import percentile


def _exact(values, q):
    return percentile(list(values), q * 100.0)


class TestBasics:
    def test_empty_sketch_rejects_queries(self):
        sketch = QuantileSketch()
        with pytest.raises(ExperimentError):
            sketch.quantile(0.5)

    def test_single_value(self):
        sketch = QuantileSketch()
        sketch.add(3.5)
        assert sketch.quantile(0.0) == 3.5
        assert sketch.quantile(0.5) == 3.5
        assert sketch.quantile(1.0) == 3.5

    def test_extremes_are_exact(self):
        """q=0 and q=1 come from tracked min/max, not the compacted
        levels, so they survive any amount of compaction exactly."""
        sketch = QuantileSketch(k=8)
        values = [float(i) for i in range(10_000)]
        for v in values:
            sketch.add(v)
        assert sketch.quantile(0.0) == 0.0
        assert sketch.quantile(1.0) == 9_999.0

    def test_small_input_is_exact(self):
        """Below the compaction threshold nothing is dropped, and the
        sketch interpolates exactly as ``percentile`` does, so every
        query equals the exact percentile of the same values."""
        rng = spawn_rng(3, "test:sketch:small")
        inputs = [
            [5.0, 1.0, 9.0, 3.0, 7.0],
            [2.5, 2.5, 2.5, 1.0],
            [4.0, 8.0],
            rng.lognormal(mean=0.0, sigma=1.5, size=178).tolist(),
            rng.random(199).tolist(),
        ]
        for values in inputs:
            sketch = QuantileSketch(k=200)
            for v in values:
                sketch.add(v)
            assert len(sketch.levels) == 1  # nothing compacted
            for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
                assert sketch.quantile(q) == percentile(values, 100 * q)

    def test_rejects_bad_quantile(self):
        sketch = QuantileSketch()
        sketch.add(1.0)
        with pytest.raises(ExperimentError):
            sketch.quantile(-0.1)
        with pytest.raises(ExperimentError):
            sketch.quantile(1.5)


class TestAccuracy:
    """Rank error of a KLL-style sketch with k=200 stays well under 1%;
    we assert the *value* at p50/p95/p99 lands within the exact values
    at nearby ranks (rank-error tolerance, not value tolerance, since
    heavy-tailed values explode any relative-value bound)."""

    def _assert_close_in_rank(self, sketch, values, q, tol=0.015):
        got = sketch.quantile(q)
        lo = _exact(values, max(0.0, q - tol))
        hi = _exact(values, min(1.0, q + tol))
        assert lo <= got <= hi, (
            f"q={q}: {got} outside rank band [{lo}, {hi}]"
        )

    def test_lognormal(self):
        rng = spawn_rng(7, "test:sketch:lognormal")
        values = rng.lognormal(mean=0.0, sigma=2.0, size=50_000).tolist()
        sketch = QuantileSketch(k=200)
        for v in values:
            sketch.add(v)
        for q in (0.5, 0.95, 0.99):
            self._assert_close_in_rank(sketch, values, q)

    def test_pareto(self):
        rng = spawn_rng(8, "test:sketch:pareto")
        values = (1.0 + rng.pareto(1.1, size=50_000)).tolist()
        sketch = QuantileSketch(k=200)
        for v in values:
            sketch.add(v)
        for q in (0.5, 0.95, 0.99):
            self._assert_close_in_rank(sketch, values, q)


class TestSpace:
    def test_memory_is_logarithmic_in_n(self):
        """Total retained values grow ~k*log2(n/k), not n."""
        sketch = QuantileSketch(k=200)
        for i in range(200_000):
            sketch.add(float(i % 9973))
        retained = sum(len(level) for level in sketch.levels)
        bound = 2 * 200 * (math.log2(200_000 / 200) + 2)
        assert retained < bound


class TestSerialization:
    def test_round_trip(self):
        sketch = QuantileSketch(k=64)
        rng = spawn_rng(10, "test:sketch:serialize")
        for v in rng.exponential(1.0, size=5_000).tolist():
            sketch.add(v)
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone.n == sketch.n
        for q in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
            assert clone.quantile(q) == sketch.quantile(q)

    def test_to_dict_is_json_plain(self):
        import json

        sketch = QuantileSketch()
        sketch.add(1.25)
        payload = json.dumps(sketch.to_dict())
        assert "1.25" in payload
