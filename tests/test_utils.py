"""Tests for shared utilities: EWMA, RNG plumbing, stats."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.ewma import Ewma, RttEstimator
from repro.utils.rng import spawn_rng
from repro.utils.stats import cdf_points, fraction_at_most, mean, percentile


class TestEwma:
    def test_first_sample_is_value(self):
        e = Ewma(alpha=0.5)
        assert e.update(10.0) == 10.0

    def test_decay(self):
        e = Ewma(alpha=0.5)
        e.update(10.0)
        assert e.update(20.0) == pytest.approx(15.0)

    def test_default_value(self):
        e = Ewma(default=42.0)
        assert e.value_or(0.0) == 42.0

    def test_default_replaced_by_first_sample(self):
        e = Ewma(alpha=0.5, default=42.0)
        assert e.update(10.0) == 10.0

    def test_default_is_fallback_not_prior(self):
        """Pinned contract: the configured default (how d3/rcp senders
        and the PDQ switch seed rtt_avg) carries zero weight once a real
        sample exists — only real samples shape the average."""
        seeded = Ewma(alpha=0.5, default=1_000.0)
        plain = Ewma(alpha=0.5)
        for sample in (10.0, 20.0, 14.0):
            assert seeded.update(sample) == plain.update(sample)

    def test_samples_counts_only_real_observations(self):
        e = Ewma(default=42.0)
        assert e.samples == 0  # the fallback is not an observation
        e.update(10.0)
        assert e.samples == 1

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError):
            Ewma(alpha=1.5)

    @given(st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1))
    def test_property_stays_within_sample_range(self, samples):
        e = Ewma(alpha=0.3)
        for s in samples:
            e.update(s)
        assert min(samples) - 1e-9 <= e.value_or(0.0) <= max(samples) + 1e-9


class TestRttEstimator:
    def test_rto_respects_min(self):
        est = RttEstimator(rto_min=0.01)
        est.update(1e-4)
        assert est.rto() == 0.01

    def test_rto_without_samples_is_max(self):
        est = RttEstimator(rto_min=0.001, rto_max=2.0)
        assert est.rto() == 2.0

    def test_srtt_converges(self):
        est = RttEstimator(rto_min=1e-6)
        for _ in range(100):
            est.update(0.002)
        assert est.srtt == pytest.approx(0.002, rel=1e-3)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator().update(-1.0)


class TestSpawnRng:
    def test_same_seed_same_stream(self):
        a, b = spawn_rng(7), spawn_rng(7)
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_streams_are_independent(self):
        a = spawn_rng(7, "one")
        b = spawn_rng(7, "two")
        assert [a.integers(1 << 30) for _ in range(4)] != [
            b.integers(1 << 30) for _ in range(4)
        ]

    def test_generator_passthrough(self):
        gen = spawn_rng(3)
        assert spawn_rng(gen) is gen


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_percentile_bounds(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_percentile_invalid_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_cdf_points(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_fraction_at_most(self):
        assert fraction_at_most([1, 2, 3, 4], 2) == 0.5
        assert fraction_at_most([], 1) == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    def test_property_percentile_within_range(self, values):
        p = percentile(values, 37.5)
        assert min(values) <= p <= max(values)
