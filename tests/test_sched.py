"""Tests for the reference schedulers and optimal bounds."""

from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.flowsim.certify import pdq_greedy
from repro.sched.optimal import (
    max_ontime_subset,
    optimal_application_throughput,
    sjf_completion_times,
    srpt_mean_fct,
)
from repro.units import GBPS


class _Flow(NamedTuple):
    fid: int
    expected_tx: float
    path: list
    max_rate: float


def centralized_rates(flows, capacities):
    """The §3 greedy in its textbook order, ``(expected_tx, fid)``, with
    floor 0, over ``(fid, expected_tx, path, max_rate)`` tuples."""
    return {grant.flow.fid: grant.rate for grant in pdq_greedy(
        [_Flow(*flow) for flow in flows], capacities,
        key=lambda f: (f.expected_tx, f.fid))}


class TestCentralized:
    def test_most_critical_gets_path_minimum(self):
        caps = {("a", "b"): 1 * GBPS, ("b", "c"): 0.4 * GBPS}
        flows = [(0, 1.0, [("a", "b"), ("b", "c")], 1 * GBPS)]
        rates = centralized_rates(flows, caps)
        assert rates[0] == pytest.approx(0.4 * GBPS)

    def test_residual_goes_to_next_flow(self):
        caps = {("a", "b"): 1 * GBPS}
        flows = [
            (0, 1.0, [("a", "b")], 0.6 * GBPS),
            (1, 2.0, [("a", "b")], 1 * GBPS),
        ]
        rates = centralized_rates(flows, caps)
        assert rates[0] == pytest.approx(0.6 * GBPS)
        assert rates[1] == pytest.approx(0.4 * GBPS)

    def test_order_by_expected_time_then_fid(self):
        caps = {("a", "b"): 1 * GBPS}
        flows = [
            (5, 1.0, [("a", "b")], 1 * GBPS),
            (2, 1.0, [("a", "b")], 1 * GBPS),
        ]
        rates = centralized_rates(flows, caps)
        assert rates[2] == pytest.approx(1 * GBPS)
        assert rates[5] == 0.0

    @given(st.lists(st.tuples(st.floats(0.01, 10.0),
                              st.floats(1e8, 1e9)),
                    min_size=1, max_size=10))
    @settings(max_examples=50)
    def test_property_capacity_never_exceeded(self, specs):
        caps = {("a", "b"): 1 * GBPS}
        flows = [(i, t, [("a", "b")], m) for i, (t, m) in enumerate(specs)]
        rates = centralized_rates(flows, caps)
        assert sum(rates.values()) <= 1 * GBPS * (1 + 1e-9)


class TestMooreHodgson:
    def test_keeps_all_when_feasible(self):
        jobs = [(1.0, 2.0), (1.0, 3.0)]
        assert max_ontime_subset(jobs) == [0, 1]

    def test_drops_longest_when_infeasible(self):
        jobs = [(5.0, 5.0), (1.0, 5.5), (1.0, 6.0)]
        kept = max_ontime_subset(jobs)
        assert 0 not in kept
        assert kept == [1, 2]

    def test_paper_example_all_feasible(self):
        # Fig 1: sizes 1,2,3 with deadlines 1,4,6 all fit under EDF
        assert max_ontime_subset([(1, 1), (2, 4), (3, 6)]) == [0, 1, 2]

    def test_rejects_negative_processing(self):
        with pytest.raises(ValueError):
            max_ontime_subset([(-1.0, 1.0)])

    def _brute_force(self, jobs):
        best = 0
        n = len(jobs)
        for mask in range(1 << n):
            subset = [jobs[i] for i in range(n) if mask >> i & 1]
            subset.sort(key=lambda j: j[1])
            elapsed, ok = 0.0, True
            for p, d in subset:
                elapsed += p
                if elapsed > d + 1e-12:
                    ok = False
                    break
            if ok:
                best = max(best, len(subset))
        return best

    @given(st.lists(st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 20.0)),
                    min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_brute_force(self, jobs):
        assert len(max_ontime_subset(jobs)) == self._brute_force(jobs)


class TestOptimalBounds:
    def test_application_throughput(self):
        # 2 flows, only one fits before its deadline
        sizes = [1_000_000, 1_000_000]
        deadlines = [0.009, 0.009]
        tput = optimal_application_throughput(sizes, deadlines, 1 * GBPS)
        assert tput == 0.5

    def test_sjf_completion_times(self):
        times = sjf_completion_times([2000, 1000], 8000.0)
        # 1000B first: done at 1s; then 2000B: done at 3s
        assert times == [3.0, 1.0]

    def test_srpt_simultaneous_equals_sjf_mean(self):
        sizes = [3000, 1000, 2000]
        flows = [(0.0, s) for s in sizes]
        srpt = srpt_mean_fct(flows, 8000.0)
        sjf = sum(sjf_completion_times(sizes, 8000.0)) / 3
        assert srpt == pytest.approx(sjf)

    def test_srpt_preempts_for_short_arrival(self):
        # long job at t=0 (10s of work), short job (1s) arrives at t=1
        flows = [(0.0, 10_000), (1.0, 1_000)]
        mean_fct = srpt_mean_fct(flows, 8000.0)
        # short: finishes at t=2 (fct 1); long: 10s work + 1s preempted = 11
        assert mean_fct == pytest.approx((11.0 + 1.0) / 2)

    @given(st.lists(st.tuples(st.floats(0, 10), st.integers(100, 100_000)),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_property_srpt_not_worse_than_fifo(self, flows):
        rate = 1e6
        srpt = srpt_mean_fct(flows, rate)
        # FIFO serial schedule in arrival order
        now, total = 0.0, 0.0
        for arrival, size in sorted(flows):
            now = max(now, arrival) + size * 8 / rate
            total += now - arrival
        fifo = total / len(flows)
        assert srpt <= fifo + 1e-9

