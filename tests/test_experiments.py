"""Smoke tests for the per-figure experiment harness (tiny scales)."""

import pytest

from repro.experiments import (
    binary_search_max,
    make_stack,
    run_flow_level,
    run_panel,
)
from repro.experiments.fig1 import fig1_panel
from repro.experiments.fig3 import fig3a_panel, fig3d_panel
from repro.experiments.fig4 import pattern_flows
from repro.experiments.fig5 import vl2_workload
from repro.experiments.fig8 import permutation_workload, topology_for
from repro.experiments.fig10 import fig10_panel
from repro.experiments.reducers import normalize
from repro.experiments.tables import format_table
from repro.errors import ExperimentError
from repro.units import KBYTE, MSEC


class TestScenarioHelpers:
    def test_make_stack_names(self):
        for name in ["PDQ(Full)", "PDQ(ES+ET)", "PDQ(ES)", "PDQ(Basic)",
                     "D3", "RCP", "TCP"]:
            stack = make_stack(name)
            assert stack.name == name

    def test_make_stack_unknown(self):
        with pytest.raises(ExperimentError):
            make_stack("QUIC")

    def test_normalize(self):
        out = normalize({"a": 2.0, "b": 4.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}

    def test_normalize_requires_reference(self):
        with pytest.raises(ExperimentError):
            normalize({"a": 2.0}, "missing")


class TestBinarySearch:
    def test_finds_threshold(self):
        assert binary_search_max(lambda n: n <= 23, lo=1, hi=64) == 23

    def test_zero_when_lo_fails(self):
        assert binary_search_max(lambda n: False, lo=1, hi=8) == 0

    def test_grows_hi(self):
        assert binary_search_max(lambda n: n <= 100, lo=1, hi=4) == 100

    def test_bad_range(self):
        with pytest.raises(ExperimentError):
            binary_search_max(lambda n: True, lo=0, hi=4)


class TestFig1:
    def test_matches_paper_exactly(self):
        result = run_panel(fig1_panel())
        assert result["fair_sharing_completions"] == [3.0, 5.0, 6.0]
        assert result["sjf_completions"] == [1.0, 3.0, 6.0]
        assert result["fair_sharing_mean"] == pytest.approx(4.67, abs=0.01)
        assert result["sjf_mean"] == pytest.approx(3.33, abs=0.01)
        assert result["edf_deadline_misses"] == 0
        assert result["d3_failing_orders"] == 5


class TestFig3Reduced:
    def test_fig3a_ordering(self):
        """At a contended load, PDQ beats the deadline-agnostic schemes."""
        result = run_panel(fig3a_panel(
            flow_counts=(8,), protocols=("PDQ(Full)", "RCP"), seeds=(1,)))
        assert result["PDQ(Full)"][8] >= result["RCP"][8]
        assert result["Optimal"][8] >= result["PDQ(Full)"][8] - 0.15

    def test_fig3d_pdq_closer_to_optimal_than_tcp(self):
        result = run_panel(fig3d_panel(
            flow_counts=(5,), protocols=("PDQ(Full)", "TCP"), seeds=(1,)))
        assert result["PDQ(Full)"][5] < result["TCP"][5]
        assert result["PDQ(Full)"][5] >= 1.0  # optimal is a lower bound


class TestFig4Workloads:
    @pytest.mark.parametrize("pattern", [
        "Aggregation", "Stride(1)", "Stride(N/2)", "Staggered(0.7)",
        "Staggered(0.3)", "RandomPermutation",
    ])
    def test_pattern_flows_valid(self, pattern):
        flows = pattern_flows(pattern, 10, seed=1,
                              mean_deadline=20 * MSEC)
        assert len(flows) == 10
        assert all(f.src != f.dst for f in flows)
        assert all(f.has_deadline for f in flows)
        assert len({f.fid for f in flows}) == 10

    def test_unknown_pattern(self):
        with pytest.raises(ExperimentError):
            pattern_flows("Mesh", 4, seed=1)


class TestFig5Workload:
    def test_vl2_workload_mixes_deadlines(self):
        flows = vl2_workload(rate_per_sec=3000, duration=0.05, seed=1)
        assert len(flows) > 50
        with_deadline = sum(1 for f in flows if f.has_deadline)
        assert 0 < with_deadline < len(flows)

    def test_arrivals_within_window(self):
        flows = vl2_workload(rate_per_sec=2000, duration=0.05, seed=2)
        assert all(0 <= f.arrival < 0.05 for f in flows)


class TestFig8Helpers:
    def test_topology_families(self):
        assert topology_for("fattree", 16).stats()["hosts"] == 16
        assert topology_for("bcube", 16).stats()["hosts"] == 16
        assert topology_for("jellyfish", 16).stats()["hosts"] >= 16

    def test_unknown_family(self):
        with pytest.raises(ExperimentError):
            topology_for("torus", 16)

    def test_permutation_workload_size(self):
        topo = topology_for("fattree", 16)
        flows = permutation_workload(topo, flows_per_server=2, seed=1)
        assert len(flows) == 32


class TestFig10Reduced:
    def test_perfect_beats_rcp(self):
        result = run_panel(fig10_panel(distributions=("uniform",),
                                       seeds=(1, 2)))
        row = result["uniform"]
        assert row["PDQ perfect"] < row["RCP"]

    def test_flow_level_pdq_runs_with_modes(self):
        from repro.topology import SingleBottleneck
        from repro.workload.patterns import aggregation_flows
        from repro.workload.sizes import uniform_sizes

        flows = aggregation_flows(
            [f"send{i}" for i in range(4)], "recv",
            uniform_sizes(4, 100 * KBYTE, rng=1), rng=1,
        )
        for mode in ("random", "estimate"):
            metrics = run_flow_level(SingleBottleneck(4), "PDQ(Full)",
                                     flows, criticality_mode=mode)
            assert len(metrics.completed_records()) == 4


class TestTables:
    def test_format_table(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2.0]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.500" in text
