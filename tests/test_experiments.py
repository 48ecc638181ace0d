"""Smoke tests for the per-figure experiment harness (tiny scales)."""

import pytest

from repro.campaign.registry import build_topology, build_workload
from repro.experiments import (
    binary_search_max,
    make_stack,
    run_flow_level,
    run_panel,
)
from repro.experiments.fig1 import SLACK, fig1_panel
from repro.experiments.fig3 import fig3a_panel, fig3d_panel
from repro.experiments.fig4 import pattern_flows
from repro.experiments.fig5 import vl2_workload
from repro.experiments.fig8 import fct_vs_size_panel, permutation_workload
from repro.experiments.fig10 import fig10_panel
from repro.experiments.reducers import normalize
from repro.experiments.tables import format_table
from repro.errors import ExperimentError, WorkloadError
from repro.units import KBYTE, MBYTE, MSEC


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


#: Fig 1's fluid closed forms, in units of payload: fair sharing (RCP)
#: and SJF/EDF (PDQ)
CLOSED_FORM = {"RCP": [3.0, 5.0, 6.0], "PDQ(Full)": [1.0, 3.0, 6.0]}
#: the fluid engine charges every 1 444-1 456 B payload packet 44-56 B
#: of headers (3.0-3.9 %; RCP 44 B, PDQ 56 B) ...
HEADERS = 0.039
HEADER_GAP = HEADERS - 0.030
#: ... and starts data 2 RTTs after arrival: 2 x 102 us on the
#: send -> sw0 -> recv path, 0.0255 of an 8 ms unit
START = 0.026


class TestFig1:
    """The §2.1 example on the fluid engine's RCP, PDQ and D3 models."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_panel(fig1_panel())

    def test_deadline_misses(self, result):
        misses = result["deadline_misses"]
        assert misses["D3"] == {"ABC": 0, "ACB": 1, "BAC": 1, "BCA": 1,
                                "CAB": 2, "CBA": 1}
        assert set(misses["PDQ(Full)"].values()) == {0}
        assert set(misses["RCP"].values()) == {2}

    def test_d3_meets_every_deadline_in_one_order_only(self, result):
        assert len(result["d3_failing_orders"]) == 5
        assert "ABC" not in result["d3_failing_orders"]

    def test_pdq_and_rcp_do_not_depend_on_the_order(self, result):
        for protocol in ("RCP", "PDQ(Full)"):
            per_order = result["completions"][protocol]
            assert len(per_order) == 6
            assert len({tuple(c) for c in per_order.values()}) == 1

    def test_completions_match_closed_form(self, result):
        for protocol, closed in CLOSED_FORM.items():
            for completions in result["completions"][protocol].values():
                for got, want in zip(completions, closed, strict=True):
                    assert want < got <= want * (1 + HEADERS) + START

    def test_every_flow_no_later_under_pdq(self, result):
        """§2.1: no flow finishes later under SJF than under fair
        sharing. C, the last flow, finishes when the bottleneck drains
        under both, so they differ there only by PDQ's larger headers."""
        pdq = result["completions"]["PDQ(Full)"]["ABC"]
        rcp = result["completions"]["RCP"]["ABC"]
        assert pdq[0] < rcp[0] and pdq[1] < rcp[1]
        assert abs(pdq[2] - rcp[2]) <= CLOSED_FORM["RCP"][2] * HEADER_GAP


class TestFig1Workload:
    """The ``fig1.motivation`` workload kind and the panel over it."""

    @staticmethod
    def flows(order):
        topology = build_topology("single_bottleneck", {"n_senders": 3})
        return build_workload("fig1.motivation", topology, 1,
                              {"order": order})

    def test_panel_is_eighteen_flow_cells(self):
        cells = fig1_panel().cells()
        assert len(cells) == 18
        assert all(spec.engine == "flow" for _, spec in cells)
        assert {(c["protocol"], c["workload.order"]) for c, _ in cells} == {
            (p, o) for p in ("RCP", "PDQ(Full)", "D3")
            for o in ("ABC", "ACB", "BAC", "BCA", "CAB", "CBA")}

    def test_fid_is_rank_in_order(self):
        flows = self.flows("CAB")
        assert [f.fid for f in flows] == [0, 1, 2]
        assert [f.src for f in flows] == ["send2", "send0", "send1"]
        assert [f.size_bytes for f in flows] == [3 * MBYTE, MBYTE, 2 * MBYTE]
        assert all(f.dst == "recv" and f.arrival == 0.0 for f in flows)

    def test_deadlines_are_slack_times_units(self):
        by_src = {f.src: f for f in self.flows("ABC")}
        for i, units in enumerate((1, 4, 6)):
            assert by_src[f"send{i}"].deadline == pytest.approx(
                units * 8 * MSEC * SLACK)

    @pytest.mark.parametrize("order", ["AB", "ABCA", "AAB", "ABD",
                                       ["A", "B", "C"]])
    def test_order_must_be_a_permutation(self, order):
        with pytest.raises(WorkloadError, match="permutation"):
            self.flows(order)


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
        def hosts(family):
            spec = fct_vs_size_panel(family, sizes=(16,)).base.topology
            return len(build_topology(spec.kind, spec.params).hosts)

        assert hosts("fattree") == 16
        assert hosts("bcube") == 16
        assert hosts("jellyfish") >= 16

    def test_unknown_family(self):
        with pytest.raises(ExperimentError):
            fct_vs_size_panel("torus")

    def test_permutation_workload_size(self):
        topo = build_topology("fattree", {"n_servers": 16})
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
