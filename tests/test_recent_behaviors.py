"""Tests for behaviours added while calibrating against the paper's
dynamics: BCube address-based routing, source-routed paths, search
capping, elephant truncation, D3 allocation ordering, feedback floors."""

import math

import pytest

from repro.campaign import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.core.stack import PdqStack
from repro.errors import (CampaignError, FaultError, SimulationError,
                          TopologyError,
                          WorkloadError)
from repro.events import PeriodicTimer, Simulator
from repro.faults.spec import FaultEvent
from repro.flowsim import FlowLevelSimulation, PdqModel
from repro.net.link import Link
from repro.experiments.api import SearchSpec
from repro.experiments.fig4 import pattern_flows
from repro.experiments.search import binary_search_max
from repro.net.network import Network
from repro.topology import BCube, SingleBottleneck
from repro.transport.rcp import FEEDBACK_RTTS, floor_rate
from repro.units import GBPS, KBYTE, MBYTE
from repro.workload.flow import FlowSpec
from repro.workload.patterns import stride_flows
from repro.workload.vl2 import vl2_flow_sizes


class TestBCubeDisjointPaths:
    def test_full_hamming_distance_gives_k_plus_1_paths(self):
        topo = BCube(2, 3)
        paths = topo.disjoint_paths("h0", "h15")
        assert len(paths) == 4

    def test_paths_are_node_disjoint_except_endpoints(self):
        topo = BCube(2, 3)
        paths = topo.disjoint_paths("h0", "h15")
        interiors = [set(p[1:-1]) for p in paths]
        for i in range(len(interiors)):
            for j in range(i + 1, len(interiors)):
                assert not (interiors[i] & interiors[j])

    def test_paths_start_and_end_correctly(self):
        topo = BCube(2, 3)
        for path in topo.disjoint_paths("h3", "h12"):
            assert path[0] == "h3"
            assert path[-1] == "h12"

    def test_paths_follow_existing_links(self):
        topo = BCube(2, 3)
        for path in topo.disjoint_paths("h1", "h14"):
            for a, b in zip(path, path[1:], strict=False):
                assert topo.graph.has_edge(a, b), (a, b)

    def test_partial_hamming_distance(self):
        topo = BCube(2, 3)
        # h0 (0000) -> h1 (0001): one differing digit, one path
        assert len(topo.disjoint_paths("h0", "h1")) == 1

    def test_same_server_rejected(self):
        with pytest.raises(TopologyError):
            BCube(2, 3).disjoint_paths("h0", "h0")


class TestLinksForPath:
    def test_resolves_named_walk(self):
        net = Network(BCube(2, 2), PdqStack())
        names = BCube(2, 2).disjoint_paths("h0", "h7")[0]
        links = net.links_for_path(names)
        assert len(links) == len(names) - 1
        assert links[0].src.name == "h0"
        assert links[-1].dst.name == "h7"

    def test_rejects_trivial_path(self):
        net = Network(SingleBottleneck(1), PdqStack())
        with pytest.raises(TopologyError):
            net.links_for_path(["recv"])


class TestSearchCapping:
    def test_grow_false_caps_at_hi(self):
        assert binary_search_max(lambda n: True, lo=1, hi=8,
                                 grow=False) == 8

    def test_grow_false_still_searches_below_hi(self):
        assert binary_search_max(lambda n: n <= 5, lo=1, hi=8,
                                 grow=False) == 5


class TestVl2Cap:
    def test_cap_truncates_elephants(self):
        sizes = vl2_flow_sizes(5000, rng=1, cap_bytes=1 * MBYTE)
        assert max(sizes) <= 1 * MBYTE

    def test_cap_preserves_mice(self):
        capped = vl2_flow_sizes(2000, rng=2, cap_bytes=1 * MBYTE)
        free = vl2_flow_sizes(2000, rng=2)
        assert sum(1 for s in capped if s < 40 * KBYTE) == sum(
            1 for s in free if s < 40 * KBYTE
        )


class TestFeedbackFloor:
    def test_floor_bounds_feedback_latency(self):
        rtt = 150e-6
        rate = floor_rate(rtt)
        gap = 1500 * 8 / rate  # pacing gap at the floor
        assert gap <= FEEDBACK_RTTS * rtt * 1.001

    def test_floor_scales_inversely_with_rtt(self):
        assert floor_rate(150e-6) > floor_rate(300e-6)


class TestD3AllocationTable:
    def _state(self):
        from repro.transport.d3 import D3LinkState, D3Stack

        net = Network(SingleBottleneck(4), D3Stack())
        link = net.link_between("sw0", "recv")
        return D3LinkState(net.node("sw0").protocol, link)

    def test_arrival_order_wins(self):
        state = self._state()
        # flow 1 arrives first wanting 0.9G; flow 2 arrives later wanting
        # 0.9G: only the first is satisfiable
        state.flows = {
            1: (0.0, 1.0, 0.9 * GBPS),
            2: (0.5, 1.0, 0.9 * GBPS),
        }
        state._allocate()
        assert state.grants[1] >= 0.9 * GBPS
        assert state.grants[2] < 0.3 * GBPS

    def test_fair_share_added_on_top(self):
        state = self._state()
        state.fair_share = 0.1 * GBPS
        state.flows = {1: (0.0, 1.0, 0.0), 2: (0.1, 1.0, 0.0)}
        state._allocate()
        assert state.grants[1] == pytest.approx(0.1 * GBPS)
        assert state.grants[2] == pytest.approx(0.1 * GBPS)

    def test_grants_never_below_floor(self):
        state = self._state()
        state.fair_share = 0.0
        state.flows = {i: (float(i), 1.0, 1 * GBPS) for i in range(5)}
        state._allocate()
        assert all(g > 0 for g in state.grants.values())


class TestMpdqSourceRouting:
    def test_subflows_use_disjoint_first_hops(self):
        from repro.core.multipath import MpdqStack
        from repro.workload.flow import FlowSpec

        net = Network(BCube(2, 3), MpdqStack(n_subflows=4))
        spec = FlowSpec(fid=0, src="h0", dst="h15", size_bytes=400 * KBYTE)
        record = net.metrics.register(spec)
        fwd = net.flow_path(0, "h0", "h15")
        rev = net.reverse_path(fwd)
        coordinator, _ = net.stack.make_endpoints(net, spec, record, fwd, rev)
        first_hops = {s.path[0].dst.name for s in coordinator.senders}
        assert len(first_hops) == 4  # one NIC per subflow


class TestStrideBeyondHostCount:
    """Stride patterns with more flows than hosts wrap the senders
    around (``repro run-fig 4 --jobs 0`` asks for 32 flows on the
    12-server tree and used to die with an IndexError)."""

    def test_senders_wrap_and_short_inputs_are_unchanged(self):
        hosts = [f"h{i}" for i in range(12)]
        flows = stride_flows(hosts, 1, [10 * KBYTE] * 32)
        assert [(f.src, f.dst) for f in flows] == [
            (hosts[x % 12], hosts[(x + 1) % 12]) for x in range(32)
        ]
        assert flows[:12] == stride_flows(hosts, 1, [10 * KBYTE] * 12)

    @pytest.mark.parametrize("pattern", ["Stride(1)", "Stride(N/2)"])
    def test_fig4_patterns_build_32_flows(self, pattern):
        flows = pattern_flows(pattern, 32, seed=1)
        assert [f.fid for f in flows] == list(range(32))
        stride = 1 if pattern == "Stride(1)" else 6
        for flow in flows:
            src, dst = int(flow.src[1:]), int(flow.dst[1:])
            assert dst == (src + stride) % 12


class TestNonFiniteInputs:
    """NaN fails every guard on a time, delay, period, rate or size, and
    a fault time must be finite: a NaN fault time used to be accepted
    and silently change the results of both engines."""

    @pytest.mark.parametrize("time", [math.nan, math.inf])
    def test_fault_time_rejected_at_spec_construction(self, time):
        event = {"time": time, "action": "link_down", "a": "tor0", "b": "h0"}
        with pytest.raises(FaultError, match=f"got {time!r}"):
            ScenarioSpec(protocol="PDQ(Full)",
                         topology=TopologySpec("single_rooted", {}),
                         workload=WorkloadSpec("fig3.aggregation", {}),
                         faults={"events": [event]})

    def test_fault_event_time_rejected_by_the_engine(self):
        event = FaultEvent(math.nan, "link_down", "send0", "sw0")
        with pytest.raises(FaultError, match="got nan"):
            FlowLevelSimulation(SingleBottleneck(2), PdqModel(),
                                faults=[event])

    @pytest.mark.parametrize(
        "method", ["call_at", "schedule_at", "call_after", "schedule"])
    def test_nan_time_or_delay_is_not_scheduled(self, method):
        sim = Simulator()
        with pytest.raises(SimulationError):
            getattr(sim, method)(math.nan, lambda: None)
        assert sim.now == 0.0 and sim.pending() == 0

    def test_nan_period_rate_and_size(self):
        net = Network(SingleBottleneck(1), PdqStack())
        with pytest.raises(ValueError, match="period"):
            PeriodicTimer(net.sim, math.nan, lambda: None)
        with pytest.raises(ValueError, match="link rate"):
            Link(net.sim, *net.nodes[:2], math.nan, 0.0, 1000, 0)
        with pytest.raises(WorkloadError, match="size"):
            FlowSpec(fid=0, src="a", dst="b", size_bytes=math.nan)
        topology = SingleBottleneck(1)
        topology.graph.edges["send0", "sw0"]["rate_bps"] = math.nan
        with pytest.raises(TopologyError, match="nan"):
            topology.validate()


class TestStrictSpecParsing:
    """A misspelled or missing spec field is an error, not a silently
    different run."""

    CANONICAL = ScenarioSpec(
        protocol="PDQ(Full)",
        topology=TopologySpec("single_rooted", {}),
        workload=WorkloadSpec("fig3.aggregation", {"n_flows": 2}),
        sim_deadline=3.0,
        faults={"events": [{"time": 0.001, "action": "link_down",
                            "a": "h0", "b": "root"}]},
    ).canonical()

    def test_canonical_dict_round_trips_to_the_same_key(self):
        spec = ScenarioSpec.from_dict(self.CANONICAL)
        assert spec.canonical() == self.CANONICAL
        assert spec.key == ScenarioSpec.from_dict(spec.canonical()).key

    @pytest.mark.parametrize("typo, fix", [
        ("fualts", "faults"),
        ("sim_deadlin", "sim_deadline"),
        ("protocl", "protocol"),
    ])
    def test_misspelled_key_is_rejected_with_a_hint(self, typo, fix):
        data = dict(self.CANONICAL)
        data[typo] = data.pop(fix)
        with pytest.raises(CampaignError,
                           match=f"'{typo}' \\(did you mean '{fix}'\\?\\)"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("part", ["topology", "workload"])
    def test_misspelled_nested_key_is_rejected(self, part):
        data = dict(self.CANONICAL)
        data[part] = {"kind": data[part]["kind"], "parms": {}}
        with pytest.raises(CampaignError, match="did you mean 'params'"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("path", [
        ("protocol",), ("topology",), ("workload",),
        ("topology", "kind"), ("workload", "kind"),
    ])
    def test_missing_required_field_is_named(self, path):
        data = {k: dict(v) if isinstance(v, dict) else v
                for k, v in self.CANONICAL.items()}
        target = data if len(path) == 1 else data[path[0]]
        del target[path[-1]]
        with pytest.raises(CampaignError,
                           match=f"missing required field '{path[-1]}'"):
            ScenarioSpec.from_dict(data)

    def test_non_mapping_part_is_rejected(self):
        with pytest.raises(CampaignError, match="must be a mapping"):
            ScenarioSpec.from_dict({**self.CANONICAL,
                                    "topology": "single_rooted"})
        from repro.experiments.api import load_experiment

        with pytest.raises(CampaignError, match="must be a mapping"):
            load_experiment({"name": "x", "panels": ["oops"]})

    @staticmethod
    def _panel(**fields) -> dict:
        base = {
            "protocol": "RCP",
            "topology": {"kind": "single_rooted"},
            "workload": {"kind": "fig3.aggregation",
                         "params": {"n_flows": 2, "mean_size": 100000}},
            "engine": "flow",
        }
        base.update(fields.pop("base", {}))
        return {"name": "p", "base": base, **fields}

    @pytest.mark.parametrize("panel, field", [
        ({"axes": 5}, "axes"),
        ({"axes": [["seed", 3]]}, "axis 'seed' values"),
        ({"axes": [["seed", [1]]],
          "search": {"axis": "workload.n_flows", "seeds": 3}},
         "search seeds"),
        ({"axes": [["seed", [1]]], "exclude": 5}, "exclude"),
        ({"base": {"options": [1]}}, "options"),
        ({"base": {"workload": {"kind": "fig3.aggregation",
                                "params": [1]}}}, "workload params"),
        ({"base": {"seed": "one"}}, "seed"),
        ({"axes": [["seed", [1]]],
          "search": {"axis": "workload.n_flows", "hi": "4"}}, "search hi"),
        ({"base": {"sim_deadline": "2"}}, "sim_deadline"),
        ({"base": {"options": {"probes": {
            "r": {"kind": "flow_rates", "interval": True}}}}}, "interval"),
        ({"base": {"options": {"probes": {
            "r": {"kind": "flow_rates", "interval": math.nan}}}}},
         "interval"),
    ], ids=["axes-int", "axis-values-int", "search-seeds-int",
            "exclude-int", "options-list", "params-list", "seed-str",
            "search-hi-str", "sim-deadline-str", "probe-interval-bool",
            "probe-interval-nan"])
    def test_wrong_json_type_is_a_campaign_error(self, panel, field):
        """A spec field of the wrong JSON type fails the dry-run with the
        field's name, not a Python traceback (or, for the seed, not only
        once a cell runs)."""
        from repro.experiments.api import load_experiment, validate_experiment

        with pytest.raises(CampaignError, match=field):
            validate_experiment(load_experiment(
                {"name": "x", "panels": [self._panel(**panel)]}))

    @pytest.mark.parametrize("field, value", [
        ("axis", 3), ("lo", 1.0), ("hi", True), ("target", "0.99"),
        ("target", math.inf), ("scale", math.nan), ("grow", 1),
        ("require_deadlines", "yes"),
    ])
    def test_search_field_of_the_wrong_type_is_named(self, field, value):
        search = {"axis": "workload.n_flows", field: value}
        with pytest.raises(CampaignError, match=f"search {field}"):
            SearchSpec.from_dict(search)

    def test_numbers_are_kept_as_given(self):
        """Checked, never coerced: keys hash the values as written."""
        search = SearchSpec.from_dict({"axis": "workload.n_flows",
                                       "target": 1, "scale": 2})
        assert search.canonical()["target"] == 1
        assert type(search.canonical()["scale"]) is int
        spec = ScenarioSpec.from_dict({**self.CANONICAL, "sim_deadline": 3})
        assert type(spec.sim_deadline) is int

    @pytest.mark.parametrize("params, message", [
        ({"n_flows": 2}, "missing a required argument: 'mean_size'"),
        ({"n_flows": 2, "mean_size": 1000, "mean_sise": 1},
         "got an unexpected keyword argument 'mean_sise'"),
    ], ids=["missing", "unknown"])
    def test_dry_run_binds_workload_params(self, params, message):
        """A cell whose params do not fit its builder fails the dry run
        with the kind and the parameter, not every cell at run time."""
        from repro.experiments.api import load_experiment, validate_experiment

        experiment = load_experiment({"name": "x", "panels": [self._panel(
            base={"workload": {"kind": "fig3.aggregation",
                               "params": params}})]})
        with pytest.raises(CampaignError,
                           match=f"workload kind 'fig3.aggregation': "
                                 f"{message}"):
            validate_experiment(experiment)

    def test_dry_run_binds_search_cells_with_the_probed_axis(self):
        """A search panel's base may leave out the parameter it searches:
        the dry run binds each cell as the search runs it."""
        from repro.experiments.api import load_experiment, validate_experiment

        experiment = load_experiment({"name": "x", "panels": [self._panel(
            base={"workload": {"kind": "fig3.aggregation",
                               "params": {"mean_size": 100000}}},
            axes=[["seed", [1]]],
            search={"axis": "workload.n_flows"})]})
        assert validate_experiment(experiment) == 0

    def test_dry_run_binds_topology_params(self):
        from repro.experiments.api import load_experiment, validate_experiment

        experiment = load_experiment({"name": "x", "panels": [self._panel(
            base={"topology": {"kind": "fattree",
                               "params": {"n_server": 16}}})]})
        with pytest.raises(CampaignError, match="topology kind 'fattree'"):
            validate_experiment(experiment)
