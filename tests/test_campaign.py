"""Tests for the campaign subsystem: specs, store, runner, CLI."""

import json
import multiprocessing
import os
import time

import pytest

from repro.campaign import (
    CampaignRunner,
    ResultStore,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    expand_grid,
    run_scenario,
    run_scenarios,
    use_runner,
)
from repro.campaign.cli import main as cli_main
from repro.campaign.cli import sweep_panel
from repro.campaign.registry import (
    build_topology,
    register_workload,
    topology_kinds,
)
from repro.errors import CampaignError
from repro.units import KBYTE
from repro.workload.patterns import aggregation_flows
from repro.workload.sizes import uniform_sizes


def _flow_spec(protocol="RCP", seed=1, n_flows=2, **overrides):
    """A tiny, fast flow-level scenario on the default tree."""
    overrides.setdefault("engine", "flow")
    return ScenarioSpec(
        protocol=protocol,
        topology=TopologySpec("single_rooted"),
        workload=WorkloadSpec("fig3.aggregation", {
            "n_flows": n_flows,
            "mean_size": 100 * KBYTE,
            "mean_deadline": None,
        }),
        seed=seed,
        **overrides,
    )


# -- test-only workload kinds (in-process runners; forked workers inherit) --------

#: test-only kinds are registered by importing this module, so parallel
#: runners can only resolve them in fork-started workers
_FORK_CTX = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods() else None
)
needs_fork = pytest.mark.skipif(
    _FORK_CTX is None,
    reason="test-only workload kinds reach workers only via fork",
)

_FLAKY = {"fail_seed": None}
_ATTEMPTS = {"count": 0}


@register_workload("test.flaky")
def _flaky_workload(topology, seed, n_flows=2):
    if seed == _FLAKY["fail_seed"]:
        raise RuntimeError("injected workload failure")
    sizes = uniform_sizes(n_flows, 50 * KBYTE, rng=seed)
    senders = [f"h{i}" for i in range(1, n_flows + 1)]
    return aggregation_flows(senders, "h0", sizes, rng=seed)


@register_workload("test.sleepy")
def _sleepy_workload(topology, seed, n_flows=2):
    time.sleep(2.0)
    return _flaky_workload(topology, seed, n_flows)


@register_workload("test.killed")
def _killed_workload(topology, seed, n_flows=2):
    os.kill(os.getpid(), 9)


@register_workload("test.fails_once")
def _fails_once_workload(topology, seed, n_flows=2):
    _ATTEMPTS["count"] += 1
    if _ATTEMPTS["count"] == 1:
        raise RuntimeError("first attempt fails")
    return _flaky_workload(topology, seed, n_flows)


def _test_spec(kind, seed=1):
    return ScenarioSpec(
        protocol="RCP",
        topology=TopologySpec("single_rooted"),
        workload=WorkloadSpec(kind, {"n_flows": 2}),
        engine="flow",
        seed=seed,
    )


class TestScenarioHash:
    def test_identical_specs_share_a_key(self):
        assert _flow_spec().key == _flow_spec().key

    def test_key_ignores_param_insertion_order(self):
        a = ScenarioSpec(
            protocol="RCP", topology=TopologySpec("single_rooted"),
            workload=WorkloadSpec("w", {"a": 1, "b": 2}), engine="flow",
        )
        b = ScenarioSpec(
            protocol="RCP", topology=TopologySpec("single_rooted"),
            workload=WorkloadSpec("w", {"b": 2, "a": 1}), engine="flow",
        )
        assert a.key == b.key

    def test_key_is_stable_across_versions(self):
        """Pinned: changing canonicalization silently invalidates caches."""
        spec = ScenarioSpec(
            protocol="RCP",
            topology=TopologySpec("single_bottleneck", {"n_senders": 4}),
            workload=WorkloadSpec("fig3.aggregation", {
                "n_flows": 2, "mean_size": 100000.0, "mean_deadline": None,
            }),
            engine="flow",
            seed=7,
        )
        assert spec.key == (
            "fbe937ba74f5f5949987170cb7e6aa2a"
            "ef3ff937261948bfbdf380e758d513b3"
        )

    def test_key_differs_per_axis(self):
        base = _flow_spec()
        assert base.key != _flow_spec(protocol="D3").key
        assert base.key != _flow_spec(seed=2).key
        assert base.key != _flow_spec(n_flows=3).key
        assert base.key != _flow_spec(options={"aging_rate": 2.0}).key
        assert base.key != _flow_spec(sim_deadline=5.0).key

    def test_canonical_roundtrip_preserves_key(self):
        spec = _flow_spec(options={"aging_rate": 2.0}, sim_deadline=5.0)
        restored = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.canonical()))
        )
        assert restored.key == spec.key
        assert restored == spec

    def test_unknown_engine_rejected(self):
        with pytest.raises(CampaignError):
            _flow_spec(engine="quantum")

    def test_pickled_spec_hashes_like_a_fresh_one_in_another_process(self):
        """Topology/workload specs memoize their canonical form; what
        rides along in a pickle must not carry this process's salted
        string hash into a worker."""
        import pickle
        import subprocess
        import sys

        import repro

        spec = _flow_spec()
        hash(spec.topology)  # fill the memos
        hash(spec.workload)
        code = (
            "import pickle, sys\n"
            "spec = pickle.loads(sys.stdin.buffer.read())\n"
            "for part in (spec.topology, spec.workload):\n"
            "    fresh = type(part)(part.kind, part.params)\n"
            "    assert hash(part) == hash(fresh), part\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code],
                              input=pickle.dumps(spec), env=env,
                              capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()


class TestGridExpansion:
    def test_cartesian_product(self):
        specs = expand_grid(
            _flow_spec(), protocol=["RCP", "D3"], seed=[1, 2, 3]
        )
        assert len(specs) == 6
        assert len({s.key for s in specs}) == 6
        assert {s.protocol for s in specs} == {"RCP", "D3"}

    def test_dotted_axes_reach_nested_params(self):
        specs = expand_grid(
            _flow_spec(),
            **{"workload.n_flows": [2, 4], "options.aging_rate": [0.0, 2.0]},
        )
        assert len(specs) == 4
        assert {s.workload.params["n_flows"] for s in specs} == {2, 4}
        assert {s.options["aging_rate"] for s in specs} == {0.0, 2.0}

    def test_empty_axis_rejected(self):
        with pytest.raises(CampaignError):
            expand_grid(_flow_spec(), protocol=[])


class TestRegistry:
    def test_builtin_topologies_build(self):
        assert "single_rooted" in topology_kinds()
        topo = build_topology("fattree", {"n_servers": 16})
        assert len(topo.hosts) == 16

    def test_unknown_kinds_rejected(self):
        with pytest.raises(CampaignError):
            build_topology("torus", {})
        with pytest.raises(CampaignError):
            ScenarioSpec(
                protocol="RCP", topology=TopologySpec("single_rooted"),
                workload=WorkloadSpec("no.such.workload", {}), engine="flow",
            ).workload.build(None, 1)


UNKNOWN_KIND_CASES = [
    ("topology", "single_rootedd", "single_rooted"),
    ("workload", "fig4.patern", "fig4.pattern"),
    ("engine", "packt", "packet"),
    ("reducer", "tabel", "table"),
    ("metric", "mean_fctt", "mean_fct"),
    ("experiment", "fig33", "fig3"),
]


@pytest.mark.parametrize(
    "registry,typo,suggestion",
    UNKNOWN_KIND_CASES,
    ids=[c[0].replace(" ", "-") for c in UNKNOWN_KIND_CASES],
)
def test_unknown_kind_hint_across_all_registries(registry, typo, suggestion):
    """Every registry routes misses through ``unknown_kind`` and offers
    the close-match fix for a one-character typo."""
    from repro.campaign.engines import ENGINES
    from repro.campaign.registry import build_workload
    from repro.experiments import api
    from repro.experiments.reducers import collector_metric, get_reducer

    def trigger():
        if registry == "topology":
            build_topology(typo, {})
        elif registry == "workload":
            build_workload(typo, None, 1, {})
        elif registry == "engine":
            assert typo not in ENGINES
            ScenarioSpec(
                protocol="TCP",
                topology=TopologySpec("single_bottleneck",
                                      {"n_senders": 2}),
                workload=WorkloadSpec("empty"),
                engine=typo,
            )
        elif registry == "reducer":
            get_reducer(typo)
        elif registry == "metric":
            collector_metric(typo)
        else:
            api.get_experiment(typo)

    with pytest.raises(CampaignError) as err:
        trigger()
    message = str(err.value)
    assert f"unknown {registry} kind {typo!r}" in message
    assert f"Did you mean {suggestion!r}?" in message


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        spec = _flow_spec()
        collector = run_scenario(spec)
        store = ResultStore(tmp_path)
        assert spec not in store
        store.put(spec, collector, elapsed=0.5)
        assert spec in store
        restored = store.get(spec)
        assert restored is not None
        assert restored.to_dict() == collector.to_dict()
        assert restored.mean_fct() == collector.mean_fct()
        entries = store.entries()
        assert len(entries) == 1
        assert entries[0].key == spec.key
        assert entries[0].summary["n_completed"] == len(collector)

    def test_corrupt_file_is_a_miss(self, tmp_path):
        spec = _flow_spec()
        store = ResultStore(tmp_path)
        store.path_for(spec.key).write_text("{not json")
        assert store.get(spec) is None
        store.path_for(spec.key).write_bytes(b"\xff\xfe\x00garbage")
        assert store.get(spec) is None

    def test_invalid_payload_is_a_miss_and_reruns(self, tmp_path):
        """Schema-drifted payloads degrade to a miss, not a crash."""
        spec = _flow_spec()
        store = ResultStore(tmp_path)
        store.put(spec, run_scenario(spec))
        path = store.path_for(spec.key)
        payload = json.loads(path.read_text())
        payload["collector"]["records"][0]["spec"]["size_bytes"] = -1
        path.write_text(json.dumps(payload))
        assert store.get(spec) is None
        result = CampaignRunner(store=store).run([spec])
        assert result.executed_count == 1
        assert result.outcomes[0].ok

    def test_flow_engine_rejects_loss(self):
        with pytest.raises(CampaignError):
            _flow_spec(faults={"loss": [
                {"src": "sw0", "dst": "recv", "rate": 0.01}]})

    def test_clear(self, tmp_path):
        spec = _flow_spec()
        store = ResultStore(tmp_path)
        store.put(spec, run_scenario(spec))
        assert store.clear() == 1
        assert len(store) == 0


def _corrupt_missing(path, payload):
    path.unlink()


def _corrupt_directory(path, payload):
    path.unlink()
    path.mkdir()


def _corrupt_truncated(path, payload):
    text = json.dumps(payload)
    path.write_text(text[: len(text) // 2])


def _corrupt_version(path, payload):
    path.write_text(json.dumps({**payload, "version": 0}))


def _corrupt_key(path, payload):
    path.write_text(json.dumps({**payload, "key": "0" * 64}))


def _corrupt_not_a_dict(path, payload):
    path.write_text(json.dumps([payload]))


class TestStoreRobustness:
    """A store entry that cannot be trusted is a miss, and a warm run
    re-executes it; the campaign log batches cached rows in order."""

    @pytest.mark.parametrize("corrupt", [
        _corrupt_missing, _corrupt_directory, _corrupt_truncated,
        _corrupt_version, _corrupt_key, _corrupt_not_a_dict,
    ], ids=lambda fn: fn.__name__.removeprefix("_corrupt_"))
    def test_bad_entry_is_a_miss_and_reexecutes(self, tmp_path, corrupt):
        spec = _flow_spec()
        store = ResultStore(tmp_path)
        CampaignRunner(store=store).run([spec])
        path = store.path_for(spec.key)
        corrupt(path, json.loads(path.read_text()))
        assert store._load(spec.key) is None
        assert store.get(spec) is None
        result = CampaignRunner(store=store).run([spec])
        assert result.executed_count == 1
        assert result.outcomes[0].ok
        last = store.read_log()[-1]
        assert last["key"] == spec.key
        assert last["ok"] and not last["cached"]
        # a directory in the way cannot be replaced; any other bad entry is
        assert (store.get(spec) is None) == path.is_dir()

    def test_cached_cells_log_in_one_append_in_input_order(
            self, tmp_path, monkeypatch):
        specs = [_flow_spec(seed=s) for s in (3, 1, 2)]
        store = ResultStore(tmp_path)
        CampaignRunner(store=store).run(specs)
        store.log_path.unlink()
        batches = []
        log_outcomes = ResultStore.log_outcomes
        monkeypatch.setattr(
            ResultStore, "log_outcomes",
            lambda self, rows: batches.append(len(rows))
            or log_outcomes(self, rows))
        warm = CampaignRunner(store=store).run(specs)
        assert warm.cached_count == 3
        assert batches == [3]
        rows = store.read_log()
        assert [r["key"] for r in rows] == [spec.key for spec in specs]
        assert all(r["cached"] and r["ok"] for r in rows)

    def test_log_outcomes_writes_rows_in_order(self, tmp_path):
        store = ResultStore(tmp_path)
        store.log_outcomes([{"key": f"k{i}", "ok": True} for i in range(5)])
        store.log_outcomes([])
        assert [r["key"] for r in store.read_log()] == [
            f"k{i}" for i in range(5)]

    def test_read_log_skips_a_torn_final_line(self, tmp_path):
        store = ResultStore(tmp_path)
        store.log_outcomes([{"key": "k1", "ok": True},
                            {"key": "k2", "ok": True}])
        with store.log_path.open("a") as fh:
            fh.write('{"key": "k3", "o')
        assert [r["key"] for r in store.read_log()] == ["k1", "k2"]


class TestSerialRunner:
    def test_cold_then_warm(self, tmp_path):
        specs = [_flow_spec(seed=s) for s in (1, 2)]
        store = ResultStore(tmp_path)
        cold = CampaignRunner(store=store).run(specs)
        assert cold.executed_count == 2
        assert cold.cached_count == 0
        warm = CampaignRunner(store=store).run(specs)
        assert warm.executed_count == 0
        assert warm.cached_count == 2
        for a, b in zip(cold.collectors(), warm.collectors(), strict=True):
            assert a.to_dict() == b.to_dict()

    def test_store_lookup_never_counts_the_store(self, tmp_path,
                                                 monkeypatch):
        """``len(store)`` globs the directory; the runner asks whether
        it *has* a store, so a warm pass costs N reads and no glob, and
        an empty store is still consulted."""
        lens, gets = [], []
        monkeypatch.setattr(ResultStore, "__len__",
                            lambda self: lens.append(1) or 0)
        get = ResultStore.get
        monkeypatch.setattr(
            ResultStore, "get",
            lambda self, spec: gets.append(spec.key) or get(self, spec))
        specs = [_flow_spec(seed=s) for s in (1, 2, 3)]
        store = ResultStore(tmp_path)
        CampaignRunner(store=store).run(specs)
        assert gets == [spec.key for spec in specs]  # empty, yet asked
        warm = CampaignRunner(store=store).run(specs)
        assert warm.cached_count == 3
        assert len(gets) == 6
        assert not lens

    def test_duplicate_specs_run_once(self):
        result = CampaignRunner().run([_flow_spec(), _flow_spec()])
        assert len(result.outcomes) == 2
        assert result.executed_count == 1

    def test_resume_after_partial_failure(self, tmp_path):
        _FLAKY["fail_seed"] = 2
        specs = [_test_spec("test.flaky", seed=s) for s in (1, 2, 3)]
        store = ResultStore(tmp_path)
        try:
            cold = CampaignRunner(store=store).run(specs)
            assert cold.executed_count == 3
            assert len(cold.failures) == 1
            assert "injected" in cold.failures[0].error
            with pytest.raises(CampaignError):
                cold.collectors()
        finally:
            _FLAKY["fail_seed"] = None
        # the fixed campaign resumes: only the failed scenario re-executes
        warm = CampaignRunner(store=store).run(specs)
        assert warm.executed_count == 1
        assert warm.cached_count == 2
        assert not warm.failures
        assert len(warm.collectors()) == 3

    def test_retry_recovers_transient_failure(self):
        _ATTEMPTS["count"] = 0
        result = CampaignRunner(retries=1).run([_test_spec("test.fails_once")])
        outcome = result.outcomes[0]
        assert outcome.ok
        assert outcome.attempts == 2

    def test_no_retry_reports_failure(self):
        _ATTEMPTS["count"] = 0
        result = CampaignRunner(retries=0).run([_test_spec("test.fails_once")])
        assert not result.outcomes[0].ok

    def test_progress_callback(self):
        seen = []
        runner = CampaignRunner(
            progress=lambda outcome, done, total: seen.append((done, total))
        )
        runner.run([_flow_spec(seed=s) for s in (1, 2)])
        assert seen == [(1, 2), (2, 2)]


class TestParallelRunner:
    def test_sweep_parallel_matches_serial_and_resumes_warm(self, tmp_path):
        """Acceptance: a multi-protocol Fig-4-style grid on 2 workers
        persists results, and the warm run executes zero scenarios."""
        specs = sweep_panel(
            protocols=("PDQ(Full)", "RCP"), patterns=("Aggregation",),
            n_flows=4, seeds=(1,),
        ).expand()
        assert len(specs) == 2
        serial = CampaignRunner(max_workers=0).run(specs)
        store = ResultStore(tmp_path)
        cold = CampaignRunner(max_workers=2, store=store).run(specs)
        assert cold.executed_count == len(specs)
        for a, b in zip(serial.collectors(), cold.collectors(), strict=True):
            assert a.to_dict() == b.to_dict()
        warm = CampaignRunner(max_workers=2, store=store).run(specs)
        assert warm.executed_count == 0
        assert warm.cached_count == len(specs)
        for a, b in zip(serial.collectors(), warm.collectors(), strict=True):
            assert a.to_dict() == b.to_dict()

    @needs_fork
    def test_parallel_timeout_marks_scenario_failed(self):
        specs = [_test_spec("test.sleepy")]
        runner = CampaignRunner(max_workers=2, timeout=0.3,
                                mp_context=_FORK_CTX)
        result = runner.run(specs)
        assert not result.outcomes[0].ok
        assert "timeout" in result.outcomes[0].error

    @needs_fork
    def test_parallel_failure_reported(self):
        # fork-started workers inherit the flaky flag state
        _FLAKY["fail_seed"] = 2
        try:
            specs = [_test_spec("test.flaky", seed=s) for s in (1, 2)]
            runner = CampaignRunner(max_workers=2, mp_context=_FORK_CTX)
            result = runner.run(specs)
            assert len(result.failures) == 1
            assert result.outcomes[0].ok
            assert not result.outcomes[1].ok
        finally:
            _FLAKY["fail_seed"] = None

    @needs_fork
    def test_crash_does_not_fail_sibling_scenarios(self):
        """Collateral of a broken pool is retried in quarantine."""
        specs = [_test_spec("test.killed")] + [
            _flow_spec(seed=s) for s in (1, 2, 3)
        ]
        with CampaignRunner(max_workers=2, mp_context=_FORK_CTX) as runner:
            result = runner.run(specs)
        assert [o.ok for o in result.outcomes] == [False, True, True, True]
        assert "Broken" in result.outcomes[0].error

    @needs_fork
    def test_crashed_worker_fails_scenario_not_runner(self):
        """A SIGKILLed worker must not poison the runner for later runs."""
        with CampaignRunner(max_workers=2, mp_context=_FORK_CTX) as runner:
            bad = runner.run([_test_spec("test.killed")])
            assert not bad.outcomes[0].ok
            assert "Broken" in bad.outcomes[0].error
            # the pool is rebuilt: the same runner still executes work
            good = runner.run([_flow_spec()])
            assert good.outcomes[0].ok
            assert good.executed_count == 1


class TestAmbientRunner:
    def test_default_is_serial_uncached(self):
        collectors = run_scenarios([_flow_spec()])
        assert len(collectors) == 1
        assert collectors[0].mean_fct() > 0

    def test_use_runner_routes_through_store(self, tmp_path):
        spec = _flow_spec()
        store = ResultStore(tmp_path)
        with use_runner(CampaignRunner(store=store)):
            run_scenarios([spec])
        assert spec in store

    def test_figure_functions_hit_the_cache(self, tmp_path):
        from repro.experiments.api import run_panel
        from repro.experiments.fig10 import fig10_panel

        store = ResultStore(tmp_path)
        kwargs = dict(distributions=("uniform",), seeds=(1,), n_flows=3)
        with use_runner(CampaignRunner(store=store)):
            first = run_panel(fig10_panel(**kwargs))
        assert len(store) == 4  # 4 schemes x 1 seed x 1 distribution
        executed = []
        with use_runner(CampaignRunner(
            store=store,
            progress=lambda o, done, total:
                executed.append(o) if not o.cached else None,
        )):
            second = run_panel(fig10_panel(**kwargs))
        assert first == second
        assert executed == []  # the warm figure run re-simulates nothing


class TestCli:
    def test_run_fig_dry_run(self, capsys):
        assert cli_main(["run-fig", "1", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "dry run" in out

    def test_run_fig_unknown(self, capsys):
        assert cli_main(["run-fig", "99", "--dry-run"]) == 2

    def test_check_subcommand_is_gone(self, capsys):
        """The static-analysis subcommand was deleted with its linter; the
        parser rejects it like any unknown command."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["check", "src"])
        assert exc.value.code == 2
        assert "invalid choice: 'check'" in capsys.readouterr().err

    def test_sweep_dry_run(self, capsys):
        assert cli_main(["sweep", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "fig4.pattern" in out

    def test_sweep_panel_passes_the_experiment_dry_run(self):
        """The check ``run-spec --dry-run`` gives a declared panel: its
        reducer, kinds, options and built workloads all resolve."""
        from repro.experiments.api import Experiment, validate_experiment

        sweep = Experiment(name="sweep", panels=(sweep_panel(),))
        assert validate_experiment(sweep) == 6

    def test_sweep_and_ls(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["sweep", "--protocols", "RCP", "--patterns", "Aggregation",
                "--flows", "3", "--jobs", "0", "--cache", cache]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "executed=1 cached=0 failed=0" in out
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "executed=0 cached=1 failed=0" in out
        assert cli_main(["ls", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "1 cached result(s)" in out
        assert "RCP" in out

    def test_ls_empty(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert cli_main(["ls", "--cache", str(tmp_path / "empty")]) == 0
        assert "no cached results" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["ls", "--cache"], ["report"]])
    def test_read_only_commands_do_not_create_the_store(self, argv, tmp_path,
                                                        capsys):
        """A mistyped store path must fail and leave nothing behind, not
        print an empty listing next to a freshly made directory."""
        missing = tmp_path / "typo_store"
        assert cli_main([*argv, str(missing)]) == 1
        assert (f"campaign error: no result store at {missing}"
                in capsys.readouterr().err)
        assert not missing.exists()
