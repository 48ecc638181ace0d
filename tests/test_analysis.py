"""Tests for the ``repro check`` static-analysis pass (RPL002).

The rule is pinned against pass/fail fixtures under
``tests/data/analysis/``, and the repo itself must stay clean at HEAD.
The packet engine's event order has no lint rule: the packet digest
pins hold it (``tests/test_pdq_digest_pins.py``).
"""

from pathlib import Path

import pytest

from repro.analysis import check
from repro.analysis.cli import main
from repro.analysis.core import AnalysisContext, sort_diagnostics
from repro.errors import CampaignError

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "data" / "analysis"


def run_checker(ctx):
    return sort_diagnostics(list(check(ctx)))


def fixture_ctx(name):
    return AnalysisContext.build(REPO_ROOT, paths=[FIXTURES / name])


class TestRpl002HotPathPurity:
    def test_pass_fixture_is_clean(self):
        # includes an f-string inside a raise: exempt (cold error path)
        assert run_checker(fixture_ctx("rpl002_pass")) == []

    def test_fail_fixture_flags_every_construct(self):
        diags = run_checker(fixture_ctx("rpl002_fail"))
        blob = "\n".join(d.message for d in diags)
        for needle in (
            "closure helper()",
            "lambda",
            "f-string",
            "logging call",
            "dict literal inside a loop",
            "list literal inside a loop",
            "Thing() constructed inside a loop",
            "attribute-chained call self.sink.stats.counters.bump()",
            "PacketKind.DATA read in a hot function",
        ):
            assert needle in blob, f"missing diagnostic for: {needle}"
        assert all(d.message.startswith("Engine.drain:") for d in diags)

    def test_unmarked_functions_are_ignored(self, tmp_path):
        # the fail fixture minus its marker is silent
        source = (FIXTURES / "rpl002_fail" / "hot.py").read_text()
        unmarked = source.replace("    # repro: hot\n", "")
        assert unmarked != source
        target = tmp_path / "hot.py"
        target.write_text(unmarked)
        ctx = AnalysisContext.build(REPO_ROOT, paths=[target])
        assert run_checker(ctx) == []

    def test_marker_in_string_does_not_mark_function(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            'MARKER = "# repro: hot"\n\n\n'
            "def build():\n"
            "    return [dict(x=i) for i in range(3)]\n"
        )
        ctx = AnalysisContext.build(REPO_ROOT, paths=[target])
        assert run_checker(ctx) == []


class TestRepoIsCleanAtHead:
    def test_full_repo_scan_has_no_diagnostics(self):
        diags = run_checker(AnalysisContext.build(REPO_ROOT))
        assert diags == [], "\n".join(d.format() for d in diags)

    def test_hot_markers_are_present_where_seeded(self):
        # the RPL002 contract is only as good as its coverage: the
        # functions the issue names must actually carry the marker
        ctx = AnalysisContext.build(REPO_ROOT)
        from repro.analysis.core import hot_functions

        marked = set()
        for sf in ctx.files:
            for qualname, _fn in hot_functions(sf):
                marked.add((sf.relpath.split("/")[-1], qualname))
        for expected in [
            ("link.py", "Link._finish"),
            ("link.py", "Link.enqueue"),
            ("simulator.py", "Simulator.run"),
            ("queues.py", "DropTailQueue.offer"),
            ("queues.py", "DropTailQueue.pop"),
            ("node.py", "Switch.receive"),
            ("node.py", "Host.send"),
            ("base.py", "RateBasedSender._emit"),
            ("tcp.py", "TcpSender._pump"),
            ("tcp.py", "TcpSender.on_packet"),
            ("tcp.py", "TcpReceiver.on_packet"),
            ("engine.py", "FlowLevelSimulation._admit"),
            ("stream.py", "FlowStream.take_until"),
            ("streaming.py", "StreamingMetricsCollector.register"),
            ("streaming.py", "StreamingMetricsCollector.on_complete"),
        ]:
            assert expected in marked, f"missing # repro: hot on {expected}"


class TestCheckCli:
    def test_paths_are_its_only_argument(self):
        from repro.campaign.cli import build_parser

        (commands,) = (a for a in build_parser()._actions
                       if a.dest == "command")
        check_parser = commands.choices["check"]
        assert [a.dest for a in check_parser._actions] == ["help", "paths"]

    def test_repin_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--repin-fingerprints"])
        assert exit_.value.code == 2
        assert "--repin-fingerprints" in capsys.readouterr().err

    def test_clean_fixture_exits_zero(self, capsys):
        assert main([str(FIXTURES / "rpl002_pass")]) == 0
        assert capsys.readouterr().out == "repro check: clean\n"

    def test_diagnostics_exit_one(self, capsys):
        assert main([str(FIXTURES / "rpl002_fail")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"repro check: {len(lines) - 1} diagnostic(s)"
        assert all(": RPL002 Engine.drain: " in line for line in lines[:-1])

    def test_a_missing_path_exits_two(self, capsys):
        assert main([str(FIXTURES / "no_such_dir")]) == 2
        assert "no such file or directory" in capsys.readouterr().err


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
    from repro.campaign.engines import engine_kinds
    from repro.campaign.registry import build_topology, build_workload
    from repro.campaign.spec import ScenarioSpec, TopologySpec, WorkloadSpec
    from repro.experiments import api
    from repro.experiments.reducers import collector_metric, get_reducer

    def trigger():
        if registry == "topology":
            build_topology(typo, {})
        elif registry == "workload":
            build_workload(typo, None, 1, {})
        elif registry == "engine":
            assert typo not in engine_kinds()
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
