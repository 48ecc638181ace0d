"""Tests for the ``repro check`` static-analysis pass (RPL002-RPL005).

Each checker is pinned against pass/fail fixtures under
``tests/data/analysis/`` (fixture trees mimic the repo layout where a
checker keys on file names, e.g. ``net/link.py``). A regression test
mutates the *real* ``net/link.py`` the way a plausible refactor would —
the fig3c tx-start delivery revert — and asserts the lint catches it.
The repo itself must stay clean at HEAD.
"""

import json
from pathlib import Path

import pytest

import repro.analysis  # noqa: F401  (registers the checkers)
from repro.analysis.core import CHECKERS, AnalysisContext
from repro.analysis.diagnostics import render_report, sort_diagnostics
from repro.analysis.rpl004_fingerprint import (
    normalized_fingerprint,
    write_pins,
)
from repro.errors import CampaignError

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "data" / "analysis"


def run_checker(code, ctx):
    _, check = CHECKERS[code]
    return sort_diagnostics(list(check(ctx)))


def fixture_ctx(name, fingerprint_path=None):
    return AnalysisContext.build(
        REPO_ROOT, paths=[FIXTURES / name], fingerprint_path=fingerprint_path,
    )


class TestRegistry:
    def test_all_four_checkers_registered(self):
        assert sorted(CHECKERS) == ["RPL002", "RPL003", "RPL004", "RPL005"]


class TestRpl002HotPathPurity:
    def test_pass_fixture_is_clean(self):
        # includes an f-string inside a raise: exempt (cold error path)
        assert run_checker("RPL002", fixture_ctx("rpl002_pass")) == []

    def test_fail_fixture_flags_every_construct(self):
        diags = run_checker("RPL002", fixture_ctx("rpl002_fail"))
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
        assert run_checker("RPL002", ctx) == []

    def test_marker_in_string_does_not_mark_function(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            'MARKER = "# repro: hot"\n\n\n'
            "def build():\n"
            "    return [dict(x=i) for i in range(3)]\n"
        )
        ctx = AnalysisContext.build(REPO_ROOT, paths=[target])
        assert run_checker("RPL002", ctx) == []


class TestRpl003RegistryDiscipline:
    def test_pass_fixture_is_clean(self):
        assert run_checker("RPL003", fixture_ctx("rpl003_pass")) == []

    def test_typoed_kinds_are_flagged_with_hints(self):
        diags = run_checker("RPL003", fixture_ctx("rpl003_fail"))
        assert len(diags) == 4
        blob = "\n".join(d.message for d in diags)
        assert "'single_root' is not a registered topology kind" in blob
        assert "Did you mean 'single_rooted'?" in blob
        assert "'fig4.patern' is not a registered workload kind" in blob
        assert "Did you mean 'fig4.pattern'?" in blob
        assert "'packt' is not a registered engine kind" in blob
        assert "'tables' is not a registered reducer kind" in blob
        assert "Did you mean 'table'?" in blob


class TestRpl004FingerprintPins:
    def _pin(self, fixture, tmp_path):
        pin_path = tmp_path / "fingerprints.json"
        ctx = fixture_ctx(fixture, fingerprint_path=pin_path)
        write_pins(ctx)
        return pin_path

    def test_pinned_fixture_is_clean(self, tmp_path):
        pin_path = self._pin("rpl004", tmp_path)
        ctx = fixture_ctx("rpl004", fingerprint_path=pin_path)
        assert run_checker("RPL004", ctx) == []

    def test_edit_without_repin_is_flagged(self, tmp_path):
        # v2 differs from v1 only in ScenarioSpec.key's body (plus the
        # module docstring, which must NOT trip the fingerprint)
        pin_path = self._pin("rpl004", tmp_path)
        ctx = fixture_ctx("rpl004_changed", fingerprint_path=pin_path)
        diags = run_checker("RPL004", ctx)
        assert len(diags) == 1
        assert "ScenarioSpec.key changed" in diags[0].message
        assert "--repin-fingerprints" in diags[0].message

    def test_missing_pin_table_is_flagged(self, tmp_path):
        ctx = fixture_ctx("rpl004",
                          fingerprint_path=tmp_path / "missing.json")
        diags = run_checker("RPL004", ctx)
        assert len(diags) == 1
        assert "missing" in diags[0].message

    def test_fingerprint_ignores_docstrings_and_formatting(self):
        import ast

        def fn_node(source):
            return ast.parse(source).body[0]

        base = fn_node("def f(x):\n    return x + 1\n")
        doc = fn_node('def f(x):\n    """doc"""\n    return x + 1\n')
        spaced = fn_node("def f( x ):\n    return (x + 1)\n")
        edited = fn_node("def f(x):\n    return x + 2\n")
        assert normalized_fingerprint(base) == normalized_fingerprint(doc)
        assert normalized_fingerprint(base) == normalized_fingerprint(spaced)
        assert normalized_fingerprint(base) != normalized_fingerprint(edited)


class TestRpl005EventShape:
    def test_pass_fixture_is_clean(self):
        assert run_checker("RPL005", fixture_ctx("rpl005_pass")) == []

    def test_delivery_at_tx_start_is_flagged(self):
        diags = run_checker("RPL005", fixture_ctx("rpl005_fail"))
        assert len(diags) == 1
        assert "delivery callback scheduled in enqueue()" in diags[0].message
        assert "fig3c" in diags[0].message

    def test_raw_heappush_outside_link_is_flagged(self):
        diags = run_checker("RPL005", fixture_ctx("rpl005_fail_heappush"))
        assert len(diags) == 1
        assert "direct push onto a simulator heap" in diags[0].message

    def test_fig3c_revert_of_real_link_fails_lint(self, tmp_path):
        # the acceptance scenario: revert the tx-finish scheduling change
        # by making the link schedule deliveries when transmission starts
        source = (REPO_ROOT / "src/repro/net/link.py").read_text()
        reverted = source.replace(
            "sim._seq, self._finish_cb, (packet,)))",
            "sim._seq, self._deliver_cb, (packet, self)))",
        )
        assert reverted != source
        target = tmp_path / "net" / "link.py"
        target.parent.mkdir()
        target.write_text(reverted)
        ctx = AnalysisContext.build(REPO_ROOT, paths=[target])
        diags = run_checker("RPL005", ctx)
        # both tx-start push sites now schedule deliveries: the one in
        # enqueue, and the one in _finish that follows the finished
        # packet's own delivery
        assert len(diags) == 2
        assert {"enqueue", "_finish"} == {
            d.message.split("(")[0].split()[-1] for d in diags
        }


class TestRepoIsCleanAtHead:
    def test_full_repo_scan_has_no_diagnostics(self):
        ctx = AnalysisContext.build(REPO_ROOT)
        diags = []
        for code in sorted(CHECKERS):
            diags.extend(run_checker(code, ctx))
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
    def test_list_checkers(self, capsys):
        from repro.analysis.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for code in ("RPL002", "RPL003", "RPL004", "RPL005"):
            assert code in out

    def test_clean_fixture_exits_zero(self, capsys):
        from repro.analysis.cli import main

        rc = main([str(FIXTURES / "rpl003_pass"), "--no-mypy"])
        assert rc == 0
        assert "repro check: clean" in capsys.readouterr().out

    def test_diagnostics_exit_one_and_write_report(self, tmp_path, capsys):
        from repro.analysis.cli import main

        out_file = tmp_path / "report.json"
        rc = main([str(FIXTURES / "rpl003_fail"), "--no-mypy",
                   "--out", str(out_file)])
        assert rc == 1
        report = json.loads(out_file.read_text())
        assert report["schema"] == 1
        assert report["n_diagnostics"] == 4
        assert report["by_code"] == {"RPL003": 4}
        first = report["diagnostics"][0]
        assert first["code"] == "RPL003"
        assert "line" in first and "path" in first and "message" in first
        text = capsys.readouterr().out
        assert ": RPL003 " in text

    def test_render_report_counts_by_code(self):
        diags = run_checker("RPL003", fixture_ctx("rpl003_fail"))
        report = render_report(diags, mypy={"status": "skipped"})
        assert report["by_code"] == {"RPL003": 4}
        assert report["mypy"] == {"status": "skipped"}


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
