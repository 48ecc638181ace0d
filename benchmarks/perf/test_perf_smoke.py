"""Tier-1 smoke of the benchmark of record (``benchmarks/perf/run.py``).

One ``--smoke`` invocation (every workload scaled to well under a
second, one timed repeat plus the traced one) must emit every workload,
end-to-end and per-layer name that ``BENCHMARK.json`` declares; the
per-group self times must sum to the traced total; and comparing the
report with itself must say ``same`` everywhere.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "perf" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple[Path, dict]:
    path = tmp_path_factory.mktemp("perf") / "report.json"
    done = subprocess.run([*RUN, "--smoke", "--out", str(path)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    with open(path, encoding="utf-8") as fh:
        return path, json.load(fh)


def test_every_declared_name_is_emitted(spec, smoke):
    _, report = smoke
    assert report["claim"] is None
    assert set(report["host"]) == {"python", "platform", "nproc",
                                   "loadavg_start", "calib_s"}
    assert list(report["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, entry in report["workloads"].items():
        assert NAME.fullmatch(name)
        assert entry["correct"] and entry["failed"] == 0, entry["failures"]
        assert entry["attempted"] >= 1
        for metric in spec["end_to_end"]:
            assert NAME.fullmatch(metric["name"])
            summary = entry["end_to_end"][metric["name"]]
            assert summary["unit"] == metric["unit"]
            assert summary["median"] > 0, (name, metric["name"])
        assert entry["end_to_end"]["failed_ratio"]["median"] == 0
        for metric in spec["per_layer"]:
            assert NAME.fullmatch(metric["name"])
            assert metric["name"] in entry["per_layer"], (name, metric["name"])


def test_self_times_sum_to_the_traced_total(smoke):
    _, report = smoke
    for name, entry in report["workloads"].items():
        layers = entry["per_layer"]
        total = layers["trace.total_s"]
        parts = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert total > 0
        assert abs(parts - total) <= 0.02 * total, (name, parts, total)


def test_each_workload_stresses_its_layer(smoke):
    _, report = smoke
    layers = {n: e["per_layer"] for n, e in report["workloads"].items()}
    incast = layers["packet-incast-tcp"]
    assert all(v == 0 for k, v in incast.items()
               if k.startswith("core.") and k.endswith(".self_s"))
    assert layers["packet-vl2-pdq"]["core.switch.process.calls"] > 0
    warm = layers["campaign-fig3-warm"]
    assert warm["campaign.cached"] == warm["campaign.cells"] > 0
    assert warm["campaign.executed"] == 0 and warm["sim.events"] == 0
    cold = layers["campaign-fig3-cold"]
    assert cold["campaign.store.put.calls"] == cold["campaign.executed"] > 0
    assert layers["fluid-stream-rcp"]["fluid.stream_batches"] > 0
    assert layers["fluid-batch-pdq"]["fluid.stream_batches"] == 0


def test_compare_with_itself_says_same_everywhere(spec, smoke):
    path, _ = smoke
    done = subprocess.run([*RUN, "--compare", str(path), str(path)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=30)
    assert done.returncode == 0, done.stdout + done.stderr
    verdicts = [line.split()[-1] for line in done.stdout.splitlines()
                if "B/A" in line]
    pairs = len(spec["workloads"]) * (len(spec["end_to_end"]) + 1)
    assert verdicts == ["same"] * pairs
    assert "differ (counters, .calls, sim.*): 0" in done.stdout


def test_without_the_simulator_there_is_no_result(tmp_path):
    """The driver's empty-checkout probe: only BENCHMARK.json and the
    benchmark's own files — non-zero exit, no result line."""
    perf = tmp_path / "benchmarks" / "perf"
    perf.mkdir(parents=True)
    for source in (ROOT / "benchmarks" / "perf").glob("*.py"):
        (perf / source.name).write_text(source.read_text(encoding="utf-8"),
                                        encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"),
        encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(perf / "run.py"), "--workload",
         "fluid-batch-pdq", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=30)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
