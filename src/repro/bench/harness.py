"""Timing harness for the benchmark scenarios (both engines).

Flow-level scenarios run on the optimized engine and (unless disabled) on
the frozen naive baseline; the baseline run doubles as a live parity
check — a metrics mismatch is a hard error, not a statistic.

Packet-level scenarios time the discrete-event stack (``iterations`` is
the simulator's processed-event count, so ``events_per_sec`` is directly
comparable across PRs). The packet engine has no frozen naive twin, so
those rows carry no baseline/speedup/parity columns; correctness is
covered by ``python -m repro validate`` instead.

Every benchmark also reports ``flows_per_sec`` and (unless disabled with
``--no-mem``) ``peak_mem_bytes`` from one extra run under tracemalloc —
the untraced timing runs stay clean, since tracemalloc slows allocation
severalfold. Streaming (open-system) scenarios pair the engine with a
memory-bounded :class:`~repro.metrics.streaming.StreamingMetricsCollector`
and skip the naive baseline, which only understands batch workloads.
"""

from __future__ import annotations

import json
import platform
import time
import tracemalloc
from dataclasses import dataclass, field
from collections.abc import Sequence
from functools import partial

from repro.errors import ExperimentError
from repro.flowsim.engine import FlowLevelSimulation
from repro.flowsim.naive import NaiveFlowLevelSimulation, naive_model_for
from repro.bench.scenarios import SCENARIOS, BenchScenario

DEFAULT_REPORT = "BENCH_flowsim.json"

#: report/history schema: 2 adds flows_per_sec + peak_mem_bytes columns
#: and the streaming scenarios
BENCH_SCHEMA = 2

#: seed for the streaming collectors' reservoir RNG in bench runs
_BENCH_METRICS_SEED = 0


def _bench_metrics():
    """Fresh streaming collector for an open-system bench run."""
    from repro.metrics.streaming import streaming_collector

    return streaming_collector(True, seed=_BENCH_METRICS_SEED)


@dataclass
class BenchResult:
    name: str
    description: str
    params: dict
    elapsed_s: float
    iterations: int
    recomputations: int
    flows: int
    completed: int
    terminated: int
    engine: str = "flow"
    baseline_elapsed_s: float | None = None
    baseline_parity: bool | None = None
    peak_mem_bytes: int | None = None
    extras: dict = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        return self.iterations / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def allocate_calls_per_sec(self) -> float:
        return (self.recomputations / self.elapsed_s
                if self.elapsed_s > 0 else 0.0)

    @property
    def flows_per_sec(self) -> float:
        return self.flows / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def speedup(self) -> float | None:
        if self.baseline_elapsed_s is None or self.elapsed_s <= 0:
            return None
        return self.baseline_elapsed_s / self.elapsed_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "engine": self.engine,
            "params": self.params,
            "elapsed_s": self.elapsed_s,
            "iterations": self.iterations,
            "recomputations": self.recomputations,
            "events_per_sec": self.events_per_sec,
            "allocate_calls_per_sec": self.allocate_calls_per_sec,
            "flows": self.flows,
            "flows_per_sec": self.flows_per_sec,
            "completed": self.completed,
            "terminated": self.terminated,
            "baseline_elapsed_s": self.baseline_elapsed_s,
            "speedup": self.speedup,
            "baseline_parity": self.baseline_parity,
            "peak_mem_bytes": self.peak_mem_bytes,
            **({"extras": self.extras} if self.extras else {}),
        }


def _best_of(run_once, repeat: int):
    """The fastest of ``repeat`` (at least one) ``run_once()`` passes,
    each returning (elapsed, sim, metrics)."""
    return min((run_once() for _ in range(max(1, repeat))),
               key=lambda run: run[0])


def _one_run(engine_cls, scenario: BenchScenario, quick: bool,
             model_transform=None):
    topology, model, flows, sim_deadline = scenario.build(quick)
    if model_transform is not None:
        model = model_transform(model)
    if scenario.streaming:
        sim = engine_cls(topology, model, metrics=_bench_metrics())
    else:
        sim = engine_cls(topology, model)
    started = time.perf_counter()
    metrics = sim.run(flows, deadline=sim_deadline)
    elapsed = time.perf_counter() - started
    return elapsed, sim, metrics


def _one_packet_run(scenario: BenchScenario, quick: bool):
    from repro.campaign.engines import make_stack
    from repro.net.network import Network

    topology, protocol, flows, sim_deadline = scenario.build(quick)
    metrics = _bench_metrics() if scenario.streaming else None
    net = Network(topology, make_stack(protocol), metrics=metrics)
    started = time.perf_counter()
    net.launch(flows)
    net.run_until_quiet(deadline=sim_deadline)
    elapsed = time.perf_counter() - started
    return elapsed, net.sim, net.metrics


def _peak_memory(run_once) -> int:
    """Peak traced allocation of one full build+run pass.

    A separate pass, not the timed one: tracemalloc slows allocation
    severalfold, so folding it into the timing runs would poison every
    events_per_sec trajectory in the history file.
    """
    tracemalloc.start()
    try:
        run_once()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _flow_counts(metrics) -> tuple[int, int, int]:
    """(flows, completed, terminated) for either collector flavor."""
    n_completed = getattr(metrics, "n_completed", None)
    if n_completed is not None:
        return len(metrics), n_completed, metrics.n_terminated
    records = metrics.all_records()
    return (len(records),
            sum(1 for r in records if r.completed),
            sum(1 for r in records if r.terminated))


def run_packet_scenario(scenario: BenchScenario, quick: bool = False,
                        repeat: int = 1,
                        measure_memory: bool = True) -> BenchResult:
    run_once = partial(_one_packet_run, scenario, quick)
    elapsed, sim, metrics = _best_of(run_once, repeat)
    flows, completed, terminated = _flow_counts(metrics)
    peak = _peak_memory(run_once) if measure_memory else None
    return BenchResult(
        name=scenario.name,
        description=scenario.description,
        params=scenario.params(quick),
        elapsed_s=elapsed,
        iterations=sim.processed_events,
        recomputations=0,
        flows=flows,
        completed=completed,
        terminated=terminated,
        engine="packet",
        peak_mem_bytes=peak,
        # heap hygiene: how tombstone-laden the event heap ended up and
        # how often bounded compaction had to rebuild it
        extras={
            "cancelled_ratio": round(sim.cancelled_ratio, 6),
            "compactions": sim.compactions,
            "pending_at_exit": sim.pending(),
        },
    )


def run_scenario(scenario: BenchScenario, quick: bool = False,
                 baseline: bool = True, repeat: int = 1,
                 measure_memory: bool = True) -> BenchResult:
    if scenario.engine == "packet":
        return run_packet_scenario(scenario, quick=quick, repeat=repeat,
                                   measure_memory=measure_memory)
    run_once = partial(_one_run, FlowLevelSimulation, scenario, quick)
    elapsed, sim, metrics = _best_of(run_once, repeat)
    flows, completed, terminated = _flow_counts(metrics)
    peak = _peak_memory(run_once) if measure_memory else None
    result = BenchResult(
        name=scenario.name,
        description=scenario.description,
        params=scenario.params(quick),
        elapsed_s=elapsed,
        iterations=sim.iterations,
        recomputations=sim.recomputations,
        flows=flows,
        completed=completed,
        terminated=terminated,
        peak_mem_bytes=peak,
    )
    if baseline and not scenario.streaming:
        # the baseline pairs the frozen engine with the frozen models, so
        # speedups measure the whole pre-PR hot path, not just the engine
        base_elapsed, _, base_metrics = _best_of(
            partial(_one_run, NaiveFlowLevelSimulation, scenario, quick,
                    naive_model_for),
            repeat,
        )
        result.baseline_elapsed_s = base_elapsed
        result.baseline_parity = metrics.to_dict() == base_metrics.to_dict()
        if not result.baseline_parity:
            raise ExperimentError(
                f"benchmark {scenario.name!r}: optimized engine diverged "
                "from the naive baseline (metrics mismatch)"
            )
    return result


def run_bench(only: Sequence[str] | None = None, quick: bool = False,
              baseline: bool = True, repeat: int = 1,
              scenarios: Sequence[BenchScenario] | None = None,
              measure_memory: bool = True,
              ) -> list[BenchResult]:
    pool = list(scenarios if scenarios is not None else SCENARIOS)
    if only:
        wanted = set(only)
        known = {s.name for s in pool}
        unknown = wanted - known
        if unknown:
            raise ExperimentError(
                f"unknown benchmark(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        pool = [s for s in pool if s.name in wanted]
    return [
        run_scenario(s, quick=quick, baseline=baseline, repeat=repeat,
                     measure_memory=measure_memory)
        for s in pool
    ]


def write_report(results: Sequence[BenchResult], path: str = DEFAULT_REPORT,
                 quick: bool = False) -> dict:
    """Write ``BENCH_flowsim.json`` and return the report dict."""
    report = {
        "schema": BENCH_SCHEMA,
        "suite": "flowsim",
        "quick": quick,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "benchmarks": [r.to_dict() for r in results],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


DEFAULT_HISTORY = "BENCH_history.jsonl"


def write_history(results: Sequence[BenchResult],
                  path: str = DEFAULT_HISTORY, quick: bool = False) -> dict:
    """Append one timestamped summary row to the bench history JSONL.

    One line per ``repro bench`` invocation (not per benchmark), so the
    file reads as a performance trajectory across PRs: ``git log`` for
    wall times. Returns the row appended.
    """
    row = {
        "schema": BENCH_SCHEMA,
        "suite": "flowsim",
        "quick": quick,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "benchmarks": {
            r.name: {
                "engine": r.engine,
                "elapsed_s": round(r.elapsed_s, 6),
                "events_per_sec": round(r.events_per_sec, 1),
                "flows_per_sec": round(r.flows_per_sec, 1),
                **({"peak_mem_bytes": r.peak_mem_bytes}
                   if r.peak_mem_bytes is not None else {}),
                **({"speedup": round(r.speedup, 3)}
                   if r.speedup is not None else {}),
            }
            for r in results
        },
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    return row
