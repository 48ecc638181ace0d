"""One benchmark repeat, run in a fresh interpreter by ``run.py``.

Does the set-up, runs the workload's timed operation once (under
cProfile when ``--trace`` is given), checks the outputs, and prints one
JSON object as the last line of its standard output. Everything that is
not the timed operation — checks, digests, attribution — happens after
the clock stops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager, nullcontext

# ``repro`` is imported inside the functions below, never at module
# level: the first import has to happen under main()'s ``import`` span.

#: exact counters: ``collector.stats`` as the public adapters harvest it,
#: summed over the runs the timed operation executed (a cached campaign
#: cell simulated nothing, so its stored counters are not counted), and
#: the campaign cell counts from the runner's per-cell report
COUNTERS = (
    "fluid.iterations", "fluid.allocate_calls", "fluid.stream_batches",
    "fluid.comparator_cache_hits", "fluid.comparator_cache_misses",
    "flows.pauses", "flows.resumes", "sim.events", "sim.timer_pushbacks",
    "sim.compactions", "net.packets_sent", "net.packets_dropped",
    "net.pool_hits", "net.pool_misses",
    "campaign.cells", "campaign.executed", "campaign.cached",
)

#: slack on the FCT floor check, for float rounding in the fluid engine
FCT_EPS = 1e-9


class SpanLog:
    """In-memory runner spans ``{name, start, end, parent, workload}``;
    times are Unix seconds, so spans of different processes line up."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[str] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.time(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "workload": self.workload}
        self.spans.append(record)
        self._open.append(name)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.time()


def _access_rate(topology, host: str, cache: dict) -> float:
    rate = cache.get(host)
    if rate is None:
        rate = min(data["rate_bps"] for _, _, data in
                   topology.graph.edges(host, data=True))
        cache[host] = rate
    return rate


def _fct_violations(collector, topology, cache: dict) -> list[str]:
    """Completed flows that beat size / access-link rate (impossible)."""
    records = collector.completed_records()
    records.extend(getattr(collector, "reservoir", ()))
    bad = []
    for record in records:
        if not record.completed:
            continue
        spec = record.spec
        rate = min(_access_rate(topology, spec.src, cache),
                   _access_rate(topology, spec.dst, cache))
        floor = spec.size_bytes * 8.0 / rate
        if record.fct < floor - FCT_EPS:
            bad.append(f"flow {spec.fid}: fct {record.fct!r} < "
                       f"size/rate {floor!r}")
    return bad


def _digest(collector) -> str:
    from repro.campaign.spec import canonical_json

    text = canonical_json(collector.to_dict())
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(result) -> dict:
    """Checks, counters and simulated statistics of one timed operation.

    An operation is one offered flow (campaign: one cell). It fails when
    the flow is neither completed nor protocol-terminated at the
    horizon, beats its access link, or (campaign) its cell did not come
    back ``ok``. Simulated statistics describe the collectors in hand:
    the one engine run, or the last campaign pass.
    """
    failures: list[str] = []
    pairs = list(result.collectors)
    if result.outcomes is not None:
        topologies: dict = {}
        for outcome in result.outcomes:
            if not outcome.ok:
                failures.append(f"campaign outcome ok: "
                                f"{outcome.spec.describe()}: {outcome.error}")
                continue
            spec = outcome.spec.topology
            if spec not in topologies:
                topologies[spec] = spec.build()
            pairs.append((outcome.collector, topologies[spec]))

    rate_caches: dict[int, dict] = {}
    flows = completed = terminated = unfinished = 0
    deadline_flows = deadline_met = 0
    fct_sum = 0.0
    fcts: list[float] = []
    digests = []
    bad_flows = bad_collectors = 0
    for collector, topology in pairs:
        cache = rate_caches.setdefault(id(topology), {})
        violations = _fct_violations(collector, topology, cache)
        left = collector.unfinished_count()
        if left:
            failures.append(f"sim.unfinished == 0: {left} flow(s) unresolved")
        failures.extend(f"fct >= size/rate: {v}" for v in violations)
        bad_flows += left + len(violations)
        bad_collectors += bool(left or violations)
        flows += len(collector)
        n_done = collector.completed_count()
        completed += n_done
        unfinished += left
        if n_done:
            fct_sum += collector.mean_fct() * n_done
        if hasattr(collector, "fct_sketch"):
            # streaming: accumulators, no per-flow records to pool
            terminated += collector.n_terminated
            deadline_flows += collector.n_deadline
            deadline_met += collector.n_deadline_met
            if n_done:
                fcts.append(collector.fct_percentile(99))
        else:
            for record in collector.all_records():
                terminated += record.terminated
                if record.completed:
                    fcts.append(record.fct)
                if record.spec.has_deadline:
                    deadline_flows += 1
                    deadline_met += record.met_deadline
        digests.append(_digest(collector))

    counters: dict = dict.fromkeys(COUNTERS, 0)
    store_bytes = 0
    tally = result.tally
    if tally is None:
        offered, attempted, failed = flows, flows, bad_flows
        stats = pairs[0][0].stats
    else:
        offered = tally["flows"]
        attempted = tally["campaign.cells"]
        failed = attempted - tally["ok"] + bad_collectors
        stats = tally
        # measured, not exact: entries carry wall-clock floats whose
        # printed length varies by a byte or two between repeats
        store_bytes = sum(
            entry.stat().st_size for entry in os.scandir(result.store_root)
            if entry.name.endswith(".json")
        )
    for name in COUNTERS:
        counters[name] += stats.get(name, 0)
    pool = counters["net.pool_hits"] + counters["net.pool_misses"]
    counters["net.pool_hit_ratio"] = (
        counters["net.pool_hits"] / pool if pool else 0.0)
    counters["net.drop_ratio"] = (
        counters["net.packets_dropped"] / counters["net.packets_sent"]
        if counters["net.packets_sent"] else 0.0)

    from repro.utils.stats import percentile

    p99 = percentile(fcts, 99) if fcts else 0.0
    if len(digests) == 1:
        digest = digests[0]
    else:
        digest = hashlib.sha256("".join(sorted(digests)).encode()).hexdigest()
    return {
        "flows": offered,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "counters": counters,
        "store_bytes": store_bytes,
        "sim": {
            "sim.flows": flows,
            "sim.completed": completed,
            "sim.terminated": terminated,
            "sim.unfinished": unfinished,
            "sim.mean_fct_ms": 1e3 * fct_sum / completed if completed else 0.0,
            "sim.p99_fct_ms": 1e3 * p99,
            "sim.app_throughput": (deadline_met / deadline_flows
                                   if deadline_flows else 0.0),
            "sim.digest": digest,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before spawn")
    parser.add_argument("--store", help="ResultStore root (campaign)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; reports setup_s alone")
    args = parser.parse_args(argv)

    log = SpanLog(args.workload)
    with log.span("import"):
        import repro
        import layers
        import workloads

    operation = workloads.WORKLOADS[args.workload](
        args.seed, args.smoke, args.store, log.span)
    out: dict = {"workload": args.workload, "seed": args.seed,
                 "setup_s": time.time() - args.spawned_at}
    if not args.setup_only:
        profiler = None
        if args.trace:
            import cProfile

            profiler = cProfile.Profile(builtins=False)
        # campaign workloads record one campaign.pass span per pass
        with log.span("engine.run") if args.store is None else nullcontext():
            if profiler is not None:
                profiler.enable()
            started = time.perf_counter()
            result = operation()
            out["wall_s"] = time.perf_counter() - started
            if profiler is not None:
                profiler.disable()
        out.update(summarize(result))
        if profiler is not None:
            traced = layers.attribute(profiler.getstats(),
                                      os.path.dirname(repro.__file__))
            # set-up ran before the profiler started: its two builds are
            # boundary spans all the same, from the runner's own clock
            for span in ("topology.build", "workload.build"):
                mine = [s for s in log.spans if s["name"] == span]
                if mine and not traced["boundaries"][span]["calls"]:
                    traced["boundaries"][span] = {
                        "cum_s": sum(s["end"] - s["start"] for s in mine),
                        "calls": len(mine),
                    }
            out["trace"] = traced
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    out["spans"] = log.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
