"""The benchmark of record: one command, six workloads, every metric.

    python3 benchmarks/perf/run.py [--seed N] [--repeats R] [--only W]
                                   [--out F] [--smoke]
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

The first form runs every workload of ``BENCHMARK.json`` to completion:
R timed repeats, each in a fresh child interpreter launched one after
the other by this one process (``PYTHONHASHSEED=0``, no threads, no
worker pool), then one traced repeat for the per-layer numbers. It
prints every metric by name with its unit, checks the outputs, writes
the report and ``out/trace-<workload>.json``, and exits non-zero if any
check failed. The second form compares two reports. The third is the
driver's protocol: one workload, a result object on the last line.

All end-to-end metrics are *host* measurements of a batch simulator:
work completed per host second at a fixed input size. Simulated
statistics (``sim.*``) ride along so that a simulator-only speed-up can
be shown to leave them identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
REPORT_SCHEMA = 1

#: campaign workloads take a ResultStore directory: False = each repeat
#: gets an empty one, True = all repeats share one that a cold pass
#: filled before the first of them
STORE_FIXTURE = {"campaign-fig3-cold": False, "campaign-fig3-warm": True}

DEFAULT_REPEATS = 5
#: driver protocol: repeats per run, however short ``--seconds`` is —
#: the median of three survives one disturbed repeat, of two does not
MIN_REPEATS = 3
#: set-up samples per measurement (timed repeats count; the rest are
#: set-up-only children)
SETUP_SAMPLES = 5
#: setup_s may also move by this much before it counts, whatever the ratio
SETUP_ABS_BOUND_S = 0.15
CHILD_TIMEOUT_S = 150

#: reported and compared beside BENCHMARK.json's end-to-end metrics; it
#: cannot be one of them because the driver refuses a metric that is 0
FAILED_RATIO = {"name": "failed_ratio", "unit": "ratio", "better": "lower",
                "bound": 0.0}


class ChildError(Exception):
    """A child interpreter crashed, timed out or printed no result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- children -----------------------------------------------------------------------


def spawn(workload: str, seed: int, *, smoke: bool, trace: bool = False,
          setup_only: bool = False, store: Path | None = None) -> dict:
    """Run one child to completion and return its result object."""
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    if store is not None:
        command += ["--store", str(store)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    command += ["--spawned-at", repr(time.time())]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{workload}: child timed out after "
                         f"{CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise ChildError(f"{workload}: child exited {done.returncode}\n"
                         f"{done.stderr.strip()}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise ChildError(f"{workload}: child printed no result") from exc


# -- one workload -------------------------------------------------------------------


def _bound_exceeded(metric: dict, gap: float, base: float) -> bool:
    """Is ``gap`` more than the metric's bound, taken on ``base``?"""
    if metric["name"] == "failed_ratio":
        return gap > 0
    allowed = metric["bound"] * abs(base)
    if metric["name"] == "setup_s":
        allowed = max(allowed, SETUP_ABS_BOUND_S)
    return gap > allowed


def _summary(metric: dict, values: list[float]) -> dict:
    """Median, range and sample count of one metric's repeats. ``noisy``
    when the distance between the quartiles exceeds the bound — the
    spread the driver and the guides use, which one disturbed repeat in
    five does not trip the way max - min would."""
    median = statistics.median(values)
    spread = 0.0
    if len(values) > 1:
        quartiles = statistics.quantiles(values, n=4)
        spread = quartiles[2] - quartiles[0]
    return {
        "unit": metric["unit"], "median": median, "min": min(values),
        "max": max(values), "n": len(values), "values": values,
        "noisy": _bound_exceeded(metric, spread, median),
    }


def _differing(runs: list[dict]) -> list[str]:
    """Counters, call counts and sim.* values that are not identical
    across the repeats of one invocation (they must be: same seed, same
    inputs, a deterministic simulator)."""
    out = []
    first = runs[0]
    for block in ("counters", "sim"):
        for name, value in first[block].items():
            seen = [run[block].get(name) for run in runs]
            if any(other != value for other in seen):
                out.append(f"{name}: {seen}")
    return out


def measure(workload: str, seed: int, spec: dict, *, smoke: bool,
            min_repeats: int, min_seconds: float, setup_samples: int,
            traced: bool) -> dict:
    """Timed repeats, set-up samples and (optionally) the traced repeat
    of one workload, folded into the report entry for it."""
    end_to_end = spec["end_to_end"] + [FAILED_RATIO]
    entry: dict = {"correct": False, "attempted": 1, "failed": 1,
                   "failures": [], "fixture_s": None}
    spans: list[dict] = []
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="store-", dir=OUT))
    empties = itertools.count()

    def store_for() -> Path | None:
        if workload not in STORE_FIXTURE:
            return None
        if STORE_FIXTURE[workload]:
            return scratch / "populated"
        return scratch / f"empty-{next(empties)}"

    try:
        if STORE_FIXTURE.get(workload):
            started = time.time()
            spawn("campaign-fig3-cold", seed, smoke=smoke,
                  store=scratch / "populated")
            entry["fixture_s"] = time.time() - started
            spans.append({"name": "store.populate", "start": started,
                          "end": time.time(), "parent": None,
                          "workload": workload})
        runs: list[dict] = []
        while (len(runs) < min_repeats
               or sum(run["wall_s"] for run in runs) < min_seconds):
            runs.append(spawn(workload, seed, smoke=smoke, store=store_for()))
        setups = [run["setup_s"] for run in runs]
        while len(setups) < setup_samples:
            setups.append(spawn(workload, seed, smoke=smoke, setup_only=True,
                                store=store_for())["setup_s"])
        traced_run = (spawn(workload, seed, smoke=smoke, trace=True,
                            store=store_for()) if traced else None)
    except ChildError as exc:
        # an exception or timeout fails every operation of the workload
        entry["failures"].append(str(exc))
        return entry
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    every = runs + ([traced_run] if traced_run else [])
    entry["failures"] = [f for run in every for f in run["failures"]]
    differing = _differing(every)
    entry["failures"] += [f"identical across repeats: {d}" for d in differing]
    entry["attempted"] = sum(run["attempted"] for run in runs)
    entry["failed"] = (entry["attempted"] if differing
                       else sum(run["failed"] for run in runs))
    entry["correct"] = not entry["failures"] and entry["failed"] == 0
    entry["flows"] = runs[0]["flows"]
    entry["sim"] = runs[0]["sim"]
    entry["counters"] = runs[0]["counters"]

    samples = {
        "wall_s": [run["wall_s"] for run in runs],
        "flows_per_s": [run["flows"] / run["wall_s"] for run in runs],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
        "setup_s": setups,
        "failed_ratio": [run["failed"] / run["attempted"] for run in runs],
    }
    entry["end_to_end"] = {
        metric["name"]: _summary(metric, samples[metric["name"]])
        for metric in end_to_end
    }
    if traced_run is not None:
        wall = entry["end_to_end"]["wall_s"]["median"]
        entry["per_layer"] = per_layer(runs[0], traced_run, wall)
        write_trace(workload, seed, spans + traced_run["spans"],
                    traced_run["trace"])
    return entry


def per_layer(run: dict, traced_run: dict, wall_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, by name. ``None`` marks a
    value that does not exist: a boundary function a refactor renamed,
    or a per-event cost on a workload that simulates no events."""
    trace = traced_run["trace"]
    out: dict = {f"{g}.self_s": v for g, v in trace["self_s"].items()}
    for name, span in trace["boundaries"].items():
        out[f"{name}.cum_s"] = span["cum_s"]
        out[f"{name}.calls"] = span["calls"]
    out.update(run["counters"])
    out["campaign.store_bytes"] = run["store_bytes"]
    events = (run["counters"]["sim.events"]
              or run["counters"]["fluid.iterations"])
    out["host_us_per_event"] = 1e6 * wall_s / events if events else None
    out["host_us_per_flow"] = 1e6 * wall_s / run["flows"]
    out.update({k: v for k, v in run["sim"].items() if k != "sim.digest"})
    out["trace.total_s"] = trace["total_s"]
    out["trace.overhead_ratio"] = traced_run["wall_s"] / wall_s
    return out


def write_trace(workload: str, seed: int, spans: list[dict],
                profile: dict) -> Path:
    path = OUT / f"trace-{workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": spans,
                   "profile": profile}, fh, indent=1)
        fh.write("\n")
    return path


# -- printing -----------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_entry(name: str, entry: dict, spec: dict) -> None:
    verdict = "ok" if entry["correct"] else "FAILED"
    print(f"\n== {name}: {verdict} — attempted {entry['attempted']}, "
          f"failed {entry['failed']}")
    for failure in entry["failures"]:
        print(f"   FAILED {name}: {failure}")
    if "end_to_end" not in entry:
        return
    if entry["fixture_s"] is not None:
        print(f"   fixture_s (store population, once) "
              f"{entry['fixture_s']:.3f} s")
    for metric, s in entry["end_to_end"].items():
        print(f"   {metric:<14} median {_fmt(s['median']):>10} {s['unit']:<8}"
              f" min {_fmt(s['min'])} max {_fmt(s['max'])} n={s['n']}"
              f"{'  noisy' if s['noisy'] else ''}")
    print(f"   sim.digest     {entry['sim']['sim.digest']}")
    layers = entry.get("per_layer")
    if layers is None:
        return
    total = layers["trace.total_s"]
    print(f"   per layer (one traced repeat, {total:.3f} s profiled):")
    for metric in spec["per_layer"]:
        value = layers[metric["name"]]
        share = (f"  {100 * value / total:5.1f} %"
                 if metric["name"].endswith(".self_s") and total else "")
        print(f"     {metric['name']:<40} {_fmt(value):>12} "
              f"{metric['unit']}{share}")


# -- host ---------------------------------------------------------------------------


def calibrate() -> float:
    """Seconds this host takes for a fixed pure-Python loop (~0.6 s on
    the sizing host): the figure to put next to any cross-host row."""
    started = time.perf_counter()
    acc = 0
    for i in range(7_500_000):
        acc += i * i % 7
    return time.perf_counter() - started


def host_block() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "calib_s": calibrate(),
    }


# -- modes --------------------------------------------------------------------------


def run_all(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.only:
        unknown = sorted(set(args.only) - set(names))
        if unknown:
            print(f"unknown workload(s) {unknown}; known: {names}",
                  file=sys.stderr)
            return 2
        names = [n for n in names if n in args.only]
    repeats = 1 if args.smoke else args.repeats
    host = host_block()
    print(f"host: {json.dumps(host)}")
    report = {"schema": REPORT_SCHEMA, "claim": None, "smoke": args.smoke,
              "seed": args.seed, "repeats": repeats, "host": host,
              "workloads": {}}
    for name in names:
        entry = measure(name, args.seed, spec, smoke=args.smoke,
                        min_repeats=repeats, min_seconds=0.0,
                        setup_samples=0, traced=True)
        report["workloads"][name] = entry
        print_entry(name, entry, spec)
    out = Path(args.out) if args.out else OUT / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    bad = [n for n, e in report["workloads"].items() if not e["correct"]]
    print(f"\nreport: {out}")
    if bad:
        print(f"FAILED: {', '.join(bad)}")
    return 1 if bad else 0


def run_contract(args, spec: dict) -> int:
    """The driver's protocol: one workload, one result object last."""
    traced = args.trace == 1
    entry = measure(
        args.workload, args.seed, spec, smoke=args.smoke,
        min_repeats=1 if traced else MIN_REPEATS,
        min_seconds=0.0 if traced else args.seconds,
        setup_samples=0 if traced else SETUP_SAMPLES, traced=traced,
    )
    print_entry(args.workload, entry, spec)
    if "end_to_end" not in entry:
        return 1
    if traced:
        # the protocol wants numbers: a value that does not exist is 0
        metrics = {m["name"]: {"value": entry["per_layer"][m["name"]] or 0,
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": entry["end_to_end"][m["name"]]
                               ["median"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": entry["correct"],
                      "attempted": entry["attempted"],
                      "failed": entry["failed"], "metrics": metrics}))
    return 0 if entry["correct"] else 1


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Per workload x end-to-end metric: both medians, the ratio B/A and
    a verdict from the bounds; then every exact value that differs."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    print(f"A = {path_a} (calib_s {a['host']['calib_s']:.3f})")
    print(f"B = {path_b} (calib_s {b['host']['calib_s']:.3f})")
    metrics = spec["end_to_end"] + [FAILED_RATIO]
    worse = 0
    exact_diffs = []
    for name in (n for n in a["workloads"] if n in b["workloads"]):
        wa, wb = a["workloads"][name], b["workloads"][name]
        if "end_to_end" not in wa or "end_to_end" not in wb:
            print(f"{name}: no measurement on one side — worse")
            worse += 1
            continue
        for metric in metrics:
            sa = wa["end_to_end"][metric["name"]]
            sb = wb["end_to_end"][metric["name"]]
            verdict = _verdict(metric, sa, sb)
            worse += verdict == "worse"
            ratio = (f"B/A = {sb['median'] / sa['median']:.4f}"
                     if sa["median"] else "B/A = n/a (A is 0)")
            print(f"{name:<20} {metric['name']:<13} "
                  f"A {_fmt(sa['median']):>10} B {_fmt(sb['median']):>10} "
                  f"{metric['unit']:<8} {ratio:<18} {verdict}")
        exact_a = {**wa["counters"], **wa["sim"], **_calls(wa)}
        exact_b = {**wb["counters"], **wb["sim"], **_calls(wb)}
        exact_diffs += [
            f"{name} {key}: A {exact_a.get(key)!r} B {exact_b.get(key)!r}"
            for key in sorted(set(exact_a) | set(exact_b))
            if exact_a.get(key) != exact_b.get(key)
        ]
    print(f"\nexact values that differ (counters, .calls, sim.*): "
          f"{len(exact_diffs)}")
    for line in exact_diffs:
        print(f"  {line}")
    return 1 if worse else 0


def _calls(entry: dict) -> dict:
    return {k: v for k, v in entry.get("per_layer", {}).items()
            if k.endswith(".calls")}


def _verdict(metric: dict, a: dict, b: dict) -> str:
    """``same | better | worse | unresolved`` for B against base A."""
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if (a["noisy"] or b["noisy"]) and overlap:
        return "unresolved"
    if not _bound_exceeded(metric, abs(b["median"] - a["median"]),
                           a["median"]):
        return "same"
    b_is_lower = b["median"] < a["median"]
    return "better" if b_is_lower == (metric["better"] == "lower") else "worse"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="timed repeats per workload (default 5)")
    parser.add_argument("--only", action="append", metavar="W",
                        help="run only this workload (repeatable)")
    parser.add_argument("--out", metavar="F",
                        help="report path (default out/report.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload scaled to < 1 s, 1 repeat")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--workload", help="driver protocol: one workload")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="driver protocol: keep repeating until this "
                        "much timed operation has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver protocol: 1 = per-layer metrics")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.workload:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            parser.error(f"unknown workload {args.workload!r}")
        return run_contract(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
