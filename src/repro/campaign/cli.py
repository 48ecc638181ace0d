"""``python -m repro`` — drive figure reproductions and scenario sweeps.

Subcommands::

    repro run-fig N [--jobs J] [--cache DIR | --no-cache] [--dry-run]
        Reproduce every panel of paper figure N at reduced scale. Figures
        are declared :class:`~repro.experiments.api.Experiment`s resolved
        from the experiment registry and routed through a (parallel,
        cached) campaign runner.

    repro run-spec FILE.json [--jobs J] [--dry-run] [--out PATH]
        Run a user-authored experiment file — scenario grids, search
        directives, reducers — through the same campaign machinery.
        ``--dry-run`` validates the schema and every registry reference
        without executing a scenario.

    repro sweep [--protocols ...] [--patterns ...] [--jobs J] ...
        Run a Fig-4-style protocol x pattern x seed grid through the
        campaign runner and print one summary row per scenario.

    repro ls [--cache DIR]
        list the cached scenario results.

    repro validate [--quick] [--only FAMILY ...] [--jobs J] ...
        Run matched packet/fluid scenario pairs through the campaign
        runner, assert cross-engine agreement within declared tolerances,
        and write VALIDATE_cross_engine.json. Fails (exit 1) on tolerance
        violations — never on timing.

    repro report [STORE] [--validate PATH] [--out PATH]
        Summarize a result store: cache hit rate, slowest cells, run
        counter aggregates, and (when a validation report is present)
        the tolerance-margin table. Crashes fail; timings never do.

    repro check [PATH ...]
        Run the AST-based invariant linter (RPL002 hot-path purity) over
        the repo's own source, or over the files and directories given.
        Exit 1 on any diagnostic, 2 when the analysis cannot run.

Global flags: ``-v``/``-vv`` raise logging to INFO/DEBUG, ``-q`` mutes
everything below ERROR (they precede the subcommand: ``repro -v sweep``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from collections.abc import Sequence

from repro.campaign.runner import CampaignRunner, ScenarioOutcome
from repro.campaign.spec import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.campaign.store import ResultStore
from repro.campaign.context import use_runner
from repro.errors import CampaignError, ReproError
from repro.experiments.api import (
    Experiment,
    Panel,
    figure_numbers,
    get_experiment,
    load_experiment_file,
    run_panel,
    validate_experiment,
)

DEFAULT_CACHE = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")

SWEEP_PATTERNS = ("Aggregation", "Stride(1)")
SWEEP_PROTOCOLS = ("PDQ(Full)", "RCP", "TCP")


def _print_progress(outcome: ScenarioOutcome, done: int, total: int) -> None:
    status = "cached" if outcome.cached else (
        "ok" if outcome.ok else f"FAILED ({outcome.error})"
    )
    timing = "" if outcome.cached else f" {outcome.elapsed:.2f}s"
    print(f"  [{done}/{total}] {outcome.spec.describe()}: {status}{timing}",
          flush=True)


def _make_runner(args: argparse.Namespace, verbose: bool) -> CampaignRunner:
    store = None
    # args.cache is None where caching is opt-in (validate: a stale
    # cache would vouch for engine code that never ran)
    if not getattr(args, "no_cache", False) and args.cache:
        store = ResultStore(args.cache)
    return CampaignRunner(
        max_workers=args.jobs,
        store=store,
        timeout=args.timeout,
        retries=args.retries,
        progress=_print_progress if verbose else None,
        trace_dir=getattr(args, "trace_dir", None),
    )


def _existing_store(path: str) -> ResultStore:
    """The store a read-only command (``ls``, ``report``) inspects.
    ``ResultStore`` creates its root, which is right for commands that
    write results and wrong for ones that only read: a mistyped path
    must fail, not leave an empty directory behind."""
    if not os.path.isdir(path):
        raise CampaignError(f"no result store at {path}")
    return ResultStore(path)


# -- run-fig ------------------------------------------------------------------------


def sweep_panel(
    protocols: Sequence[str] = SWEEP_PROTOCOLS,
    patterns: Sequence[str] = SWEEP_PATTERNS,
    n_flows: int = 6,
    seeds: Sequence[int] = (1,),
    mean_deadline: float | None = None,
    sim_deadline: float = 2.0,
) -> Panel:
    """The default multi-protocol Fig-4-style sweep, as a declared
    :class:`~repro.experiments.api.Panel` (the same surface figures and
    user spec files use)."""
    base = ScenarioSpec(
        protocol=protocols[0],
        topology=TopologySpec("single_rooted"),
        workload=WorkloadSpec("fig4.pattern", {
            "pattern": patterns[0],
            "n_flows": n_flows,
            "mean_deadline": mean_deadline,
        }),
        engine="packet",
        sim_deadline=sim_deadline,
    )
    return Panel(
        name="sweep",
        title="protocol x pattern x seed sweep",
        base=base,
        axes=(("workload.pattern", tuple(patterns)),
              ("protocol", tuple(protocols)),
              ("seed", tuple(seeds))),
        reducer="table",
        reducer_params={
            "metrics": ["mean_fct", "application_throughput",
                        "completion_fraction"],
        },
    )


def _printable(value):
    """Make a panel result JSON-serializable: composite-axis cells key
    result dicts by *tuples*, which ``json.dumps`` rejects (``default=``
    only applies to values, not keys)."""
    if isinstance(value, dict):
        return {
            k if isinstance(k, str) else str(k): _printable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_printable(v) for v in value]
    return value


def _run_panels(panels: Sequence[Panel],
                args: argparse.Namespace) -> dict:
    """Execute panels through a CLI-configured runner, printing each
    panel's JSON result; returns {panel name: printable result}."""
    results = {}
    with _make_runner(args, verbose=True) as runner:
        for panel in panels:
            print(f"== {panel.name} ==", flush=True)
            started = time.perf_counter()
            with use_runner(runner):
                results[panel.name] = _printable(run_panel(panel))
            elapsed = time.perf_counter() - started
            print(json.dumps(results[panel.name], indent=2, default=str))
            print(f"-- {panel.name} done in {elapsed:.1f}s", flush=True)
    return results


def _run_declared(experiment: Experiment,
                  args: argparse.Namespace) -> dict | None:
    """Check a declared experiment and print its key line; then list its
    panels (``--dry-run``, returns None) or run them (returns results)."""
    # resolve every registry reference (topologies, workloads, engines,
    # reducers, metrics) before running anything
    n_scenarios = validate_experiment(experiment)
    title = f" — {experiment.title}" if experiment.title else ""
    print(f"experiment {experiment.name}{title} "
          f"[key {experiment.key[:12]}]")
    if not args.dry_run:
        return _run_panels(experiment.panels, args)
    for panel in experiment.panels:
        if panel.kind == "search":
            detail = (f"search over {panel.search.axis} x "
                      f"{len(panel.cells())} cell(s), "
                      f"reducer {panel.reducer or 'table'}")
        else:
            detail = (f"{len(panel.expand())} scenario(s), "
                      f"reducer {panel.reducer or 'table'}")
        print(f"  {panel.name} [{panel.kind}]: {detail}")
    print(f"dry run: no scenarios executed "
          f"({n_scenarios} grid scenario(s) declared)")
    return None


def _cmd_run_fig(args: argparse.Namespace) -> int:
    if args.figure not in figure_numbers():
        known = ", ".join(str(n) for n in figure_numbers())
        print(f"unknown figure {args.figure}; known figures: {known}",
              file=sys.stderr)
        return 2
    _run_declared(get_experiment(f"fig{args.figure}"), args)
    return 0


# -- run-spec -----------------------------------------------------------------------


def _cmd_run_spec(args: argparse.Namespace) -> int:
    experiment = load_experiment_file(args.file)
    results = _run_declared(experiment, args)
    if results is not None and args.out:
        payload = {
            "schema": 1,
            "experiment": experiment.name,
            "title": experiment.title,
            "key": experiment.key,
            "results": results,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


# -- sweep --------------------------------------------------------------------------


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.tables import format_table
    from repro.units import MSEC

    mean_deadline = (
        args.deadline_ms * MSEC if args.deadline_ms is not None else None
    )
    specs = sweep_panel(
        protocols=args.protocols,
        patterns=args.patterns,
        n_flows=args.flows,
        seeds=args.seeds,
        mean_deadline=mean_deadline,
        sim_deadline=args.sim_deadline,
    ).expand()
    if args.dry_run:
        print(f"sweep: {len(specs)} scenario(s)")
        for spec in specs:
            print(f"  {spec.key[:12]}  {spec.describe()}")
        print("dry run: no scenarios executed")
        return 0
    with _make_runner(args, verbose=True) as runner:
        result = runner.run(specs)
    rows = []
    for outcome in result.outcomes:
        spec = outcome.spec
        if outcome.ok:
            from repro.metrics.summary import SummaryStats

            summary = SummaryStats.from_collector(outcome.collector)
            mean_fct = (
                f"{summary.mean_fct * 1e3:.3f}" if summary.mean_fct else "-"
            )
            row_status = "cached" if outcome.cached else "ran"
            rows.append([
                spec.workload.params.get("pattern", spec.workload.kind),
                spec.protocol, spec.seed, summary.n_completed,
                summary.n_flows, mean_fct, row_status,
            ])
        else:
            rows.append([
                spec.workload.params.get("pattern", spec.workload.kind),
                spec.protocol, spec.seed, "-", "-", "-",
                f"FAILED: {outcome.error}",
            ])
    print(format_table(
        ["pattern", "protocol", "seed", "done", "flows", "mean_fct_ms",
         "status"],
        rows, title="sweep results",
    ))
    print(
        f"executed={result.executed_count} cached={result.cached_count} "
        f"failed={len(result.failures)}"
    )
    return 1 if result.failures else 0


# -- ls -----------------------------------------------------------------------------


def _cmd_ls(args: argparse.Namespace) -> int:
    from repro.experiments.tables import format_table

    store = _existing_store(args.cache)
    entries = store.entries()
    if not entries:
        print(f"no cached results under {store.root}")
        return 0
    rows = []
    for entry in entries:
        summary = entry.summary
        mean_fct = summary.get("mean_fct")
        rows.append([
            entry.key[:12],
            entry.describe(),
            summary.get("n_completed", "-"),
            summary.get("n_flows", "-"),
            f"{mean_fct * 1e3:.3f}" if mean_fct else "-",
            f"{entry.elapsed:.2f}",
        ])
    print(format_table(
        ["key", "scenario", "done", "flows", "mean_fct_ms", "run_s"],
        rows, title=f"{len(entries)} cached result(s) under {store.root}",
    ))
    return 0


# -- validate -----------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.tables import format_table
    from repro.validate import (
        default_pairs,
        run_validation,
        select_pairs,
        write_report,
    )

    pairs = select_pairs(default_pairs(quick=args.quick), args.only)
    if args.list:
        for pair in pairs:
            tol = pair.tolerance
            print(f"  {pair.name}: fct_rtol={tol.fct_rtol:.2f} "
                  f"app_atol={tol.app_tput_atol:.2f}")
        return 0
    if args.dry_run:
        print(f"validate: {len(pairs)} pair(s), "
              f"{2 * len(pairs)} scenario(s)")
        for pair in pairs:
            print(f"  {pair.packet.key[:12]}/{pair.fluid.key[:12]}  "
                  f"{pair.name}")
        print("dry run: no scenarios executed")
        return 0
    with _make_runner(args, verbose=True) as runner:
        with use_runner(runner):
            report = run_validation(pairs=pairs, quick=args.quick)
    rows = []
    for outcome in report.outcomes:
        if outcome.error:
            rows.append([outcome.name, outcome.protocol, "-", "-",
                         f"ERROR: {outcome.error}"])
            continue
        fct = next((c for c in outcome.checks if c.name == "mean_fct"), None)
        fct_cell = (
            f"{fct.measured:.3f}/{fct.limit:.2f}"
            if fct and fct.measured is not None else "-"
        )
        app = next(
            (c for c in outcome.checks
             if c.name == "application_throughput"), None,
        )
        app_cell = f"{app.measured:.3f}/{app.limit:.2f}" if app else "-"
        status = "ok" if outcome.ok else "FAIL: " + ", ".join(
            c.name for c in outcome.failures()
        )
        rows.append([outcome.name, outcome.protocol, fct_cell, app_cell,
                     status])
    print(format_table(
        ["pair", "protocol", "fct_gap/tol", "app_gap/tol", "status"],
        rows,
        title=(f"cross-engine validation "
               f"({'quick' if args.quick else 'full'} grid)"),
    ))
    payload = write_report(report, path=args.out)
    print(f"wrote {args.out} ({payload['n_pairs']} pair(s), "
          f"{payload['n_failed']} failed, {report.elapsed_s:.1f}s simulated"
          f" work)")
    if not report.ok:
        for outcome in report.failures():
            detail = outcome.error or "; ".join(
                f"{c.name}: {c.detail}" for c in outcome.failures()
            )
            print(f"TOLERANCE VIOLATION {outcome.name}: {detail}",
                  file=sys.stderr)
        return 1
    return 0


# -- report -------------------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.tables import format_table
    from repro.obs.report import build_report, write_report

    store = _existing_store(args.store)
    report = build_report(store, validate_path=args.validate)

    campaign = report["campaign"]
    hit_rate = campaign["cache_hit_rate"]
    print(f"store {report['store']}: {report['n_entries']} entrie(s), "
          f"{campaign['runs']} logged run(s)")
    print(f"  executed={campaign['executed']} cached={campaign['cached']} "
          f"failed={campaign['failed']} retries={campaign['retries']} "
          f"workers={len(campaign['workers'])} "
          f"wall={campaign['wall_time_s']:.2f}s "
          f"hit_rate={'-' if hit_rate is None else f'{hit_rate:.0%}'}")

    if report["slowest"]:
        rows = [[r["key"][:12], r["scenario"], f"{r['elapsed_s']:.3f}"]
                for r in report["slowest"]]
        print(format_table(["key", "scenario", "wall_s"], rows,
                           title="slowest cells"))
    if report["counters"]:
        rows = [[name, f"{value:,}"]
                for name, value in report["counters"].items()]
        print(format_table(["counter", "total"], rows,
                           title="run counters (summed over store)"))
    validation = report["validation"]
    if validation is not None:
        rows = [
            [m["pair"], m["check"], f"{m['measured']:.4g}",
             f"{m['limit']:.4g}", f"{m['margin']:.0%}",
             "ok" if m["ok"] else "FAIL"]
            for m in validation["tightest"]
        ]
        status = ("ok" if validation["ok"]
                  else f"{validation['n_failed']} pair(s) FAILED")
        print(format_table(
            ["pair", "check", "measured", "limit", "budget used", "status"],
            rows,
            title=(f"validation margins ({validation['path']}: "
                   f"{validation['n_pairs']} pair(s), {status})"),
        ))
    elif args.validate:
        print(f"(no validation report at {args.validate})")

    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    return 0


# -- entry point --------------------------------------------------------------------


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=2,
                        help="worker processes (0/1 = run in-process)")
    parser.add_argument("--cache", default=DEFAULT_CACHE,
                        help="result-store directory (default %(default)s)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the result store")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-scenario wall-clock budget in seconds")
    parser.add_argument("--retries", type=int, default=0,
                        help="extra attempts for failed scenarios")
    parser.add_argument("--dry-run", action="store_true",
                        help="print what would run without executing")
    parser.add_argument("--trace-dir", default=None,
                        help="export per-flow lifecycle traces (JSONL, one "
                             "file per traced scenario) into this directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PDQ reproduction campaign runner (SIGCOMM 2012).",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log INFO (-v) or DEBUG (-vv) to stderr")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="log only errors")
    sub = parser.add_subparsers(dest="command", required=True)

    run_fig = sub.add_parser(
        "run-fig", help="reproduce one paper figure at reduced scale"
    )
    run_fig.add_argument("figure", type=int)
    _add_runner_args(run_fig)
    run_fig.set_defaults(func=_cmd_run_fig)

    run_spec = sub.add_parser(
        "run-spec",
        help="run a user-authored JSON experiment file "
             "(see examples/specs/)",
    )
    run_spec.add_argument("file", help="experiment spec (JSON)")
    run_spec.add_argument("--out", default=None,
                          help="also write results as JSON to this path")
    _add_runner_args(run_spec)
    run_spec.set_defaults(func=_cmd_run_spec)

    sweep = sub.add_parser(
        "sweep", help="run a protocol x pattern x seed scenario grid"
    )
    sweep.add_argument("--protocols", nargs="+", default=list(SWEEP_PROTOCOLS))
    sweep.add_argument("--patterns", nargs="+", default=list(SWEEP_PATTERNS))
    sweep.add_argument("--flows", type=int, default=6,
                       help="flows per scenario")
    sweep.add_argument("--seeds", nargs="+", type=int, default=[1])
    sweep.add_argument("--deadline-ms", type=float, default=None,
                       help="mean flow deadline (ms); omit for no deadlines")
    sweep.add_argument("--sim-deadline", type=float, default=2.0,
                       help="simulated-time horizon per scenario (s)")
    _add_runner_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    ls = sub.add_parser("ls", help="list cached scenario results")
    ls.add_argument("--cache", default=DEFAULT_CACHE)
    ls.set_defaults(func=_cmd_ls)

    report = sub.add_parser(
        "report",
        help="summarize a result store: cache hits, slow cells, counters",
    )
    report.add_argument("store", nargs="?", default=DEFAULT_CACHE,
                        help="result-store directory (default %(default)s)")
    report.add_argument("--validate", default="VALIDATE_cross_engine.json",
                        help="validation report whose tolerance margins are "
                             "folded in when present (default %(default)s)")
    report.add_argument("--out", default=None,
                        help="also write the report as JSON to this path")
    report.set_defaults(func=_cmd_report)

    validate = sub.add_parser(
        "validate",
        help="check packet-vs-fluid engine agreement on matched scenarios",
    )
    validate.add_argument("--quick", action="store_true",
                          help="reduced pair grid (CI smoke)")
    validate.add_argument("--only", nargs="+", default=None,
                          help="pair families or name substrings "
                               "(edge, fig3, fig5, a protocol name, ...)")
    validate.add_argument("--out", default="VALIDATE_cross_engine.json",
                          help="report path (default %(default)s)")
    validate.add_argument("--list", action="store_true",
                          help="list pairs and their tolerances, then exit")
    _add_runner_args(validate)
    # caching is opt-in for validation: a warm cache would report
    # "agreement" computed by whatever engine code produced the entry,
    # not by the code under test (results are keyed by spec content
    # only). --cache DIR still opts in for interactive iteration.
    validate.set_defaults(func=_cmd_validate, cache=None)

    check = sub.add_parser(
        "check",
        help="run the AST invariant linter (RPL002 hot-path purity)",
    )
    from repro.analysis.cli import add_check_arguments

    add_check_arguments(check)
    check.set_defaults(func=_cmd_check)

    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_check

    return run_check(args)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.obs.log import setup_cli_logging

    setup_cli_logging(-1 if args.quiet else args.verbose)
    try:
        return args.func(args)
    except CampaignError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away (e.g. `repro ls | head`); exit quietly
        with contextlib.suppress(OSError):
            sys.stdout.close()
        return 0
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
