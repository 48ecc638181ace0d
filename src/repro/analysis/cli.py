"""``python -m repro check`` — run the repo's invariant linter.

Exit codes: 0 clean, 1 diagnostics found (or mypy errors), 2 the
analysis itself could not run. ``--out FILE`` writes the JSON report
(schema 1) for CI artifact upload; the human-readable ``file:line:
CODE message`` lines always go to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.core import CHECKERS, AnalysisBroken, AnalysisContext
from repro.analysis.diagnostics import render_report, sort_diagnostics
from repro.analysis.mypy_runner import run_mypy


def find_repo_root(start: Path | None = None) -> Path:
    """Nearest ancestor containing ``src/repro`` (falls back to cwd)."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return here


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to analyze (default: src/repro, "
             "examples, benchmarks)",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="write the JSON report (schema 1) to FILE",
    )
    parser.add_argument(
        "--no-mypy", action="store_true",
        help="skip the mypy step even when mypy is installed",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_checkers",
        help="list the registered checkers and exit",
    )


def run_check(args: argparse.Namespace) -> int:
    # ensure all checker modules have registered themselves
    import repro.analysis  # noqa: F401

    if args.list_checkers:
        for code in sorted(CHECKERS):
            title, _ = CHECKERS[code]
            print(f"{code}  {title}")
        return 0

    root = find_repo_root()
    paths = [Path(p) for p in args.paths] or None
    try:
        ctx = AnalysisContext.build(root, paths=paths)
        diagnostics = []
        for code in sorted(CHECKERS):
            _, check = CHECKERS[code]
            diagnostics.extend(check(ctx))
    except AnalysisBroken as exc:
        print(f"repro check: broken: {exc}", file=sys.stderr)
        return 2

    diagnostics = sort_diagnostics(diagnostics)
    for diag in diagnostics:
        print(diag.format())

    mypy_result = None
    if not args.no_mypy:
        mypy_result = run_mypy(root)
        if mypy_result["status"] == "skipped":
            print(f"mypy: skipped ({mypy_result['reason']})")
        elif mypy_result["status"] == "clean":
            print("mypy: clean")
        else:
            for line in mypy_result.get("output", []):
                print(line)
            print(f"mypy: {mypy_result['status']} "
                  f"({mypy_result.get('n_errors', '?')} error(s))")

    if args.out:
        report = render_report(diagnostics, mypy=mypy_result)
        out_path = Path(args.out)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"report -> {out_path}")

    n = len(diagnostics)
    mypy_bad = mypy_result is not None and \
        mypy_result["status"] in ("errors", "broken")
    if n or mypy_bad:
        print(f"repro check: {n} diagnostic(s)")
        return 1
    print("repro check: clean")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="AST-based invariant linter for the repro codebase",
    )
    add_check_arguments(parser)
    return run_check(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
