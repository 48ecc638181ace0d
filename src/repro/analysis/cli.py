"""``python -m repro check [PATH ...]`` — run the repo's invariant linter.

Prints one ``file:line: CODE message`` line per diagnostic. Exit codes:
0 clean, 1 diagnostics found, 2 the analysis itself could not run.
Type checking is not part of it: ``python -m mypy`` reads its targets
from ``mypy.ini``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.core import (
    AnalysisBroken,
    AnalysisContext,
    sort_diagnostics,
)
from repro.analysis.rpl002_hotpath import check


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


def run_check(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths] or None
    try:
        ctx = AnalysisContext.build(find_repo_root(), paths=paths)
        diagnostics = sort_diagnostics(list(check(ctx)))
    except AnalysisBroken as exc:
        print(f"repro check: broken: {exc}", file=sys.stderr)
        return 2
    for diag in diagnostics:
        print(diag.format())
    if diagnostics:
        print(f"repro check: {len(diagnostics)} diagnostic(s)")
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
