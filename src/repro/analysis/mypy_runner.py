"""Gated mypy integration for ``repro check``.

The type gate is part of the same entry point as the AST checkers, but
mypy is an *optional* dependency: CI installs it, developer containers
may not. When mypy is importable it runs over the strict-typed modules
declared in ``mypy.ini``; when absent the step reports ``skipped`` and
the check result is unaffected. The AST checkers never depend on it.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from typing import Any

#: targets mirrored from mypy.ini [mypy] files= — kept here so a
#: `repro check` run and a bare `mypy` run cover the same set
MYPY_TARGETS = (
    "src/repro/events",
    "src/repro/net",
    "src/repro/campaign/spec.py",
    "src/repro/campaign/store.py",
    "src/repro/obs/stats.py",
    "src/repro/flowsim/pdq_model.py",
    "src/repro/flowsim/rcp_model.py",
    "src/repro/flowsim/certify.py",
    "src/repro/workload/open_system.py",
    "src/repro/workload/stream.py",
    "src/repro/metrics/streaming.py",
    "src/repro/utils/sketch.py",
    "src/repro/topology/graph.py",
    "src/repro/topology/base.py",
)


def mypy_available() -> bool:
    try:
        import mypy.api  # noqa: F401
    except ImportError:
        return False
    return True


def run_mypy(root: Path) -> dict[str, Any]:
    """Run mypy (if available) and fold the result into report shape:
    ``{"status": "clean"|"errors"|"skipped"|"broken", ...}``."""
    config = root / "mypy.ini"
    if not mypy_available():
        return {
            "status": "skipped",
            "reason": "mypy is not installed in this environment",
        }
    if not config.is_file():
        return {"status": "skipped", "reason": "no mypy.ini at repo root"}
    cmd = [sys.executable, "-m", "mypy", "--config-file", str(config),
           *MYPY_TARGETS]
    try:
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, timeout=600,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"status": "broken", "reason": str(exc)}
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode == 0:
        return {"status": "clean", "n_errors": 0, "output": lines[-3:]}
    # mypy exits 1 on type errors, 2 on usage/config errors
    status = "errors" if proc.returncode == 1 else "broken"
    errors = [line for line in lines if ": error:" in line]
    return {
        "status": status,
        "n_errors": len(errors),
        "output": lines[:200],
        "stderr": proc.stderr.splitlines()[:20],
    }
