"""Every example script runs, and ``python -m repro`` dry-runs every
example spec file.

Each example is run as a user runs it: its own interpreter, the public
package on ``PYTHONPATH``, a scratch working directory it must leave
empty (no stray result store). A failure names the script and carries
its stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
SPECS = sorted((ROOT / "examples/specs").glob("*.json"))
SRC = str(Path(repro.__file__).resolve().parent.parent)


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=300)


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(path, tmp_path):
    done = _run([str(path)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip(), f"{path.name} printed nothing"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("path", SPECS, ids=[p.stem for p in SPECS])
def test_module_entry_point_dry_runs_a_spec_file(path, tmp_path):
    done = _run(["-m", "repro", "run-spec", str(path), "--dry-run"],
                tmp_path)
    assert done.returncode == 0, done.stderr
    assert "dry run: no scenarios executed" in done.stdout
