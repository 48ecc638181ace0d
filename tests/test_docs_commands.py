"""The commands the docs and CI name must exist.

Every ``python -m repro <sub>`` (and backticked ``repro <sub>``)
invocation in the README, the CI workflow and the verify skill has to
resolve against the real argparse tree, so deleting or renaming a
subcommand cannot leave stale instructions behind; CI logic lives in
unit-tested commands, never in inline Python.
"""

import re
from pathlib import Path

import pytest

from repro.campaign.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md")

# `\s+` spans the line wraps of prose ("`python -m repro\nreport`") and
# of shell continuations ("repro run-spec \"); a bare `repro` only counts
# inside backticks, where it can only be a command
INVOCATION = re.compile(r"(?:python3? -m repro|`repro)\s+([a-z][a-z-]*)")


def _subcommands() -> set[str]:
    parser = build_parser()
    (subparsers,) = (a for a in parser._actions if a.dest == "command")
    return set(subparsers.choices)


@pytest.mark.parametrize("doc", DOCS)
def test_named_subcommands_exist(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    named = set(INVOCATION.findall(text))
    assert named, f"{doc} names no repro invocation; is the pattern stale?"
    unknown = named - _subcommands()
    assert not unknown, (
        f"{doc} names repro subcommand(s) {sorted(unknown)} that "
        f"campaign.cli.build_parser() does not define")


def test_ci_has_no_inline_python():
    text = (ROOT / ".github/workflows/ci.yml").read_text(encoding="utf-8")
    assert not re.search(r"python3?\s+-\s*<<", text), (
        "ci.yml runs an inline Python heredoc; move the logic into a "
        "tested command")
