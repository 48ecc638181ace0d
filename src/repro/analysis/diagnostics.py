"""Structured diagnostics emitted by the ``repro check`` analysis pass.

Every checker yields :class:`Diagnostic` objects; the CLI renders them
as ``file:line: CODE message`` lines (the classic compiler shape, so
editors and CI annotations parse them for free) and, with ``--out``, as
one JSON report suitable for artifact upload.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a repo-contract violation at a source location."""

    code: str  # "RPL002" .. "RPL005"
    path: str  # repo-relative posix path
    line: int  # 1-based; 0 when the finding is file-scoped
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


def sort_diagnostics(diagnostics: Sequence[Diagnostic]) -> list[Diagnostic]:
    """Stable report order: by file, then line, then code."""
    return sorted(diagnostics, key=lambda d: (d.path, d.line, d.code))


def render_report(diagnostics: Sequence[Diagnostic],
                  mypy: dict[str, Any] | None = None) -> dict[str, Any]:
    """The ``--out`` JSON payload (schema 1)."""
    ordered = sort_diagnostics(diagnostics)
    by_code: dict[str, int] = {}
    for diag in ordered:
        by_code[diag.code] = by_code.get(diag.code, 0) + 1
    return {
        "schema": 1,
        "n_diagnostics": len(ordered),
        "by_code": {code: by_code[code] for code in sorted(by_code)},
        "diagnostics": [d.to_dict() for d in ordered],
        "mypy": mypy,
    }
