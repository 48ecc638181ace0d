"""File discovery, AST parsing and diagnostics for ``repro check``.

The analysis pass walks Python ASTs with the stdlib :mod:`ast` module —
no third-party dependency — over a declared *file set* (by default the
library source plus ``examples/`` and ``benchmarks/``; tests are
excluded because they build the forbidden shapes on purpose). The
checker receives an :class:`AnalysisContext` and yields
:class:`Diagnostic` objects.
"""

from __future__ import annotations

import ast
import contextlib
import io
import tokenize
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable, Iterator, Sequence

from repro.errors import ReproError

#: marker comment that opts a function into the RPL002 hot-path rules
HOT_MARKER = "# repro: hot"

#: directories (repo-relative) scanned by a default full-repo run
DEFAULT_SCAN_DIRS = ("src/repro", "examples", "benchmarks")


class AnalysisBroken(ReproError):
    """The analysis pass itself cannot run (unreadable file, syntax
    error in scanned source). Distinct from a finding: this is exit
    code 2 territory, not a diagnostic."""


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a repo-contract violation at a source location,
    rendered as ``file:line: CODE message`` (the compiler shape editors
    and CI annotations parse)."""

    code: str
    path: str  # repo-relative posix path
    line: int  # 1-based
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def sort_diagnostics(diagnostics: Sequence[Diagnostic]) -> list[Diagnostic]:
    """Stable report order: by file, then line, then code."""
    return sorted(diagnostics, key=lambda d: (d.path, d.line, d.code))


@dataclass(frozen=True)
class SourceFile:
    """One parsed source file plus the line-level facts the checker
    needs."""

    relpath: str  # repo-relative, posix separators
    tree: ast.Module
    hot_lines: frozenset  # 1-based lines carrying the HOT_MARKER comment


def _hot_comment_lines(text: str) -> list[int]:
    """Lines whose *comment token* carries the HOT_MARKER. Tokenizing
    (rather than substring-matching raw lines) keeps the marker inert
    inside strings and docstrings — this file mentions it in prose."""
    lines: list[int] = []
    # TokenError suppressed: ast.parse would have caught anything worse
    with contextlib.suppress(tokenize.TokenError):
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT and HOT_MARKER in tok.string:
                lines.append(tok.start[0])
    return lines


def parse_source(path: Path, root: Path) -> SourceFile:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisBroken(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        raise AnalysisBroken(f"syntax error in {path}: {exc}") from exc
    hot = frozenset(_hot_comment_lines(text))
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    return SourceFile(relpath=rel, tree=tree, hot_lines=hot)


def discover_files(root: Path,
                   paths: Iterable[Path] | None = None) -> list[Path]:
    """The file set to analyze: explicit files/dirs, or the default scan
    roots under ``root``. Directories are walked recursively for
    ``*.py``; ``tests`` subtrees and ``__pycache__`` are skipped."""
    targets = ([Path(p) for p in paths] if paths
               else [root / d for d in DEFAULT_SCAN_DIRS])
    out: list[Path] = []
    for target in targets:
        if target.is_file():
            out.append(target)
        elif target.is_dir():
            for found in sorted(target.rglob("*.py")):
                parts = found.relative_to(target).parts
                if "__pycache__" in parts or "tests" in parts[:-1]:
                    continue
                out.append(found)
        else:
            raise AnalysisBroken(f"no such file or directory: {target}")
    return out


@dataclass
class AnalysisContext:
    """Everything the checker may consult: the parsed file set."""

    files: list[SourceFile]

    @classmethod
    def build(cls, root: Path,
              paths: Iterable[Path] | None = None) -> "AnalysisContext":
        return cls([parse_source(path, root)
                    for path in discover_files(root, paths)])


# -- AST helpers -------------------------------------------------------------------


def iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef]]:
    """Yield ``(qualname, node)`` for every function/method, including
    nested ones (``Outer.inner`` / ``fn.<locals>.helper`` style names
    collapse to dotted paths — unique enough for diagnostics)."""

    def walk(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                yield name, child
                yield from walk(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")  # type: ignore[misc]


def function_is_hot(sf: SourceFile, node: ast.FunctionDef) -> bool:
    """A function is hot when the HOT_MARKER sits on its ``def`` line,
    the line above it, or any decorator line."""
    candidates = {node.lineno, node.lineno - 1}
    for decorator in node.decorator_list:
        candidates.add(decorator.lineno)
        candidates.add(decorator.lineno - 1)
    first = min(candidates)
    candidates.add(first - 1)
    return bool(candidates & sf.hot_lines)


def hot_functions(sf: SourceFile) -> list[tuple[str, ast.FunctionDef]]:
    return [(name, node) for name, node in iter_functions(sf.tree)
            if function_is_hot(sf, node)]


def attribute_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name chains
    (calls, subscripts anywhere in the chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None

