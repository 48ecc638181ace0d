"""File discovery, AST parsing, and the checker registry for ``repro check``.

The analysis pass walks Python ASTs with the stdlib :mod:`ast` module —
no third-party dependency — over a declared *file set* (by default the
library source plus ``examples/`` and ``benchmarks/``; tests are
excluded because they build the forbidden shapes on purpose). Each
domain checker receives an
:class:`AnalysisContext` and yields
:class:`~repro.analysis.diagnostics.Diagnostic` objects.

Checkers are registered in :data:`CHECKERS` (populated by
:mod:`repro.analysis` at import) so the CLI, the tests, and the CI gate
all run the same registry.
"""

from __future__ import annotations

import ast
import contextlib
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Iterable, Iterator

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
class SourceFile:
    """One parsed source file plus the line-level facts checkers need."""

    path: Path  # absolute
    relpath: str  # repo-relative, posix separators
    text: str
    tree: ast.Module
    hot_lines: frozenset  # 1-based lines carrying the HOT_MARKER comment

    def lines(self) -> list[str]:
        return self.text.splitlines()


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
    return SourceFile(path=path, relpath=rel, text=text, tree=tree,
                      hot_lines=hot)


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
    """Everything a checker may consult: the parsed file set."""

    root: Path
    files: list[SourceFile] = field(default_factory=list)

    @classmethod
    def build(cls, root: Path,
              paths: Iterable[Path] | None = None) -> "AnalysisContext":
        files = [parse_source(p, root) for p in discover_files(root, paths)]
        return cls(root=root, files=files)


# -- AST helpers shared by checkers -------------------------------------------------


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


# -- checker registry ---------------------------------------------------------------

CheckFn = Callable[[AnalysisContext], Iterator]

#: code -> (one-line title, checker callable); populated by repro.analysis
CHECKERS: dict[str, tuple[str, CheckFn]] = {}


def register_checker(code: str, title: str) -> Callable[[CheckFn], CheckFn]:
    def decorate(fn: CheckFn) -> CheckFn:
        CHECKERS[code] = (title, fn)
        return fn

    return decorate
