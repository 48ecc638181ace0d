"""Shared benchmark helpers.

Each benchmark runs one figure's experiment at reduced scale (documented
inline; the ``repro.experiments`` panel builders take the paper-scale
ranges as arguments), prints a
paper-vs-measured table straight to the terminal, and asserts the
qualitative shape the paper reports.
"""

from __future__ import annotations


def report(capsys, text: str) -> None:
    """Print around pytest's capture so tables reach the terminal."""
    with capsys.disabled():
        print("\n" + text)
