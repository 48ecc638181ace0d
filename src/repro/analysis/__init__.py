"""AST-based static analysis enforcing the repo's contracts at lint time.

``python -m repro check`` runs two checkers over the library source
(plus ``examples/`` and ``benchmarks/``), each guarding a contract that
no test holds:

==========  ========================================================
RPL002      hot-path purity: ``# repro: hot`` functions stay
            closure-, logging- and allocation-free
RPL005      event shape: delivery callbacks are scheduled only at
            the Link tx-finish site
==========  ========================================================

Cache keys are pinned by the spec-key corpus
(``tests/test_key_corpus.py``), and kind names by the dry run of every
registered experiment and example, so neither has a lint rule.

Importing this package populates :data:`repro.analysis.core.CHECKERS`.
"""

from repro.analysis import (  # noqa: F401  (imported for registration)
    rpl002_hotpath,
    rpl005_events,
)
from repro.analysis.core import (
    CHECKERS,
    AnalysisBroken,
    AnalysisContext,
    HOT_MARKER,
)
from repro.analysis.diagnostics import Diagnostic, render_report

__all__ = [
    "CHECKERS",
    "AnalysisBroken",
    "AnalysisContext",
    "Diagnostic",
    "HOT_MARKER",
    "render_report",
]
