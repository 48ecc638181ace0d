"""AST-based static analysis enforcing the repo's contracts at lint time.

``python -m repro check`` runs one rule over the library source (plus
``examples/`` and ``benchmarks/``), for a contract that no test holds:

==========  ========================================================
RPL002      hot-path purity: ``# repro: hot`` functions stay
            closure-, logging- and allocation-free
==========  ========================================================

Cache keys are pinned by the spec-key corpus
(``tests/test_key_corpus.py``), kind names by the dry run of every
registered experiment and example, and the packet engine's event order
by the packet digest pins (``tests/test_pdq_digest_pins.py``), so none
of them has a lint rule.
"""

from repro.analysis.core import (
    AnalysisBroken,
    AnalysisContext,
    Diagnostic,
    HOT_MARKER,
)
from repro.analysis.rpl002_hotpath import check

__all__ = [
    "AnalysisBroken",
    "AnalysisContext",
    "Diagnostic",
    "HOT_MARKER",
    "check",
]
