"""AST-based static analysis enforcing the repo's contracts at lint time.

``python -m repro check`` runs four checkers over the library source
(plus ``examples/`` and ``benchmarks/``), each guarding an invariant a
past PR paid for:

==========  ========================================================
RPL002      hot-path purity: ``# repro: hot`` functions stay
            closure-, logging- and allocation-free
RPL003      registry discipline: kind/engine/reducer string literals
            resolve against the live registries
RPL004      hash-pin guard: cache-key canonicalization functions
            match their pinned normalized-AST fingerprints
RPL005      event shape: delivery callbacks are scheduled only at
            the Link tx-finish site
==========  ========================================================

Importing this package populates :data:`repro.analysis.core.CHECKERS`.
"""

from repro.analysis import (  # noqa: F401  (imported for registration)
    rpl002_hotpath,
    rpl003_registry,
    rpl004_fingerprint,
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
