"""Cross-engine validation: the packet and fluid simulators must agree.

The paper's claims rest on two independent simulators producing the same
conclusions; this package makes that agreement a continuously-checked
invariant instead of a one-time observation. It pairs every scenario
cell across both engines (:mod:`repro.validate.pairs`), runs the pairs
through the campaign runner, and asserts FCT / deadline-throughput /
completion agreement within per-protocol tolerances
(:mod:`repro.validate.harness`). ``python -m repro validate [--quick]``
drives it and writes ``VALIDATE_cross_engine.json``.
"""

from repro.validate.harness import (
    CheckResult,
    PairOutcome,
    ValidationReport,
    compare_pair,
    run_validation,
    select_pairs,
    write_report,
)
from repro.validate.pairs import (
    APP_TPUT_ATOL,
    COMPLETION_ATOL,
    FCT_RTOL,
    SINGLE_FLOW_RTOL,
    VALIDATION_PROTOCOLS,
    Tolerance,
    ValidationPair,
    default_pairs,
    panel_pairs,
    validation_panels,
)

__all__ = [
    "APP_TPUT_ATOL",
    "COMPLETION_ATOL",
    "CheckResult",
    "FCT_RTOL",
    "PairOutcome",
    "SINGLE_FLOW_RTOL",
    "Tolerance",
    "VALIDATION_PROTOCOLS",
    "ValidationPair",
    "ValidationReport",
    "compare_pair",
    "default_pairs",
    "panel_pairs",
    "run_validation",
    "select_pairs",
    "validation_panels",
    "write_report",
]
