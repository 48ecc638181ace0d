"""RPL005 — event-shape guard: deliveries schedule only at tx-finish.

The defect this rule caught is the fig3c regression: the packet
engine's two-event transmission pipeline assigns the delivery event's
heap sequence number when serialization *finishes*. Scheduling a
delivery at tx-*start* — the "obvious" refactor when inlining link
scheduling — hands the delivery an earlier seq, which flips
same-timestamp tie orders and visibly shifts high-flow-count
trajectories while every small test, the golden fixtures included,
stays green. This checker makes that shape a lint-time contract:

* scheduling a *delivery callback* (``receive`` / ``_deliver_cb``)
  through ``call_after``/``call_at``/``schedule``/``schedule_at`` or a
  direct heap push is allowed only inside ``Link._finish``, and only
  once there: ``_finish`` also starts the next transmission, so any
  delivery it schedules after the first is that tx-start push carrying
  a delivery;
* direct pushes onto a simulator's ``_heap`` are allowed only in the
  simulator itself and in ``net/link.py`` (the two inlined hot sites) —
  everywhere else must go through the scheduling API, which keeps the
  ``(time, seq)`` ordering invariants in one place.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import (
    AnalysisContext,
    SourceFile,
    register_checker,
)
from repro.analysis.diagnostics import Diagnostic

_SCHEDULING_METHODS = ("call_after", "call_at", "schedule", "schedule_at")

#: files allowed to push heap entries directly (suffix match)
_HEAP_PUSH_ALLOWED = ("events/simulator.py", "net/link.py")

#: the one function allowed to schedule a delivery callback
_DELIVERY_SITE = ("net/link.py", "_finish")


def _mentions_delivery_callback(node: ast.AST) -> bool:
    """True when an expression references a delivery callback: an
    attribute named ``receive`` or ``_deliver_cb`` (bound or bare)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and \
                sub.attr in ("receive", "_deliver_cb"):
            return True
        if isinstance(sub, ast.Name) and sub.id == "_deliver_cb":
            return True
    return False


def _enclosing_function(sf: SourceFile,
                        lineno: int) -> tuple[str, int] | None:
    """(innermost function name, def line) covering ``lineno``."""
    best: tuple[str, int] | None = None
    for node in ast.walk(sf.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            end = getattr(node, "end_lineno", node.lineno)
            if node.lineno <= lineno <= end and \
                    (best is None or node.lineno > best[1]):
                best = (node.name, node.lineno)
    return best


@register_checker("RPL005", "event shape: delivery callbacks are "
                            "scheduled only at Link tx-finish")
def check(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    site_file, site_fn = _DELIVERY_SITE
    for sf in ctx.files:
        at_site: list[int] = []
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_sched = (isinstance(func, ast.Attribute)
                        and func.attr in _SCHEDULING_METHODS)
            is_heap_push = (
                (isinstance(func, ast.Name) and func.id == "heappush")
                or (isinstance(func, ast.Attribute)
                    and func.attr == "heappush")
            ) and node.args and isinstance(node.args[0], ast.Attribute) \
                and node.args[0].attr == "_heap"
            if not (is_sched or is_heap_push):
                continue

            if is_heap_push and not any(
                sf.relpath.endswith(suffix) for suffix in _HEAP_PUSH_ALLOWED
            ):
                yield Diagnostic(
                    "RPL005", sf.relpath, node.lineno,
                    "direct push onto a simulator heap outside the "
                    "simulator and net/link.py: use "
                    "sim.call_after/schedule so the (time, seq) ordering "
                    "contract stays in one place",
                )
                continue

            # does this scheduling call carry a delivery callback?
            payload = node.args[1:] if is_heap_push else node.args
            if not any(_mentions_delivery_callback(arg) for arg in payload):
                continue
            enclosing = _enclosing_function(sf, node.lineno)
            in_site = (sf.relpath.endswith(site_file)
                       and enclosing is not None
                       and enclosing[0] == site_fn)
            if in_site:
                at_site.append(node.lineno)
            else:
                where = enclosing[0] if enclosing else "<module>"
                yield _misplaced(sf, node.lineno, where)
        # the first delivery in source order is the finished packet's;
        # any later one rides the next transmission's start
        for lineno in sorted(at_site)[1:]:
            yield _misplaced(sf, lineno, site_fn)


def _misplaced(sf: SourceFile, lineno: int, where: str) -> Diagnostic:
    site_fn = _DELIVERY_SITE[1]
    return Diagnostic(
        "RPL005", sf.relpath, lineno,
        f"delivery callback scheduled in {where}(): link deliveries may "
        f"only be scheduled at the tx-finish site (Link.{site_fn}, once, "
        f"for the packet whose transmission finished). Scheduling them "
        f"at tx-start assigns an earlier heap seq and flips "
        f"same-timestamp tie orders (the fig3c regression)",
    )
