"""RPL002 — hot-path purity for ``# repro: hot`` functions.

The engines' throughput rests on the functions that run once per event,
packet or flow staying allocation- and indirection-free: the event loop
(``Simulator.run``), link scheduling (``Link.enqueue`` / ``_finish``,
which run the idle-link queue accounting inline) and the busy path's
``DropTailQueue.offer`` / ``pop``, the node hops (``Switch.receive``,
``Host.send`` / ``receive``), the PDQ switch's per-packet path
(``PdqSwitchProtocol.process``, ``PdqLinkState.on_forward`` /
``on_reverse``, ``PdqFlowList.reposition``), the rate-based send and
acknowledge paths with the PDQ endpoint hooks, the TCP endpoints
(``TcpSender.on_packet`` / ``_pump`` / ``_send_segment``,
``TcpReceiver.on_packet``), the packet engine's stream admission
(``Network._admit_stream``) and the fluid engine's per-flow path:
admission (``FlowLevelSimulation._admit``), the window pull
(``FlowStream.take_until``) and the streaming collector's registration
and completion hooks (``StreamingMetricsCollector.register`` /
``on_complete``). Those functions carry a ``# repro: hot`` marker.

No test holds this contract: a closure or a per-packet dict in a hot
function changes no number a test reads, only the engines' speed, and
the timed benchmark is too noisy to pin one function's allocations.
So this checker rejects the constructs that were each removed from
these functions for speed:

* closures and lambdas (the event loop was made closure-free);
* f-string building and logging calls (the parity rule: telemetry is
  harvested at the adapter boundary, never per-packet) — f-strings
  inside ``raise`` statements are exempt, error paths are cold;
* ``dict``/``list``/``set`` literals, comprehensions, or constructor
  calls inside loops (per-iteration allocation);
* capitalized constructor calls and deep (3+) attribute chains inside
  loops (per-iteration object churn / repeated bound-method lookups —
  the typed event core and the packet engine cached exactly these);
* ``PacketKind.<member>`` reads anywhere in the function: an enum member
  read is a class attribute lookup several times the cost of a module
  global, so hot code compares against module-level constants.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import (
    AnalysisContext,
    Diagnostic,
    attribute_chain,
    hot_functions,
)

#: builtin calls that allocate a fresh container per call
_CONTAINER_CALLS = ("dict", "list", "set", "tuple", "frozenset")

#: method names that smell like logging regardless of receiver name
_LOG_METHODS = ("debug", "info", "warning", "error", "exception",
                "critical")

#: receiver names that identify a logger
_LOG_RECEIVERS = ("log", "logger", "logging")

#: enum whose member reads hot functions hoist to module constants
_ENUM_CLASS = "PacketKind"

_LOOP_NODES = (ast.For, ast.While, ast.AsyncFor)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)
_LITERALS = {
    ast.Dict: "dict literal",
    ast.List: "list literal",
    ast.Set: "set literal",
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
    ast.GeneratorExp: "generator expression",
}


def _raise_lines(fn: ast.FunctionDef) -> set[int]:
    """Lines covered by ``raise`` statements (cold error paths)."""
    lines: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Raise):
            end = getattr(node, "end_lineno", node.lineno)
            lines.update(range(node.lineno, end + 1))
    return lines


def _violations(fn: ast.FunctionDef) -> list[tuple[int, str]]:
    found: list[tuple[int, str]] = []
    cold = _raise_lines(fn)

    def visit(node: ast.AST, in_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            lineno = getattr(child, "lineno", None)
            is_cold = lineno is not None and lineno in cold
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((child.lineno,
                              f"closure {child.name}() defined in a hot "
                              f"function (allocates a function object per "
                              f"call; hoist it or preallocate a bound "
                              f"method)"))
                continue  # don't descend: one finding per closure
            if isinstance(child, ast.Lambda):
                found.append((child.lineno, "lambda in a hot function"))
                continue
            if isinstance(child, ast.JoinedStr) and not is_cold:
                found.append((child.lineno,
                              "f-string built on the hot path (string "
                              "building belongs at the adapter boundary; "
                              "raise statements are exempt)"))
            if isinstance(child, ast.Call) and not is_cold:
                _check_call(child, in_loop)
            if not is_cold and isinstance(child, ast.Attribute) and \
                    isinstance(child.value, ast.Name) and \
                    child.value.id == _ENUM_CLASS:
                found.append((child.lineno,
                              f"{_ENUM_CLASS}.{child.attr} read in a hot "
                              f"function (an enum class attribute lookup "
                              f"per read; compare against a module-level "
                              f"constant)"))
            if not is_cold and in_loop and \
                    type(child) in _LITERALS:
                found.append((child.lineno,
                              f"{_LITERALS[type(child)]} inside a loop in "
                              f"a hot function (allocates per iteration)"))
            child_in_loop = in_loop or isinstance(
                child, _LOOP_NODES + _COMPREHENSIONS
            )
            visit(child, child_in_loop)

    def _check_call(call: ast.Call, in_loop: bool) -> None:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        chain = attribute_chain(func)
        if chain is not None and (
            chain[0] in _LOG_RECEIVERS
            or (len(chain) > 1 and chain[-1] in _LOG_METHODS
                and any("log" in part for part in chain[:-1]))
        ):
            found.append((call.lineno, "logging call in a hot function "
                                       "(harvest counters at the adapter "
                                       "boundary instead)"))
            return
        if not in_loop:
            return
        if isinstance(func, ast.Name) and name in _CONTAINER_CALLS:
            found.append((call.lineno,
                          f"{name}() constructed inside a loop in a hot "
                          f"function"))
        elif isinstance(func, ast.Name) and name and name[0].isupper():
            found.append((call.lineno,
                          f"{name}() constructed inside a loop in a hot "
                          f"function (allocation per iteration)"))
        elif chain is not None and len(chain) >= 4:
            found.append((call.lineno,
                          f"attribute-chained call "
                          f"{'.'.join(chain)}() inside a loop in a hot "
                          f"function (cache the bound method outside the "
                          f"loop)"))

    visit(fn, in_loop=False)
    return found


def check(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for sf in ctx.files:
        if not sf.hot_lines:
            continue
        for qualname, fn in hot_functions(sf):
            for lineno, message in _violations(fn):
                yield Diagnostic(
                    "RPL002", sf.relpath, lineno,
                    f"{qualname}: {message}",
                )
