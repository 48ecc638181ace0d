"""Per-layer attribution of one traced run.

The traced run executes the timed operation under
``cProfile.Profile(builtins=False)``: time spent in C builtins lands in
the Python function that called them, so every profiled second belongs
to exactly one source file and the per-group self times sum to the
traced total by construction.

Layer names are ``src/repro`` module names. ``flowsim``, ``net`` and
``core`` split per module (the hot paths live there); every other
package is one group.
"""

from __future__ import annotations

import os
import sysconfig

#: packages reported per module; modules not listed fold into
#: ``<pkg>.other`` so the set of metric names is closed
SPLIT_MODULES = {
    "flowsim": ("engine", "paths", "rcp_model", "pdq_model", "d3_model",
                "progress"),
    "net": ("link", "queues", "pool", "node", "routing", "network"),
    "core": ("switch", "flowlist", "comparator", "sender", "receiver"),
}

#: packages reported as one group each
WHOLE_PACKAGES = ("events", "transport", "metrics", "utils", "workload",
                  "topology", "campaign", "experiments", "faults", "obs")

#: numpy/networkx; the interpreter's own library (json, tempfile, the
#: ``<string>`` bodies dataclasses generate); and whatever remains — the
#: rest of ``repro`` (units, sched, ...) plus the benchmark's own frames
EXTERNAL_GROUPS = ("third_party", "stdlib", "other")

GROUPS: tuple[str, ...] = tuple(
    f"{pkg}.{mod}" for pkg, mods in SPLIT_MODULES.items()
    for mod in (*mods, "other")
) + WHOLE_PACKAGES + EXTERNAL_GROUPS

#: boundary span -> (path under src/repro: a module file, or a package
#: directory to sum over every class in it; function name)
BOUNDARIES: dict[str, tuple[str, str]] = {
    "workload.stream.take_until": ("workload/stream.py", "take_until"),
    "flowsim.paths.flow_path_ids": ("flowsim/paths.py", "flow_path_ids"),
    "flowsim.rcp_model.max_min_rates": ("flowsim/rcp_model.py",
                                        "max_min_rates"),
    "flowsim.pdq_model.allocate": ("flowsim/pdq_model.py", "allocate"),
    "metrics.on_complete": ("metrics/", "on_complete"),
    "metrics.to_dict": ("metrics/collector.py", "to_dict"),
    "metrics.from_dict": ("metrics/collector.py", "from_dict"),
    "events.simulator.run": ("events/simulator.py", "run"),
    "net.link.enqueue": ("net/link.py", "enqueue"),
    "net.queues.offer": ("net/queues.py", "offer"),
    "net.pool.acquire": ("net/pool.py", "acquire"),
    "net.pool.release": ("net/pool.py", "release"),
    "core.switch.process": ("core/switch.py", "process"),
    "core.flowlist.admit": ("core/flowlist.py", "admit"),
    "core.flowlist.reposition": ("core/flowlist.py", "reposition"),
    "transport.on_packet": ("transport/", "on_packet"),
    "campaign.spec.key": ("campaign/spec.py", "key"),
    "campaign.engines.execute_spec": ("campaign/engines.py", "execute_spec"),
    "campaign.store.put": ("campaign/store.py", "put"),
    "campaign.store.get": ("campaign/store.py", "get"),
    "topology.build": ("campaign/registry.py", "build_topology"),
    "workload.build": ("campaign/registry.py", "build_workload"),
}

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep
_STDLIB = sysconfig.get_paths()["stdlib"]


def repro_relpath(filename: str) -> str | None:
    """Path under ``src/repro`` with forward slashes, or None."""
    at = filename.rfind(_REPRO_MARK)
    if at < 0:
        return None
    return filename[at + len(_REPRO_MARK):].replace(os.sep, "/")


def group_of(filename: str) -> str:
    rel = repro_relpath(filename)
    if rel is not None:
        pkg, _, rest = rel.partition("/")
        if pkg in SPLIT_MODULES and rest.endswith(".py"):
            mod = rest[:-3]
            return f"{pkg}.{mod if mod in SPLIT_MODULES[pkg] else 'other'}"
        return pkg if pkg in WHOLE_PACKAGES else "other"
    if "site-packages" in filename:
        return "third_party"
    if filename.startswith((_STDLIB, "<")):
        return "stdlib"
    return "other"


def _defined(repro_root: str, path: str, func: str) -> bool:
    """Does ``def func(`` still appear in the module (or any module of
    the package directory) a boundary names?"""
    target = os.path.join(repro_root, *path.rstrip("/").split("/"))
    if path.endswith("/"):
        files = ([os.path.join(target, f) for f in sorted(os.listdir(target))
                  if f.endswith(".py")] if os.path.isdir(target) else [])
    else:
        files = [target] if os.path.isfile(target) else []
    needle = f"def {func}("
    for filename in files:
        with open(filename, encoding="utf-8") as fh:
            if needle in fh.read():
                return True
    return False


def attribute(stats: list, repro_root: str) -> dict:
    """Fold ``cProfile.Profile.getstats()`` into the per-layer numbers.

    Returns ``self_s`` per group, ``boundaries`` as ``{name: {cum_s,
    calls}}``, ``total_s``, and the ten largest self times for the trace
    file's reader. A boundary whose function is no longer defined under
    ``repro_root`` (a later refactor renamed it) reports ``None`` for
    both values, never an error; one that exists but did not run on this
    workload reports zeros.
    """
    self_s = dict.fromkeys(GROUPS, 0.0)
    cum: dict[str, float] = {}
    calls: dict[str, int] = {}
    rows = []
    for entry in stats:
        code = entry.code
        filename = getattr(code, "co_filename", "<builtin>")
        name = getattr(code, "co_name", str(code))
        self_s[group_of(filename)] += entry.inlinetime
        rows.append((entry.inlinetime, filename, name, entry.callcount))
        rel = repro_relpath(filename)
        if rel is None:
            continue
        for span, (path, func) in BOUNDARIES.items():
            if name == func and (rel == path or (path.endswith("/")
                                                 and rel.startswith(path))):
                cum[span] = cum.get(span, 0.0) + entry.totaltime
                calls[span] = calls.get(span, 0) + entry.callcount
    rows.sort(reverse=True)
    return {
        "self_s": self_s,
        "boundaries": {
            span: ({"cum_s": cum.get(span, 0.0), "calls": calls.get(span, 0)}
                   if span in calls or _defined(repro_root, path, func)
                   else {"cum_s": None, "calls": None})
            for span, (path, func) in BOUNDARIES.items()
        },
        "total_s": sum(self_s.values()),
        "top_self": [
            {"self_s": t, "file": repro_relpath(f) or f, "function": n,
             "calls": c}
            for t, f, n, c in rows[:10]
        ],
    }
