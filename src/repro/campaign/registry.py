"""Registries resolving spec *kind* names to builder callables.

Topology builders take keyword parameters and return a
:class:`~repro.topology.base.Topology`. Workload builders take
``(topology, seed, **params)`` and return a list of
:class:`~repro.workload.flow.FlowSpec`.

Builtin topology kinds are registered below. Figure-specific workload
kinds are registered by the :mod:`repro.experiments` modules that define
them; those modules import this package, so they are imported lazily on
first resolution rather than here (which would create an import cycle).
"""

from __future__ import annotations

import difflib
import importlib
import inspect
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.errors import CampaignError
from repro.topology.bcube import BCube
from repro.topology.fattree import FatTree
from repro.topology.jellyfish import Jellyfish
from repro.topology.random_graph import RandomGraph
from repro.topology.single_bottleneck import SingleBottleneck
from repro.topology.single_rooted import SingleRootedTree

_TOPOLOGIES: dict[str, Callable[..., Any]] = {}
_WORKLOADS: dict[str, Callable[..., Any]] = {}

#: every module that registers experiment-surface kinds on import —
#: workloads here, experiments and reducers in
#: :mod:`repro.experiments.api`. ONE list shared by both lazy loaders,
#: so the two registries cannot drift apart when a module is added.
EXPERIMENT_MODULES = tuple(
    f"repro.experiments.fig{n}" for n in (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
) + ("repro.validate.pairs",)
_experiments_loaded = False


def unknown_kind(what: str, kind: Any,
                 known: Sequence[str]) -> CampaignError:
    """A consistent "unknown kind" error for every registry: names the
    registered kinds and, when one is close, the likely typo fix."""
    known = sorted(str(k) for k in known)
    listing = ", ".join(known) if known else "(none registered)"
    message = f"unknown {what} kind {kind!r}; registered: {listing}"
    close = difflib.get_close_matches(str(kind), known, n=1, cutoff=0.6)
    if close:
        message += f". Did you mean {close[0]!r}?"
    return CampaignError(message)


def register_topology(kind: str) -> Callable:
    """Decorator: register a topology builder under ``kind``."""

    def decorate(builder: Callable) -> Callable:
        _TOPOLOGIES[kind] = builder
        return builder

    return decorate


def register_workload(kind: str) -> Callable:
    """Decorator: register a workload builder under ``kind``."""

    def decorate(builder: Callable) -> Callable:
        _WORKLOADS[kind] = builder
        return builder

    return decorate


def load_experiment_modules() -> None:
    """Import every module that registers experiment-surface kinds, on
    the first registry miss (importing them here would cycle)."""
    global _experiments_loaded
    if _experiments_loaded:
        return
    for module in EXPERIMENT_MODULES:
        importlib.import_module(module)
    # only after every import succeeded: a transient failure above must
    # surface again on the next call, not decay into "unknown kind"
    _experiments_loaded = True


def topology_kinds() -> list[str]:
    return sorted(_TOPOLOGIES)


def workload_kinds() -> list[str]:
    load_experiment_modules()
    return sorted(_WORKLOADS)


def build_topology(kind: str, params: Mapping[str, Any]):
    builder = _TOPOLOGIES.get(kind)
    if builder is None:
        raise unknown_kind("topology", kind, topology_kinds())
    return builder(**params)


def build_workload(kind: str, topology, seed: int,
                   params: Mapping[str, Any]):
    builder = _WORKLOADS.get(kind)
    if builder is None:
        load_experiment_modules()
        builder = _WORKLOADS.get(kind)
    if builder is None:
        raise unknown_kind("workload", kind, workload_kinds())
    return builder(topology, seed, **params)


def bind_params(what: str, kind: str, builder: Callable, *args: Any,
                **params: Any) -> None:
    """Bind ``params`` to ``builder``'s signature without calling it; a
    missing or unknown parameter is a :class:`CampaignError` naming the
    kind and the parameter."""
    try:
        inspect.signature(builder).bind(*args, **params)
    except TypeError as exc:
        raise CampaignError(f"{what} kind {kind!r}: {exc}") from None


def validate_spec_kinds(spec) -> None:
    """Check a :class:`~repro.campaign.spec.ScenarioSpec`'s protocol and
    options (:func:`~repro.campaign.engines.check_options`) and its
    topology and workload kinds against the live registries, and bind
    their ``params`` to the builders' signatures, without building
    anything. Raises the same close-match :class:`CampaignError` the
    builders would, and one naming the kind and the parameter for a
    missing or unknown one."""
    from repro.campaign.engines import check_options

    check_options(spec.engine, spec.protocol, spec.options)
    topology = _TOPOLOGIES.get(spec.topology.kind)
    if topology is None:
        raise unknown_kind("topology", spec.topology.kind, topology_kinds())
    if spec.workload.kind not in _WORKLOADS:
        load_experiment_modules()
    workload = _WORKLOADS.get(spec.workload.kind)
    if workload is None:
        raise unknown_kind("workload", spec.workload.kind, workload_kinds())
    bind_params("topology", spec.topology.kind, topology,
                **spec.topology.params)
    bind_params("workload", spec.workload.kind, workload, None, spec.seed,
                **spec.workload.params)


# -- builtin topology kinds ---------------------------------------------------------


@register_topology("single_rooted")
def _single_rooted(n_tors: int = 4, servers_per_tor: int = 3):
    return SingleRootedTree(n_tors=n_tors, servers_per_tor=servers_per_tor)


@register_topology("single_bottleneck")
def _single_bottleneck(n_senders: int):
    return SingleBottleneck(n_senders)


@register_topology("fattree")
def _fattree(n_servers: int):
    return FatTree.for_servers(n_servers)


@register_topology("bcube")
def _bcube(n: int = 2, k: int = None, n_servers: int = None):
    if k is None:
        if n_servers is None:
            raise CampaignError("bcube needs either k or n_servers")
        k = 1
        while n ** (k + 1) < n_servers:
            k += 1
    return BCube(n=n, k=k)


@register_topology("jellyfish")
def _jellyfish(n_servers: int, seed: int = 1):
    return Jellyfish.for_servers(n_servers, seed=seed)


@register_topology("random_graph")
def _random_graph(n_switches: int, mean_degree: float = 3.0,
                  hosts_per_switch: int = 2, seed: int = 1):
    return RandomGraph(n_switches=n_switches, mean_degree=mean_degree,
                       hosts_per_switch=hosts_per_switch, seed=seed)


# -- builtin workload kinds ---------------------------------------------------------
#
# Tiny generic workloads used by the cross-engine validation suite and as
# degenerate-case fixtures; figure-scale workloads live in experiments.


@register_workload("empty")
def _empty_workload(topology, seed: int) -> list[Any]:
    return []


@register_workload("single_flow")
def _single_flow_workload(topology, seed: int, src: str, dst: str,
                          size_bytes: int, arrival: float = 0.0,
                          deadline: Any = None) -> list[Any]:
    from repro.workload.flow import FlowSpec

    return [FlowSpec(fid=0, src=src, dst=dst, size_bytes=size_bytes,
                     arrival=arrival, deadline=deadline)]


@register_workload("open_system")
def _open_system_workload(topology, seed: int, **params) -> Any:
    """Streaming arrival process (returns a FlowStream, not a list);
    see :func:`repro.workload.open_system.open_system` for the knobs."""
    from repro.workload.open_system import open_system

    return open_system(topology, seed, **params)
