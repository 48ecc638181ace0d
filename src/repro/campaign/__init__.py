"""Campaign layer: declarative scenarios, parallel execution, caching.

* :class:`ScenarioSpec` / :class:`TopologySpec` / :class:`WorkloadSpec` —
  declarative scenario descriptions with stable content-hash keys and
  :func:`expand_grid` parameter sweeps;
* :func:`~repro.campaign.engines.execute_spec` — runs a spec on its
  engine (``packet`` = ns-2-style Network + transport stacks, ``flow`` =
  fluid rate models);
* :class:`CampaignRunner` — fans scenarios out over worker processes with
  per-scenario timeout, retry, progress reporting and result caching;
* :class:`ResultStore` — JSON result cache keyed by scenario hash, so
  re-runs and partially-failed campaigns resume instead of recomputing;
* :func:`run_scenarios` / :func:`use_runner` — ambient-runner plumbing the
  figure experiments execute their grids through;
* ``python -m repro`` (:mod:`repro.campaign.cli`) — the command line
  driving all of it (``run-fig``, ``sweep``, ``ls``).
"""

from repro.campaign.context import (
    current_runner,
    default_runner,
    run_one,
    run_scenarios,
    use_runner,
)
from repro.campaign.engines import execute_spec
from repro.campaign.registry import (
    register_topology,
    register_workload,
    topology_kinds,
    workload_kinds,
)
from repro.campaign.runner import (
    CampaignResult,
    CampaignRunner,
    ScenarioOutcome,
    run_scenario,
)
from repro.campaign.spec import (
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    expand_grid,
)
from repro.campaign.store import ResultStore, StoreEntry

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "ResultStore",
    "ScenarioOutcome",
    "ScenarioSpec",
    "StoreEntry",
    "TopologySpec",
    "WorkloadSpec",
    "current_runner",
    "default_runner",
    "execute_spec",
    "expand_grid",
    "register_topology",
    "register_workload",
    "run_one",
    "run_scenario",
    "run_scenarios",
    "topology_kinds",
    "use_runner",
    "workload_kinds",
]
