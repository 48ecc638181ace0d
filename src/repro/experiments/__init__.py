"""Experiment harness: the declarative Experiment API plus one module
per paper figure.

:mod:`repro.experiments.api` defines the surface — :class:`Panel`
(scenario grid + optional search directive + named reducer),
:class:`Experiment` (an ordered set of panels), and the registries that
resolve experiments and reducers by name. Each ``figN`` module declares
its figure as an Experiment of panel builders (``figNx_panel(...)``,
run with :func:`run_panel`); user-authored JSON experiment files load
through :func:`load_experiment_file` (the ``python -m repro run-spec``
subcommand).
"""

from repro.campaign.engines import (
    available_protocols,
    execute_spec,
    make_stack,
    run_flow_level,
    run_packet_level,
)
from repro.experiments.api import (
    Experiment,
    Panel,
    SearchSpec,
    experiment_kinds,
    figure_numbers,
    get_experiment,
    load_experiment,
    load_experiment_file,
    register_experiment,
    run_experiment,
    run_panel,
    validate_experiment,
)
from repro.experiments.reducers import (
    collector_metric,
    get_reducer,
    metric_kinds,
    reducer_kinds,
    register_metric,
    register_reducer,
)
from repro.experiments.search import binary_search_max

__all__ = [
    "Experiment",
    "Panel",
    "SearchSpec",
    "available_protocols",
    "binary_search_max",
    "collector_metric",
    "execute_spec",
    "experiment_kinds",
    "figure_numbers",
    "get_experiment",
    "get_reducer",
    "load_experiment",
    "load_experiment_file",
    "make_stack",
    "metric_kinds",
    "reducer_kinds",
    "register_experiment",
    "register_metric",
    "register_reducer",
    "run_experiment",
    "run_flow_level",
    "run_packet_level",
    "run_panel",
    "validate_experiment",
]
