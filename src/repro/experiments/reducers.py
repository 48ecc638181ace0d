"""Named reducers: executed scenario grids -> figure-style results.

A *metric* maps one :class:`~repro.metrics.collector.MetricsCollector`
to a scalar; a *reducer* maps a whole executed panel (a
:class:`~repro.experiments.api.PanelRun`) to the panel's result — the
rows/series a paper figure plots. Both are registered by name so
declarative :class:`~repro.experiments.api.Panel` specs (including
user-authored ``run-spec`` JSON files) can reference them as data.

Generic reducers live here; figure-specific ones (the reduction code
extracted from the ``figN`` modules — normalized-to-optimal FCT,
per-pattern normalization, aging tables) are registered by the figure
modules that own their constants. Lookup failures raise the registry's
close-match :class:`~repro.errors.CampaignError`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import ExperimentError
from repro.metrics.collector import MetricsCollector

# -- metric registry ----------------------------------------------------------------

_METRICS: dict[str, Callable[[MetricsCollector], float]] = {}


def register_metric(name: str) -> Callable:
    """Decorator: register a collector -> scalar metric under ``name``."""

    def decorate(fn: Callable[[MetricsCollector], float]) -> Callable:
        _METRICS[name] = fn
        return fn

    return decorate


def metric_kinds() -> list[str]:
    return sorted(_METRICS)


def collector_metric(name: str) -> Callable[[MetricsCollector], float]:
    fn = _METRICS.get(name)
    if fn is None:
        from repro.campaign.registry import unknown_kind

        raise unknown_kind("metric", name, metric_kinds())
    return fn


@register_metric("mean_fct")
def _mean_fct(collector: MetricsCollector) -> float:
    return collector.mean_fct()


@register_metric("max_fct")
def _max_fct(collector: MetricsCollector) -> float:
    return collector.max_fct()


@register_metric("application_throughput")
def _application_throughput(collector: MetricsCollector) -> float:
    return collector.application_throughput()


@register_metric("completion_fraction")
def _completion_fraction(collector: MetricsCollector) -> float:
    """Fraction of flows that completed (1.0 for an empty workload)."""
    total = len(collector)
    if total == 0:
        return 1.0
    return collector.completed_count() / total


@register_metric("p50_fct")
def _p50_fct(collector: MetricsCollector) -> float:
    return collector.fct_percentile(50.0)


@register_metric("p95_fct")
def _p95_fct(collector: MetricsCollector) -> float:
    return collector.fct_percentile(95.0)


@register_metric("p99_fct")
def _p99_fct(collector: MetricsCollector) -> float:
    return collector.fct_percentile(99.0)


# fault-injection counters (repro.faults): harvested into
# ``collector.stats`` only when a scenario declares faults, so the
# metrics default to 0 on fault-free runs


@register_metric("reroutes")
def _reroutes(collector: MetricsCollector) -> float:
    """Flows re-pinned onto surviving paths after fault events."""
    return float(collector.stats.get("faults.reroutes", 0))


@register_metric("flows_rejected")
def _flows_rejected(collector: MetricsCollector) -> float:
    """Flows terminated because faults left them no route."""
    return float(collector.stats.get("faults.flows_rejected", 0))


@register_metric("fault_packets_dropped")
def _fault_packets_dropped(collector: MetricsCollector) -> float:
    """Packets released at failed links (packet engine only)."""
    return float(collector.stats.get("faults.packets_dropped", 0))


@register_metric("wire_losses")
def _wire_losses(collector: MetricsCollector) -> float:
    """Packets lost to random wire loss (loss rules / Fig 9)."""
    return float(collector.stats.get("net.wire_losses", 0))


# -- reducer registry ---------------------------------------------------------------

_REDUCERS: dict[str, Callable] = {}


def register_reducer(name: str) -> Callable:
    """Decorator: register a panel reducer under ``name``.

    A reducer takes the executed :class:`~repro.experiments.api.PanelRun`
    plus the panel's declared ``reducer_params`` as keywords and returns
    plain data.
    """

    def decorate(fn: Callable) -> Callable:
        _REDUCERS[name] = fn
        return fn

    return decorate


def reducer_kinds() -> list[str]:
    from repro.experiments.api import load_experiment_modules

    load_experiment_modules()
    return sorted(_REDUCERS)


def get_reducer(name: str) -> Callable:
    fn = _REDUCERS.get(name)
    if fn is None:
        from repro.experiments.api import load_experiment_modules

        load_experiment_modules()
        fn = _REDUCERS.get(name)
    if fn is None:
        from repro.campaign.registry import unknown_kind

        raise unknown_kind("reducer", name, reducer_kinds())
    return fn


# -- generic reducers ---------------------------------------------------------------


def normalize(series: dict[Any, float], reference: Any) -> dict[Any, float]:
    """Normalize a {label: value} series to one entry (Fig 4/5 style)."""
    base = series.get(reference)
    if base is None or base <= 0:
        raise ExperimentError(f"bad normalization reference {reference!r}")
    return {k: v / base for k, v in series.items()}


@register_reducer("series")
def series_reducer(run, x: str, series: str | None = None,
                   metric: str = "mean_fct",
                   normalize_to: Any | None = None) -> dict:
    """The classic figure shape.

    With ``series``: ``{series value: {x value: value}}``; without:
    a flat ``{x value: value}``. Grid panels average ``metric`` over the
    remaining axes (typically ``seed``); search panels use the searched
    value directly. ``normalize_to`` (flat form only) divides every
    entry by the entry at that key — "normalized to PDQ(Full)" series.
    """
    if series is None:
        flat = {
            cell[0]: value
            for cell, value in run.cell_values((x,), metric).items()
        }
        if normalize_to is not None:
            flat = normalize(flat, normalize_to)
        return flat
    if normalize_to is not None:
        raise ExperimentError(
            "normalize_to requires the flat (series=None) form; register "
            "a custom reducer for per-series normalization"
        )
    out: dict[Any, dict] = {s: {} for s in run.axis_values(series)}
    for (s_value, x_value), value in run.cell_values((series, x),
                                                     metric).items():
        out[s_value][x_value] = value
    return out


@register_reducer("table")
def table_reducer(run, metrics: Sequence[str] = ("mean_fct",),
                  by: Sequence[str] | None = None) -> dict:
    """Schema-first output: ``{"columns": [...], "rows": [[...]]}``.

    One row per grid cell grouped ``by`` the named axes (default: every
    axis except ``seed``), with each metric averaged over the grouped-out
    axes. Search panels emit a single ``value`` column instead.
    """
    axes = run.axis_names()
    group_by = list(by) if by is not None else [a for a in axes
                                               if a != "seed"]
    if run.found is not None:
        columns = group_by + ["value"]
        cells = run.cell_values(group_by, None)
        rows = [list(cell) + [value] for cell, value in cells.items()]
        return {"columns": columns, "rows": rows}
    if not metrics:
        raise ExperimentError("the table reducer needs at least one metric")
    columns = group_by + list(metrics)
    per_metric = [run.cell_values(group_by, m) for m in metrics]
    rows = []
    for cell in per_metric[0]:
        rows.append(list(cell) + [values[cell] for values in per_metric])
    return {"columns": columns, "rows": rows}
