"""Telemetry for simulation runs and campaigns (the observability layer).

Four surfaces, all riding on the existing result plumbing:

* :mod:`repro.obs.stats` — cheap monotonic run counters harvested from
  both engines into ``MetricsCollector.stats`` (always on; plain int
  reads at end of run, zero per-event cost).
* :mod:`repro.obs.probes` — declarative time-series probes (link
  utilization / queue occupancy, per-flow rates) requested through the
  ``probes`` scenario option and materialized on either engine.
* :mod:`repro.obs.trace` — opt-in flow-lifecycle traces (arrival, rate
  change, pause, resume, completion, termination) behind the ``trace``
  scenario option, exportable as JSONL.
* :mod:`repro.obs.report` — ``python -m repro report``: summarize a
  result store (cache hit rate, slowest cells, counter aggregates,
  validation tolerance margins).

:mod:`repro.obs.log` wires stdlib logging behind the CLI ``-v``/``-q``
flags; everything logs under the ``repro.*`` logger hierarchy.
"""

from repro.obs.probes import (
    attach_fluid_probes,
    attach_packet_probes,
    collect_probes,
)
from repro.obs.stats import RunStats, harvest_fluid_run, harvest_packet_run
from repro.obs.trace import FlowTracer, write_trace_jsonl

__all__ = [
    "FlowTracer",
    "RunStats",
    "attach_fluid_probes",
    "attach_packet_probes",
    "collect_probes",
    "harvest_fluid_run",
    "harvest_packet_run",
    "write_trace_jsonl",
]
