"""Per-flow records, the metrics collector, and summary statistics.

Both simulators (packet- and flow-level) report through the same
:class:`~repro.metrics.collector.MetricsCollector`, which makes paper
metrics -- application throughput (% of deadline flows finishing on time)
and flow completion time -- directly comparable across levels.
"""

from repro.metrics.collector import MetricsCollector
from repro.metrics.records import FlowRecord
from repro.metrics.streaming import (
    StreamingMetricsCollector,
    streaming_collector,
)
from repro.metrics.summary import SummaryStats, digest

__all__ = [
    "MetricsCollector",
    "FlowRecord",
    "SummaryStats",
    "digest",
    "StreamingMetricsCollector",
    "streaming_collector",
]
