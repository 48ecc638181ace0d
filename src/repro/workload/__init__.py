"""Workload generation: flow specifications, size/deadline distributions,
the paper's traffic patterns (§5.2-§5.3), Poisson arrival processes, and
synthetic stand-ins for the two measured datacenter workloads.
"""

from repro.workload.arrivals import poisson_arrivals
from repro.workload.deadlines import exponential_deadlines
from repro.workload.flow import FlowSpec
from repro.workload.open_system import open_system, vl2_mixture_mean
from repro.workload.stream import FlowStream
from repro.workload.patterns import (
    aggregation_flows,
    random_permutation_flows,
    staggered_flows,
    stride_flows,
)
from repro.workload.sizes import pareto_sizes, uniform_sizes
from repro.workload.vl2 import vl2_flow_sizes
from repro.workload.edu import edu1_flow_summaries

__all__ = [
    "FlowSpec",
    "FlowStream",
    "open_system",
    "vl2_mixture_mean",
    "aggregation_flows",
    "stride_flows",
    "staggered_flows",
    "random_permutation_flows",
    "uniform_sizes",
    "pareto_sizes",
    "exponential_deadlines",
    "poisson_arrivals",
    "vl2_flow_sizes",
    "edu1_flow_summaries",
]
