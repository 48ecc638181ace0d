"""Fixtures shared across the tier-1 test modules."""

import pytest

from repro.topology.single_rooted import SingleRootedTree
from repro.workload.open_system import open_system


@pytest.fixture
def stream_vl2():
    """``stream_vl2(n_flows, seed=1) -> (topology, stream)``: an
    open-system VL2-mix stream of ``n_flows`` expected arrivals on the
    single-rooted tree, at 100k arrivals per simulated second. Sizes are
    scaled down so per-flow service time stays well under the mean
    interarrival gap: the live flow set — and with it peak memory — is
    O(concurrency), independent of ``n_flows``."""
    def build(n_flows, seed=1):
        topology = SingleRootedTree()
        stream = open_system(topology, seed, duration=n_flows / 1e5,
                             rate_per_sec=1e5, size_scale=0.005)
        return topology, stream

    return build
