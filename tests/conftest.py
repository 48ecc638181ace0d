"""Fixtures shared across the tier-1 test modules."""

import gc

import pytest

from repro.net.packet import Packet
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


@pytest.fixture
def live_packets():
    """``live_packets() -> int``: how many :class:`Packet` objects are
    alive right now, after a full collection. Packets are plain objects
    dropped at their sink (destination host, tail-drop, wire loss, failed
    link), so a drained run must bring the count back to where it was."""
    def count():
        gc.collect()
        return sum(1 for o in gc.get_objects() if type(o) is Packet)

    return count
