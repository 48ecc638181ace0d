"""The open-system stream's law, its block contract, its input checks,
and the streaming collector's Algorithm L reservoir.

The flow sequence of a seed is pinned bit for bit in
test_fluid_digest_pins; here the *distribution* is pinned instead, so a
re-baseline of the bits cannot quietly change what is being sampled.
Every statistical bound is ``K`` standard errors of its own sampling
error, computed from the analytic law, with a fixed seed.
"""

import importlib
import math
import signal
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro.campaign.engines import run_flow_level
from repro.errors import WorkloadError
from repro.metrics import MetricsCollector, StreamingMetricsCollector
from repro.topology.single_rooted import SingleRootedTree
from repro.units import KBYTE, MSEC
from repro.workload.flow import FlowSpec
from repro.workload.open_system import (
    BLOCK_FLOWS,
    open_system,
    vl2_mixture_mean,
)
from repro.workload.vl2 import SHORT_FLOW_CUTOFF, VL2_BANDS

# the package re-exports the builder under the module's name
open_system_module = importlib.import_module("repro.workload.open_system")

#: standard errors allowed on every statistical bound
K = 4.0

RATE = 200_000.0
DURATION = 0.25
MEAN_DEADLINE = 5 * MSEC


def _topo():
    return SingleRootedTree(n_tors=4, servers_per_tor=3)


def _within(got, want, sigma):
    assert abs(got - want) <= K * sigma, (got, want, sigma)


@pytest.fixture(scope="module")
def vl2_flows():
    """About 50 000 VL2 flows at full size scale (the default 1 MB cap),
    short flows with deadlines."""
    return open_system(_topo(), 101, duration=DURATION, rate_per_sec=RATE,
                       mean_deadline=MEAN_DEADLINE).materialize()


# -- the law of the stream ----------------------------------------------------


class TestStreamLaw:
    def test_flow_rate(self, vl2_flows):
        # a Poisson count: variance equals the mean
        expected = RATE * DURATION
        _within(len(vl2_flows), expected, math.sqrt(expected))

    def test_pareto_arrival_rate(self):
        # a renewal count has variance (rate * duration) * CV^2 of the
        # gap; 1 + Pareto(3) has mean 3/2 and variance 3/4, CV^2 = 1/3
        flows = open_system(_topo(), 102, duration=DURATION,
                            rate_per_sec=RATE, arrival="pareto",
                            arrival_shape=3.0).materialize()
        expected = RATE * DURATION
        _within(len(flows), expected, math.sqrt(expected / 3.0))

    def test_mean_size(self, vl2_flows):
        # the integer truncation moves the mean by under 1 byte, far
        # inside the bound
        sizes = np.array([f.size_bytes for f in vl2_flows], dtype=float)
        sigma = sizes.std() / math.sqrt(len(sizes))
        _within(sizes.mean(), vl2_mixture_mean(cap_bytes=1_000_000), sigma)

    def test_band_frequencies(self, vl2_flows):
        # bands are contiguous on whole bytes, and the 1 MB cap folds
        # the elephant band onto its lower edge
        edges = [lo for _, lo, _ in VL2_BANDS[1:]]
        counts = Counter(int(np.searchsorted(edges, f.size_bytes,
                                             side="right"))
                         for f in vl2_flows)
        n = len(vl2_flows)
        for band, (p, _, _) in enumerate(VL2_BANDS):
            _within(counts[band] / n, p, math.sqrt(p * (1 - p) / n))

    def test_host_pairs_are_uniform(self, vl2_flows):
        hosts = list(_topo().hosts)
        pairs = Counter((f.src, f.dst) for f in vl2_flows)
        cells = len(hosts) * (len(hosts) - 1)
        assert len(pairs) == cells
        assert all(src != dst for src, dst in pairs)
        expected = len(vl2_flows) / cells
        chi2 = sum((c - expected) ** 2 / expected for c in pairs.values())
        # chi-square with cells - 1 degrees of freedom: mean dof,
        # variance 2 dof
        dof = cells - 1
        _within(chi2, dof, math.sqrt(2 * dof))

    def test_deadline_fraction_and_mean(self, vl2_flows):
        # P(size < 40 KB): the mice band, plus the log-uniform share of
        # the 10-100 KB band below the cutoff
        _, lo, hi = VL2_BANDS[1]
        p = VL2_BANDS[0][0] + VL2_BANDS[1][0] * (
            math.log(SHORT_FLOW_CUTOFF / lo) / math.log(hi / lo))
        n = len(vl2_flows)
        deadlines = [f.deadline for f in vl2_flows if f.deadline is not None]
        assert all(f.size_bytes < SHORT_FLOW_CUTOFF
                   for f in vl2_flows if f.deadline is not None)
        assert all(f.deadline is not None
                   for f in vl2_flows if f.size_bytes < SHORT_FLOW_CUTOFF)
        _within(len(deadlines) / n, p, math.sqrt(p * (1 - p) / n))
        # an exponential's standard deviation equals its mean
        _within(sum(deadlines) / len(deadlines), MEAN_DEADLINE,
                MEAN_DEADLINE / math.sqrt(len(deadlines)))

    def test_uniform_mean(self):
        mean = 30 * KBYTE
        sizes = [f.size_bytes for f in open_system(
            _topo(), 103, duration=0.1, rate_per_sec=RATE,
            sizes="uniform", mean_size_bytes=mean).materialize()]
        assert min(sizes) >= 2 * KBYTE and max(sizes) < 2 * mean - 2 * KBYTE
        sd = (2 * mean - 4 * KBYTE) / math.sqrt(12.0)
        _within(sum(sizes) / len(sizes), mean, sd / math.sqrt(len(sizes)))

    def test_pareto_mean(self):
        # tail index 4 gives the size a finite variance: 1 + Pareto(a)
        # has variance a / ((a - 1)^2 (a - 2)), scaled by xm
        mean, a = 30 * KBYTE, 4.0
        sizes = [f.size_bytes for f in open_system(
            _topo(), 104, duration=0.1, rate_per_sec=RATE, sizes="pareto",
            mean_size_bytes=mean, size_tail_index=a).materialize()]
        xm = mean * (a - 1) / a
        sd = xm * math.sqrt(a / ((a - 1) ** 2 * (a - 2)))
        assert min(sizes) >= int(xm)
        _within(sum(sizes) / len(sizes), mean, sd / math.sqrt(len(sizes)))


# -- the block contract -------------------------------------------------------


def _short_stream(**kw):
    return open_system(_topo(), 9, duration=0.012, rate_per_sec=100_000.0,
                       size_scale=0.01, **kw)


class TestBlocks:
    def test_microsecond_windows_equal_materialize(self):
        flows = _short_stream(mean_deadline=MEAN_DEADLINE).materialize()
        assert len(flows) > 3 * BLOCK_FLOWS
        assert any(f.deadline is not None for f in flows)
        stream = _short_stream(mean_deadline=MEAN_DEADLINE)
        drained = []
        window = 0
        while not stream.exhausted:
            window += 1
            drained.extend(stream.take_until(window * 1e-6))
        assert drained == flows
        assert stream.emitted == len(flows)

    def test_one_array_draw_per_quantity_per_block(self, recorded):
        flows, draws = recorded(mean_deadline=MEAN_DEADLINE)
        # the block holding the end of the window is drawn whole
        blocks = len(flows) // BLOCK_FLOWS + 1
        assert blocks >= 4
        # gaps, band, position, src, dst, deadline
        assert [name for name, _ in draws] == [
            "exponential", "random", "random", "integers", "integers",
            "exponential"] * blocks
        assert all(len(values) == BLOCK_FLOWS for _, values in draws)

    def test_columns_match_the_scalar_loop(self, recorded):
        """The per-flow loop the blocks replace, run over the same
        draws: arrivals are its ``t += gap`` fold bit for bit, and the
        host pair is its ``dst += dst >= src`` skip."""
        flows, draws = recorded()
        hosts = list(_topo().hosts)
        t = 0.0
        arrivals, pairs = [], []
        for b in range(0, len(draws), 5):
            gaps, _, _, src, dst = (values for _, values in draws[b:b + 5])
            for gap, s, d in zip(gaps.tolist(), src.tolist(), dst.tolist()):
                t += gap
                arrivals.append(t)
                pairs.append((hosts[s], hosts[d + (d >= s)]))
        assert [f.arrival for f in flows] == arrivals[:len(flows)]
        assert [(f.src, f.dst) for f in flows] == pairs[:len(flows)]
        assert arrivals[len(flows)] >= 0.012 > arrivals[len(flows) - 1]


@pytest.fixture
def recorded(monkeypatch):
    """``recorded(**params) -> (flows, draws)``: materialise
    :func:`_short_stream` while recording each generator call of the
    stream as ``(method name, returned array)``, in call order."""
    class RecordingRng:
        def __init__(self, rng):
            self._rng = rng
            self.draws = []

        def __getattr__(self, name):
            method = getattr(self._rng, name)

            def record(*args, **kwargs):
                values = method(*args, **kwargs)
                self.draws.append((name, values.copy()))
                return values

            return record

    made = []
    real = open_system_module.spawn_rng

    def spawn(*args):
        made.append(RecordingRng(real(*args)))
        return made[-1]

    def run(**params):
        monkeypatch.setattr(open_system_module, "spawn_rng", spawn)
        flows = _short_stream(**params).materialize()
        (rng,) = made
        made.clear()
        return flows, rng.draws

    return run


# -- hostile inputs -----------------------------------------------------------


@contextmanager
def _within_seconds(seconds):
    """Fail instead of hanging: SIGALRM interrupts the body."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestHostileInputs:
    def test_nan_pareto_arrival_shape_is_rejected_not_hung(self):
        topology = _topo()
        with _within_seconds(20), \
                pytest.raises(WorkloadError, match="arrival_shape"):
            stream = open_system(topology, 1, duration=0.01,
                                 rate_per_sec=1000.0, arrival="pareto",
                                 arrival_shape=math.nan, size_scale=0.01)
            run_flow_level(topology, "RCP", stream,
                           sim_deadline=stream.horizon)

    @pytest.mark.parametrize("params, name", [
        ({"rate_per_sec": math.inf}, "rate_per_sec"),
        ({"rate_per_sec": math.nan}, "rate_per_sec"),
        ({"duration": math.inf}, "duration"),
        ({"duration": math.nan}, "duration"),
        ({"sizes": "pareto", "size_tail_index": math.nan},
         "size_tail_index"),
        ({"mean_deadline": math.nan}, "mean_deadline"),
        ({"sizes": "pareto", "mean_size_bytes": 0}, "mean_size_bytes"),
        ({"sizes": "pareto", "mean_size_bytes": -5.0}, "mean_size_bytes"),
        ({"deadline_cutoff": -1.0}, "deadline_cutoff"),
        ({"start": math.nan}, "start"),
        ({"drain": math.nan}, "drain"),
    ], ids=["inf-rate", "nan-rate", "inf-duration", "nan-duration",
            "nan-tail-index", "nan-mean-deadline", "zero-pareto-mean",
            "negative-pareto-mean", "negative-deadline-cutoff",
            "nan-start", "nan-drain"])
    def test_rejected_up_front_naming_the_parameter(self, params, name):
        kwargs = {"duration": 0.01, "rate_per_sec": 1000.0, **params}
        with pytest.raises(WorkloadError, match=name):
            open_system(_topo(), 1, **kwargs)

    def test_huge_sizes_clip_instead_of_wrapping(self):
        # a size past int64 would wrap negative in the array conversion
        flows = open_system(_topo(), 1, duration=0.01, rate_per_sec=1000.0,
                            sizes="uniform",
                            mean_size_bytes=1e19).materialize()
        assert flows and all(0 < f.size_bytes <= 2 ** 62 for f in flows)

    def test_flow_spec_rejects_nan_arrival_and_deadline(self):
        with pytest.raises(WorkloadError, match="arrival"):
            FlowSpec(0, "h0", "h1", KBYTE, arrival=math.nan)
        with pytest.raises(WorkloadError, match="deadline"):
            FlowSpec(0, "h0", "h1", KBYTE, deadline=math.nan)


# -- Algorithm L --------------------------------------------------------------


def _specs(n):
    return [FlowSpec(fid, "h0", "h1", KBYTE, arrival=0.0)
            for fid in range(n)]


def _sample(specs, k, seed):
    """Resolve ``specs`` in order through a collector with a
    ``k``-record reservoir; every third flow is terminated, not
    completed, since both folds feed the reservoir."""
    collector = StreamingMetricsCollector(reservoir_size=k, seed=seed)
    for spec in specs:
        collector.register(spec)
        if spec.fid % 3 == 2:
            collector.on_terminated(spec.fid, 1.0, "test")
        else:
            collector.on_complete(spec.fid, 1.0)
    return collector


class TestAlgorithmL:
    @pytest.mark.parametrize("n, k", [(40, 8), (6, 1)])
    def test_inclusion_frequency_is_k_over_n(self, n, k):
        seeds = 2500
        specs = _specs(n)
        hits = Counter()
        for seed in range(seeds):
            collector = _sample(specs, k, seed)
            assert len(collector.reservoir) == k
            hits.update(r.spec.fid for r in collector.reservoir)
        p = k / n
        sigma = math.sqrt(p * (1 - p) / seeds)
        for fid in range(n):
            _within(hits[fid] / seeds, p, sigma)

    @pytest.mark.parametrize("n", [0, 1, 7, 10])
    def test_keeps_everything_in_order_when_n_fits(self, n):
        collector = _sample(_specs(n), 10, seed=3)
        assert [r.spec.fid for r in collector.reservoir] == list(range(n))

    def test_empty_reservoir(self):
        collector = _sample(_specs(50), 0, seed=4)
        assert collector.reservoir == []
        block = collector.to_dict()["streaming"]
        assert block["n_sampled"] == 0 and block["resolved_seen"] == 50
        assert collector.records == {}

    def test_round_trip(self):
        collector = _sample(_specs(300), 16, seed=5)
        payload = collector.to_dict()
        restored = MetricsCollector.from_dict(payload)
        assert isinstance(restored, StreamingMetricsCollector)
        assert restored.to_dict() == payload
        assert [r.spec.fid for r in restored.reservoir] == \
            sorted(r.spec.fid for r in collector.reservoir)
        assert payload["streaming"]["n_sampled"] == 16
        assert payload["streaming"]["resolved_seen"] == 300
