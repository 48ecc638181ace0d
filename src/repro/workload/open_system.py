"""Open-system workload: an arrival *process*, not a flow list.

The paper's figures are closed batches, but PDQ's headline claim is a
steady-state property; this builder expresses the load sweeps those
figures cannot: Poisson or heavy-tailed (Pareto) interarrivals at a
given flow rate — or at a target utilization of the host access links —
over a target *duration*, with per-flow sizes drawn one at a time from
the VL2 mixture (or the uniform/Pareto families of
:mod:`repro.workload.sizes`) between uniformly random host pairs. Short
flows optionally carry exponential deadlines, mirroring
:func:`repro.experiments.fig5.vl2_workload`.

The result is a :class:`~repro.workload.stream.FlowStream`: nothing is
materialized, every draw comes from one ``spawn_rng(seed,
"workload:open_system")`` stream in a fixed per-flow order (interarrival,
size band, size, src, dst, deadline), so a given (seed, params) pair
yields the identical flow sequence whether it is consumed by the fluid
engine, the packet engine, or ``materialize()`` in a test.

Registered as the ``open_system`` workload kind in
:mod:`repro.campaign.registry`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.topology.base import Topology
from repro.units import KBYTE
from repro.utils.rng import spawn_rng
from repro.workload.flow import FlowSpec
from repro.workload.stream import FlowStream
from repro.workload.vl2 import SHORT_FLOW_CUTOFF, VL2_BANDS


def log_uniform_band_mean(lo: float, hi: float,
                          cap: float | None = None) -> float:
    """Analytic mean of a log-uniform draw on [lo, hi], optionally
    truncated at ``cap``: for X = exp(U), U ~ Unif(ln lo, ln hi),
    E[X] = (hi - lo) / ln(hi / lo) and
    E[min(X, c)] = ((c - lo) + c * ln(hi / c)) / ln(hi / lo)."""
    if not 0 < lo < hi:
        raise WorkloadError(f"bad log-uniform band [{lo}, {hi}]")
    span = math.log(hi / lo)
    if cap is None or cap >= hi:
        return (hi - lo) / span
    if cap <= lo:
        return float(cap)
    return ((cap - lo) + cap * math.log(hi / cap)) / span


def vl2_mixture_mean(bands: Sequence[tuple[float, float, float]] = VL2_BANDS,
                     scale: float = 1.0,
                     cap_bytes: float | None = None) -> float:
    """Analytic mean flow size of the VL2 band mixture (used to convert
    ``target_load`` into an arrival rate without sampling)."""
    return sum(
        p * log_uniform_band_mean(lo * scale, hi * scale, cap_bytes)
        for p, lo, hi in bands
    )


def host_access_bps(topology: Topology) -> float:
    """Aggregate host access capacity: the sum over hosts of each host's
    slowest incident link. Every flow's bytes leave exactly one source
    host, so ``arrival_rate * mean_size_bits / host_access_bps`` is the
    mean source-side utilization under uniformly random sources."""
    graph = topology.graph
    total = 0.0
    for host in topology.hosts:
        rates = [data["rate_bps"] for _, _, data in
                 graph.edges(host, data=True)]
        if not rates:
            raise WorkloadError(f"host {host!r} has no links")
        total += min(rates)
    return total


def open_system(
    topology: Topology,
    seed: int,
    *,
    duration: float,
    rate_per_sec: float | None = None,
    target_load: float | None = None,
    arrival: str = "poisson",
    arrival_shape: float = 1.5,
    sizes: str = "vl2",
    mean_size_bytes: float = 100 * KBYTE,
    size_scale: float = 1.0,
    cap_bytes: int | None = 1_000_000,
    size_tail_index: float = 1.1,
    mean_deadline: float | None = None,
    deadline_cutoff: float | None = None,
    drain: float = 1.0,
    start: float = 0.0,
) -> FlowStream:
    """Build an open-system :class:`FlowStream` over ``topology``.

    Exactly one of ``rate_per_sec`` (flows/sec) and ``target_load``
    (mean source-access-link utilization in [0, 1)) sizes the process.
    ``arrival`` is ``"poisson"`` or ``"pareto"`` (heavy-tailed
    interarrivals with tail index ``arrival_shape`` > 1, same mean gap).
    ``sizes`` is ``"vl2"`` (``size_scale``/``cap_bytes`` as in
    :func:`~repro.workload.vl2.vl2_flow_sizes`), ``"uniform"`` or
    ``"pareto"`` (both around ``mean_size_bytes``). With
    ``mean_deadline`` set, flows smaller than ``deadline_cutoff``
    (default: the scaled 40 KB short-flow cutoff) draw exponential
    deadlines. The stream's horizon is ``start + duration + drain``.
    """
    if duration <= 0:
        raise WorkloadError(f"duration must be positive, got {duration}")
    if (rate_per_sec is None) == (target_load is None):
        raise WorkloadError(
            "open_system needs exactly one of rate_per_sec / target_load"
        )
    if arrival not in ("poisson", "pareto"):
        raise WorkloadError(
            f"unknown arrival process {arrival!r} (poisson or pareto)"
        )
    if arrival == "pareto" and arrival_shape <= 1.0:
        raise WorkloadError(
            f"arrival_shape must be > 1 for a finite mean gap, "
            f"got {arrival_shape}"
        )
    if sizes not in ("vl2", "uniform", "pareto"):
        raise WorkloadError(
            f"unknown size distribution {sizes!r} (vl2, uniform or pareto)"
        )
    if sizes == "pareto" and size_tail_index <= 1.0:
        raise WorkloadError(
            f"size tail index must be > 1, got {size_tail_index}"
        )
    if sizes == "uniform" and mean_size_bytes < 2 * KBYTE:
        raise WorkloadError(
            f"mean_size_bytes must be >= {2 * KBYTE} for uniform sizes "
            f"(the 2 KB floor), got {mean_size_bytes}"
        )
    if cap_bytes is not None and cap_bytes <= 0:
        raise WorkloadError(f"cap_bytes must be positive, got {cap_bytes}")
    if mean_deadline is not None and mean_deadline <= 0:
        raise WorkloadError(
            f"mean_deadline must be positive, got {mean_deadline}"
        )
    if drain < 0:
        raise WorkloadError(f"drain must be >= 0, got {drain}")
    if sizes == "vl2":
        mean_size = vl2_mixture_mean(scale=size_scale, cap_bytes=cap_bytes)
    else:
        mean_size = float(mean_size_bytes)
    if target_load is not None:
        if not 0.0 < target_load:
            raise WorkloadError(
                f"target_load must be positive, got {target_load}"
            )
        rate_per_sec = target_load * host_access_bps(topology) / (
            8.0 * mean_size
        )
    if rate_per_sec <= 0:
        raise WorkloadError(f"rate must be positive, got {rate_per_sec}")
    hosts = list(topology.hosts)
    if len(hosts) < 2:
        raise WorkloadError("open_system needs at least two hosts")
    if deadline_cutoff is None:
        deadline_cutoff = SHORT_FLOW_CUTOFF * size_scale
    generator = _generate(
        hosts=hosts,
        rng=spawn_rng(seed, "workload:open_system"),
        end=start + duration,
        start=start,
        mean_gap=1.0 / rate_per_sec,
        arrival=arrival,
        arrival_shape=arrival_shape,
        sizes=sizes,
        mean_size_bytes=float(mean_size_bytes),
        size_scale=size_scale,
        cap_bytes=cap_bytes,
        size_tail_index=size_tail_index,
        mean_deadline=mean_deadline,
        deadline_cutoff=deadline_cutoff,
    )
    return FlowStream(
        generator,
        horizon=start + duration + drain,
        expected_flows=int(rate_per_sec * duration),
    )


def _generate(hosts: list[str], rng: np.random.Generator, end: float,
              start: float, mean_gap: float, arrival: str,
              arrival_shape: float, sizes: str, mean_size_bytes: float,
              size_scale: float, cap_bytes: int | None,
              size_tail_index: float, mean_deadline: float | None,
              deadline_cutoff: float) -> Iterator[FlowSpec]:
    """One flow per iteration, O(1) state; draw order is part of the
    determinism contract documented in the module docstring."""
    n_hosts = len(hosts)
    # cumulative band thresholds for the per-flow VL2 band pick
    cum = []
    acc = 0.0
    for p, lo, hi in VL2_BANDS:
        acc += p
        cum.append((acc, math.log(lo * size_scale), math.log(hi * size_scale)))
    # Pareto interarrivals: xm * (1 + Pareto(a)) has mean xm * a / (a - 1)
    gap_xm = mean_gap * (arrival_shape - 1.0) / arrival_shape
    uni_lo = 2 * KBYTE
    uni_hi = 2.0 * mean_size_bytes - uni_lo
    pareto_xm = mean_size_bytes * (size_tail_index - 1.0) / size_tail_index
    t = start
    fid = 0
    while True:
        if arrival == "poisson":
            t += float(rng.exponential(mean_gap))
        else:
            t += gap_xm * (1.0 + float(rng.pareto(arrival_shape)))
        if t >= end:
            return
        # a uniform draw on [lo, hi) is numpy's own
        # ``lo + (hi - lo) * random()``, spelled out to skip the
        # argument handling of ``Generator.uniform``
        if sizes == "vl2":
            u = float(rng.random())
            log_lo, log_hi = cum[-1][1], cum[-1][2]
            for threshold, band_lo, band_hi in cum:
                if u <= threshold:
                    log_lo, log_hi = band_lo, band_hi
                    break
            size = math.exp(log_lo + (log_hi - log_lo) * rng.random())
            if cap_bytes is not None and size > cap_bytes:
                size = cap_bytes
        elif sizes == "uniform":
            size = uni_lo + (uni_hi - uni_lo) * rng.random()
        else:
            size = pareto_xm * (1.0 + float(rng.pareto(size_tail_index)))
        size_bytes = max(1, int(size))
        src_i = int(rng.integers(n_hosts))
        dst_i = int(rng.integers(n_hosts - 1))
        if dst_i >= src_i:
            dst_i += 1
        deadline = None
        if mean_deadline is not None and size_bytes < deadline_cutoff:
            deadline = float(rng.exponential(mean_deadline))
        yield FlowSpec(fid, hosts[src_i], hosts[dst_i], size_bytes, t,
                       deadline)
        fid += 1
