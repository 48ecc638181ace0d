"""Open-system workload: an arrival *process*, not a flow list.

The paper's figures are closed batches, but PDQ's headline claim is a
steady-state property; this builder expresses the load sweeps those
figures cannot: Poisson or heavy-tailed (Pareto) interarrivals at a
given flow rate — or at a target utilization of the host access links —
over a target *duration*, with flow sizes from the VL2 mixture (or the
uniform/Pareto families of :mod:`repro.workload.sizes`) between
uniformly random host pairs. Short flows optionally carry exponential
deadlines, mirroring :func:`repro.experiments.fig5.vl2_workload`.

The result is a :class:`~repro.workload.stream.FlowStream`: nothing is
materialized beyond one block of :data:`BLOCK_FLOWS` flows. Every draw
comes from one ``spawn_rng(seed, "workload:open_system")`` stream, one
array call per quantity per block, in a fixed order: interarrival gaps,
size band (VL2 only), in-band position (or the uniform / Pareto size),
src, dst, and — with ``mean_deadline`` set — deadline. Arrival times
are the sequential left fold of the gaps, so they never decrease. The
block holding the end of the window is drawn whole and cut at the
first arrival at or past it. The determinism contract is that order
plus ``BLOCK_FLOWS``: a given (seed, params) pair yields the identical
flow sequence whether it is consumed by the fluid engine, the packet
engine, or ``materialize()`` in a test, and changing either changes
every stream.

Registered as the ``open_system`` workload kind in
:mod:`repro.campaign.registry`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat

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


def _require(ok: bool, name: str, want: str, value: object) -> None:
    """Raise a :class:`WorkloadError` naming ``name`` unless ``ok``.
    Callers spell ``ok`` as a comparison NaN fails."""
    if not ok:
        raise WorkloadError(f"{name} must be {want}, got {value}")


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
    Every numeric parameter is checked up front: a NaN, an infinity or
    a value out of range raises a :class:`WorkloadError` naming it.
    """
    inf = math.inf
    _require(0 < duration < inf, "duration", "finite and positive", duration)
    _require(0 <= start < inf, "start", "finite and >= 0", start)
    _require(0 <= drain < inf, "drain", "finite and >= 0", drain)
    if arrival not in ("poisson", "pareto"):
        raise WorkloadError(
            f"unknown arrival process {arrival!r} (poisson or pareto)"
        )
    if arrival == "pareto":
        _require(1.0 < arrival_shape < inf, "arrival_shape",
                 "finite and > 1 for a finite mean gap", arrival_shape)
    if sizes not in ("vl2", "uniform", "pareto"):
        raise WorkloadError(
            f"unknown size distribution {sizes!r} (vl2, uniform or pareto)"
        )
    if sizes == "pareto":
        _require(1.0 < size_tail_index < inf, "size_tail_index",
                 "finite and > 1", size_tail_index)
        _require(0 < mean_size_bytes < inf, "mean_size_bytes",
                 "finite and positive for pareto sizes", mean_size_bytes)
    if sizes == "uniform":
        _require(2 * KBYTE <= mean_size_bytes < inf, "mean_size_bytes",
                 f"finite and >= {2 * KBYTE} for uniform sizes "
                 f"(the 2 KB floor)", mean_size_bytes)
    _require(0 < size_scale < inf, "size_scale", "finite and positive",
             size_scale)
    if cap_bytes is not None:
        _require(cap_bytes > 0, "cap_bytes", "positive", cap_bytes)
    if mean_deadline is not None:
        _require(0 < mean_deadline < inf, "mean_deadline",
                 "finite and positive", mean_deadline)
    if deadline_cutoff is None:
        deadline_cutoff = SHORT_FLOW_CUTOFF * size_scale
    _require(deadline_cutoff >= 0, "deadline_cutoff", ">= 0",
             deadline_cutoff)
    if rate_per_sec is None and target_load is not None:
        _require(0 < target_load < inf, "target_load", "finite and positive",
                 target_load)
        if sizes == "vl2":
            mean_size = vl2_mixture_mean(scale=size_scale,
                                         cap_bytes=cap_bytes)
        else:
            mean_size = float(mean_size_bytes)
        rate_per_sec = target_load * host_access_bps(topology) / (
            8.0 * mean_size
        )
    elif rate_per_sec is None or target_load is not None:
        raise WorkloadError(
            "open_system needs exactly one of rate_per_sec / target_load"
        )
    _require(0 < rate_per_sec < inf, "rate_per_sec", "finite and positive",
             rate_per_sec)
    _require(rate_per_sec * duration < inf, "rate_per_sec * duration",
             "finite", rate_per_sec * duration)
    hosts = list(topology.hosts)
    if len(hosts) < 2:
        raise WorkloadError("open_system needs at least two hosts")
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


#: flows drawn per block; with the draw order, part of the determinism
#: contract of the module docstring (changing it changes every stream)
BLOCK_FLOWS = 256

#: sizes are clipped here before the integer conversion, so a freak
#: Pareto draw cannot overflow int64
_MAX_SIZE_BYTES = 2.0 ** 62


def _generate(hosts: list[str], rng: np.random.Generator, end: float,
              start: float, mean_gap: float, arrival: str,
              arrival_shape: float, sizes: str, mean_size_bytes: float,
              size_scale: float, cap_bytes: int | None,
              size_tail_index: float, mean_deadline: float | None,
              deadline_cutoff: float) -> Iterator[FlowSpec]:
    """Yield flows block by block, one array draw per quantity per
    block, in the order the module docstring fixes."""
    n = BLOCK_FLOWS
    names = np.array(hosts, dtype=object)
    n_hosts = len(hosts)
    # the band is the number of cumulative thresholds below the pick
    # (the last threshold is 1 and a pick is < 1, so it is left out)
    thresholds = np.cumsum([p for p, _, _ in VL2_BANDS])[:-1]
    log_lo = np.log([lo * size_scale for _, lo, _ in VL2_BANDS])
    log_span = np.log([hi * size_scale for _, _, hi in VL2_BANDS]) - log_lo
    # Pareto interarrivals: xm * (1 + Pareto(a)) has mean xm * a / (a - 1)
    gap_xm = mean_gap * (arrival_shape - 1.0) / arrival_shape
    uni_lo = 2 * KBYTE
    uni_hi = 2.0 * mean_size_bytes - uni_lo
    pareto_xm = mean_size_bytes * (size_tail_index - 1.0) / size_tail_index
    t = start
    fid = 0
    while True:
        if arrival == "poisson":
            gaps = rng.exponential(mean_gap, n)
        else:
            gaps = gap_xm * (1.0 + rng.pareto(arrival_shape, n))
        # the left fold of [t, *gaps]: the same float sums as t += gap
        gaps[0] += t
        arrivals = np.add.accumulate(gaps)
        size: np.ndarray
        if sizes == "vl2":
            band = np.searchsorted(thresholds, rng.random(n))
            size = np.exp(log_lo[band] + log_span[band] * rng.random(n))
            if cap_bytes is not None:
                np.minimum(size, cap_bytes, out=size)
        elif sizes == "uniform":
            size = uni_lo + (uni_hi - uni_lo) * rng.random(n)
        else:
            size = pareto_xm * (1.0 + rng.pareto(size_tail_index, n))
        # truncation toward zero with a 1-byte floor: max(1, int(size))
        size_bytes = np.clip(size, 1.0, _MAX_SIZE_BYTES).astype(np.int64)
        src = rng.integers(n_hosts, size=n)
        dst = rng.integers(n_hosts - 1, size=n)
        dst += dst >= src
        deadlines: Iterable[float | None] = repeat(None)
        if mean_deadline is not None:
            deadlines = np.where(size_bytes < deadline_cutoff,
                                 rng.exponential(mean_deadline, n),
                                 None).tolist()
        # flows arriving at or past ``end`` are cut; map stops with range
        count = int(np.searchsorted(arrivals, end))
        yield from map(FlowSpec, range(fid, fid + count),
                       names[src].tolist(), names[dst].tolist(),
                       size_bytes.tolist(), arrivals.tolist(), deadlines)
        if count < n:
            return
        fid += n
        t = arrivals[-1]
