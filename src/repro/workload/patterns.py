"""Traffic patterns from §5.2-§5.3.

* Aggregation -- many senders to one receiver (the query-aggregation
  scenario; flows are spread over senders as evenly as possible).
* Stride(i) -- server x sends to server (x + i) mod N.
* Staggered Prob(p) -- destination under the same ToR with probability p,
  anywhere otherwise.
* Random Permutation -- 1-to-1 mapping, each server sends to exactly one
  randomly selected server and receives from exactly one.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import WorkloadError
from repro.topology.single_rooted import SingleRootedTree
from repro.utils.rng import SeedLike, spawn_rng
from repro.workload.flow import FlowSpec


def _build(pairs: Sequence[tuple], sizes: Sequence[int],
           deadlines: Sequence[float | None] | None,
           arrivals: Sequence[float] | None,
           fid_start: int) -> list[FlowSpec]:
    if len(pairs) != len(sizes):
        raise WorkloadError(
            f"{len(pairs)} pairs but {len(sizes)} sizes"
        )
    if deadlines is not None and len(deadlines) != len(pairs):
        raise WorkloadError("deadlines length mismatch")
    if arrivals is not None and len(arrivals) != len(pairs):
        raise WorkloadError("arrivals length mismatch")
    flows = []
    for i, ((src, dst), size) in enumerate(zip(pairs, sizes, strict=True)):
        flows.append(FlowSpec(
            fid=fid_start + i,
            src=src,
            dst=dst,
            size_bytes=int(size),
            arrival=arrivals[i] if arrivals is not None else 0.0,
            deadline=deadlines[i] if deadlines is not None else None,
        ))
    return flows


def aggregation_flows(senders: Sequence[str], receiver: str,
                      sizes: Sequence[int],
                      deadlines: Sequence[float | None] | None = None,
                      arrivals: Sequence[float] | None = None,
                      rng: SeedLike = None,
                      fid_start: int = 0) -> list[FlowSpec]:
    """Spread ``len(sizes)`` flows over ``senders`` toward ``receiver`` so
    each sender carries floor(f/n) or ceil(f/n) flows (§5.2 footnote)."""
    if not senders:
        raise WorkloadError("need at least one sender")
    gen = spawn_rng(rng, "pattern:aggregation")
    order = list(senders)
    gen.shuffle(order)
    pairs = [(order[i % len(order)], receiver) for i in range(len(sizes))]
    return _build(pairs, sizes, deadlines, arrivals, fid_start)


def stride_flows(hosts: Sequence[str], stride: int, sizes: Sequence[int],
                 deadlines: Sequence[float | None] | None = None,
                 arrivals: Sequence[float] | None = None,
                 fid_start: int = 0) -> list[FlowSpec]:
    """Stride(i): host x sends to host (x + i) mod N, one flow per entry
    of ``sizes``; past N entries the senders wrap around."""
    n = len(hosts)
    if n < 2:
        raise WorkloadError("stride needs >= 2 hosts")
    if stride % n == 0:
        raise WorkloadError(f"stride {stride} maps hosts onto themselves")
    pairs = [(hosts[x % n], hosts[(x + stride) % n])
             for x in range(len(sizes))]
    return _build(pairs, sizes, deadlines, arrivals, fid_start)


def staggered_flows(tree: SingleRootedTree, sizes: Sequence[int],
                    p_local: float,
                    deadlines: Sequence[float | None] | None = None,
                    arrivals: Sequence[float] | None = None,
                    rng: SeedLike = None,
                    fid_start: int = 0) -> list[FlowSpec]:
    """Staggered Prob(p): each flow's sender is random; its destination is
    under the same ToR with probability p, anywhere else otherwise."""
    if not 0.0 <= p_local <= 1.0:
        raise WorkloadError(f"p_local must be in [0, 1], got {p_local}")
    gen = spawn_rng(rng, "pattern:staggered")
    hosts = [f"h{i}" for i in range(tree.n_servers)]
    pairs = []
    for _ in sizes:
        src = hosts[int(gen.integers(len(hosts)))]
        same_rack = [
            h for h in hosts if h != src and tree.same_rack(h, src)
        ]
        other_rack = [
            h for h in hosts if not tree.same_rack(h, src)
        ]
        local = same_rack and (not other_rack or gen.random() < p_local)
        bucket = same_rack if local else other_rack
        dst = bucket[int(gen.integers(len(bucket)))]
        pairs.append((src, dst))
    return _build(pairs, sizes, deadlines, arrivals, fid_start)


def random_permutation_flows(hosts: Sequence[str], sizes: Sequence[int],
                             deadlines=None, arrivals=None,
                             rng: SeedLike = None,
                             fid_start: int = 0) -> list[FlowSpec]:
    """Random permutation: a derangement of hosts; round r maps host x to
    its image in a fresh derangement, so every host sends and receives
    exactly once per round. ``len(sizes)`` must be a multiple of
    ``len(hosts)`` (each round consumes one size per host)."""
    n = len(hosts)
    if n < 2:
        raise WorkloadError("permutation needs >= 2 hosts")
    if len(sizes) % n != 0:
        raise WorkloadError(
            f"{len(sizes)} sizes is not a whole number of rounds over "
            f"{n} hosts"
        )
    gen = spawn_rng(rng, "pattern:permutation")
    pairs = []
    for _ in range(len(sizes) // n):
        perm = _derangement(n, gen)
        pairs.extend((hosts[x], hosts[perm[x]]) for x in range(n))
    return _build(pairs, sizes, deadlines, arrivals, fid_start)


def _derangement(n: int, gen) -> list[int]:
    """Random permutation with no fixed points (rejection sampling)."""
    while True:
        perm = list(gen.permutation(n))
        if all(perm[i] != i for i in range(n)):
            return perm
