"""Synthetic stand-in for the VL2 production-datacenter flow-size
distribution (Greenberg et al. [12], used in §5.3 / Fig 5a-b).

We do not have the measured trace; per the reproduction's substitution rule
we encode the published *shape*: the overwhelming majority of flows are
mice, while the majority of delivered bytes come from a small population of
elephants. The distribution below is a piecewise log-uniform mixture whose
band weights were chosen so that roughly 80 % of flows are under 40 KB
(the paper's deadline-constrained "short flow" cutoff) while the >=1 MB
band carries most of the bytes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.units import KBYTE, MBYTE
from repro.utils.rng import SeedLike, spawn_rng

#: (probability, low, high) log-uniform bands
VL2_BANDS: tuple[tuple[float, float, float], ...] = (
    (0.55, 2 * KBYTE, 10 * KBYTE),      # mice: queries, control messages
    (0.25, 10 * KBYTE, 100 * KBYTE),    # small transfers
    (0.15, 100 * KBYTE, 1 * MBYTE),     # medium transfers
    (0.05, 1 * MBYTE, 10 * MBYTE),      # elephants: most of the bytes
)

#: flows below this are treated as deadline-constrained short flows (§5.3)
SHORT_FLOW_CUTOFF = 40 * KBYTE


def vl2_flow_sizes(n: int, rng: SeedLike = None,
                   bands: Sequence[tuple[float, float, float]] = VL2_BANDS,
                   scale: float = 1.0,
                   cap_bytes: int | None = None) -> list[int]:
    """Draw ``n`` sizes from the VL2-like mixture; ``scale`` shrinks every
    band (handy for fast tests at the same shape) and ``cap_bytes``
    truncates the elephant tail (bounds packet-level simulation cost)."""
    if n < 0:
        raise WorkloadError(f"n must be >= 0, got {n}")
    total = sum(p for p, _, _ in bands)
    if abs(total - 1.0) > 1e-9:
        raise WorkloadError(f"band probabilities sum to {total}, not 1")
    gen = spawn_rng(rng, "sizes:vl2")
    probs = np.array([p for p, _, _ in bands])
    choices = gen.choice(len(bands), size=n, p=probs)
    sizes = []
    for band_index in choices:
        _, lo, hi = bands[band_index]
        lo, hi = lo * scale, hi * scale
        size = float(np.exp(gen.uniform(np.log(lo), np.log(hi))))
        if cap_bytes is not None:
            size = min(size, cap_bytes)
        sizes.append(max(1, int(size)))
    return sizes

