"""Flow arrival processes."""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.utils.rng import SeedLike, spawn_rng


def poisson_arrivals(rate_per_sec: float, duration: float,
                     rng: SeedLike = None, start: float = 0.0) -> list[float]:
    """Poisson process arrivals over [start, start + duration) (§5.3's flow
    arrival rate sweeps)."""
    if rate_per_sec <= 0:
        raise WorkloadError(f"rate must be positive, got {rate_per_sec}")
    if duration <= 0:
        raise WorkloadError(f"duration must be positive, got {duration}")
    gen = spawn_rng(rng, "arrivals:poisson")
    arrivals = []
    t = start
    while True:
        t += float(gen.exponential(1.0 / rate_per_sec))
        if t >= start + duration:
            break
        arrivals.append(t)
    return arrivals
