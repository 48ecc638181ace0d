"""Physical units and conversion constants used across the library.

Conventions (every module follows these):

* time      -- seconds (float)
* data size -- bytes (int or float)
* data rate -- bits per second (float)

The constants below let protocol code read like the paper, e.g.
``rate = 1 * GBPS`` or ``deadline = 20 * MSEC``.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------
SEC = 1.0
MSEC = 1e-3
USEC = 1e-6
NSEC = 1e-9

# --- size ------------------------------------------------------------------
BYTE = 1
KBYTE = 1_000
MBYTE = 1_000_000
GBYTE = 1_000_000_000

# --- rate ------------------------------------------------------------------
BPS = 1.0
KBPS = 1e3
MBPS = 1e6
GBPS = 1e9

BITS_PER_BYTE = 8


def tx_time(size_bytes: float, rate_bps: float) -> float:
    """Transmission (serialization) delay of ``size_bytes`` at ``rate_bps``."""
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return size_bytes * BITS_PER_BYTE / rate_bps
