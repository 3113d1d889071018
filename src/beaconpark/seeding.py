"""Deterministic child-seed derivation for independent random streams.

Every simulated stream, filter, grid cell, and repetition derives its own
64-bit seed from the master seed plus integer key components, so runs are
reproducible and substreams are statistically independent.
"""

from __future__ import annotations

import numpy as np

from .eddystone import SpotId

# Key-space tags so different kinds of substreams never collide.
TAG_STREAM = 1
TAG_FILTER = 2
TAG_DISTANCE_CELL = 3
TAG_PROXIMITY_CELL = 4


def derive_seed(master_seed: int, *keys: int) -> int:
    """Collapse (master seed, keys...) into one 64-bit seed."""
    seq = np.random.SeedSequence([int(master_seed), *(int(k) for k in keys)])
    return int(seq.generate_state(1, np.uint64)[0])


def spot_key(spot: SpotId) -> int:
    """Stable integer key for a spot id."""
    return (ord(spot.lot) << 48) | spot.number


def scaled_key(value: float, scale: int = 1000) -> int:
    """Integer key for a small real-valued grid coordinate."""
    return round(value * scale)
