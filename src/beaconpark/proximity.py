"""Multi-beacon spot identification and accuracy scoring.

A listener sits in front of a row of beacons; each beacon gets its own
distance filter, a row of one particle.ParticleBank per layout, seeded
with its own child seed. A beacon's stream is one numpy structured array
of STREAM_DTYPE (`timestamp_ms` int64, `rssi_dbm` float64) in time order.
Prediction rounds are fixed one-second windows: each stream is split at
timestamp_ms // ROUND_MS, every beacon that delivered samples in a round
updates its filter (the bank steps all of them at once, one sample per
beacon at a time), the spot with the smallest estimated distance is
predicted, and the prediction is tallied against the geometric ground
truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .eddystone import SpotId
from .particle import FilterConfig, ParticleBank
from .pathloss import PathLossModel, average_rssi, estimate_distance
from .seeding import TAG_FILTER, derive_seed, spot_key

ROUND_MS = 1000
STREAM_DTYPE = np.dtype([("timestamp_ms", np.int64), ("rssi_dbm", np.float64)])
_EMPTY_STREAM = np.empty(0, dtype=STREAM_DTYPE)


@dataclass(frozen=True)
class BeaconLayout:
    """A row of beacons plus the listener's position relative to it.

    beacons: (spot, position along the row in meters), strictly increasing.
    listener_offset: (x along the row measured from the middle beacon,
    y perpendicular distance from the row, y >= 0).
    """

    beacons: tuple
    listener_offset: tuple[float, float]

    def __post_init__(self):
        beacons = tuple((spot, float(pos)) for spot, pos in self.beacons)
        object.__setattr__(self, "beacons", beacons)
        object.__setattr__(
            self,
            "listener_offset",
            (float(self.listener_offset[0]), float(self.listener_offset[1])),
        )
        if not beacons:
            raise ValueError("layout needs at least one beacon")
        positions = [pos for _, pos in beacons]
        if any(p2 <= p1 for p1, p2 in zip(positions, positions[1:])):
            raise ValueError("beacon positions must be strictly increasing")
        spots = [spot for spot, _ in beacons]
        if len(set(spots)) != len(spots):
            raise ValueError("duplicate spot in layout")
        if self.listener_offset[1] < 0:
            raise ValueError("perpendicular listener distance must be >= 0")

    def spots(self) -> list[SpotId]:
        return [spot for spot, _ in self.beacons]

    def listener_row_position(self) -> float:
        """Listener's along-row coordinate (offset is from the middle beacon)."""
        middle = self.beacons[len(self.beacons) // 2][1]
        return middle + self.listener_offset[0]

    def true_distances(self) -> dict[SpotId, float]:
        """Euclidean listener-to-beacon distances from the layout geometry."""
        lx = self.listener_row_position()
        ly = self.listener_offset[1]
        return {spot: math.hypot(pos - lx, ly) for spot, pos in self.beacons}

    def ground_truth(self) -> SpotId:
        """The geometrically nearest spot (ties to the smallest spot id)."""
        return min(self.true_distances().items(), key=lambda kv: (kv[1], kv[0]))[0]


@dataclass
class PredictionTally:
    """Per-spot prediction counts against one ground-truth spot."""

    counts: dict
    total: int
    accuracy: float

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise ValueError("tally counts do not sum to the total")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must be a fraction in [0, 1]")


def _check_streams(streams: Mapping[SpotId, np.ndarray], layout: BeaconLayout) -> int:
    """Validate the streams and return the number of rounds up to the last sample."""
    known = set(layout.spots())
    last_ms = -1
    for spot, stream in streams.items():
        if spot not in known:
            raise ValueError(f"stream beacon {spot} is not in the layout")
        if getattr(stream, "dtype", None) != STREAM_DTYPE:
            raise ValueError(f"stream of {spot} is not an array of {STREAM_DTYPE}")
        if not np.isfinite(stream["rssi_dbm"]).all():
            raise ValueError(f"stream of {spot} holds a non-finite RSSI")
        stamps = stream["timestamp_ms"]
        if len(stamps) == 0:
            continue
        if stamps[0] < 0 or (np.diff(stamps) < 0).any():
            raise ValueError(f"stream of {spot} is not in time order from 0 ms")
        last_ms = max(last_ms, int(stamps[-1]))
    if last_ms < 0:
        raise ValueError("streams contain no samples")
    return last_ms // ROUND_MS + 1


def _round_bounds(stream: np.ndarray, n_rounds: int) -> np.ndarray:
    """Index of the stream's first sample in each round, then its length."""
    return np.searchsorted(stream["timestamp_ms"], np.arange(n_rounds + 1) * ROUND_MS)


def _tally(layout: BeaconLayout, spots: list[SpotId], distances: np.ndarray) -> PredictionTally:
    """Predict the nearest spot of each round and count the predictions.

    `distances` has one row per spot, in spot-id order, and one column per
    round; argmin takes the first minimum, so ties go to the smallest id.
    """
    nearest = np.argmin(distances, axis=0)
    counts = dict(zip(spots, np.bincount(nearest, minlength=len(spots)).tolist()))
    total = len(nearest)
    return PredictionTally(
        counts=counts, total=total, accuracy=counts[layout.ground_truth()] / total
    )


def run_identification(
    layout: BeaconLayout,
    streams: Mapping[SpotId, np.ndarray],
    model: PathLossModel,
    config: FilterConfig,
) -> PredictionTally:
    """Filtered identification: one particle filter per beacon.

    The filters are the rows of one ParticleBank, each with its own child
    seed derived from the config seed. Sub-step k of a round updates, in
    one step, the rows whose beacon delivered a k-th sample in that round;
    a beacon with no samples in a round keeps its previous state.
    """
    n_rounds = _check_streams(streams, layout)
    spots = sorted(layout.spots())
    bank = ParticleBank(
        config, [derive_seed(config.seed, TAG_FILTER, spot_key(spot)) for spot in spots]
    )
    # distances holds every beacon's readings in row order; starts[row, r]
    # is the index of that row's first reading in round r.
    distances, starts = [], []
    for spot in spots:
        stream = streams.get(spot, _EMPTY_STREAM)
        starts.append(_round_bounds(stream, n_rounds) + len(distances))
        distances.extend(estimate_distance(model, rssi) for rssi in stream["rssi_dbm"].tolist())
    distances = np.array(distances)
    starts = np.array(starts)
    counts = np.diff(starts, axis=1)
    most = counts.max(axis=0).tolist()
    means = np.empty((len(spots), n_rounds))
    for r in range(n_rounds):
        for k in range(most[r]):
            rows = np.flatnonzero(counts[:, r] > k)
            bank.update(distances[starts[rows, r] + k], rows)
        means[:, r] = bank.means()
    return _tally(layout, spots, means)


def raw_baseline(
    streams: Mapping[SpotId, np.ndarray],
    model: PathLossModel,
    layout: BeaconLayout,
) -> PredictionTally:
    """Unfiltered baseline: per-round average-RSSI distance estimates.

    The averaging window is the samples received in the round; a beacon
    silent in a round keeps its last estimate, and one never heard is
    infinitely far away until its first sample.
    """
    n_rounds = _check_streams(streams, layout)
    spots = sorted(layout.spots())
    distances = np.empty((len(spots), n_rounds))
    for row, spot in enumerate(spots):
        stream = streams.get(spot, _EMPTY_STREAM)
        bounds = _round_bounds(stream, n_rounds).tolist()
        rssi = stream["rssi_dbm"].tolist()
        current = math.inf
        for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if hi > lo:
                current = estimate_distance(model, average_rssi(rssi[lo:hi]))
            distances[row, r] = current
    return _tally(layout, spots, distances)
