"""Multi-beacon spot identification and accuracy scoring.

A listener sits in front of a row of beacons; each beacon gets its own
distance filter, seeded with its own child seed. A beacon's stream is one
numpy structured array of STREAM_DTYPE (`timestamp_ms` int64, `rssi_dbm`
float64) in time order. Prediction rounds are fixed one-second windows:
each stream is split at timestamp_ms // ROUND_MS, every beacon that
delivered samples in a round updates its filter, the spot with the
smallest estimated distance is predicted, and the prediction is tallied
against the geometric ground truth.

`identify_cells` scores many layouts at once: it checks and stacks the
streams of every beacon of every cell once, as the rows of one grid, and
tallies each cell from the grid's raw distance table (`raw_baseline`) and
from the means of one particle.ParticleBank, stepped round by round up to
the longest cell's last round (ParticleBank.run). A single cell's (raw,
filtered) tallies are identify_cells([(layout, streams, seed)], model, config)[0].
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Mapping, Sequence

import numpy as np

from .eddystone import SpotId
from .particle import FilterConfig, ParticleBank
from .pathloss import PathLossModel, estimate_distance, ragged_means
from .seeding import TAG_FILTER, derive_seed, spot_key

ROUND_MS = 1000
STREAM_DTYPE = np.dtype([("timestamp_ms", np.int64), ("rssi_dbm", np.float64)])
_EMPTY_STREAM = np.empty(0, dtype=STREAM_DTYPE)


class BeaconLayout(namedtuple("BeaconLayout", "beacons listener_offset")):
    """A row of beacons plus the listener's position relative to it.

    beacons: (spot, position along the row in meters), strictly increasing.
    listener_offset: (x along the row measured from the middle beacon,
    y perpendicular distance from the row, y >= 0).
    """

    __slots__ = ()

    def __new__(cls, beacons, listener_offset: tuple[float, float]):
        beacons = tuple((spot, float(pos)) for spot, pos in beacons)
        listener_offset = (float(listener_offset[0]), float(listener_offset[1]))
        if not beacons:
            raise ValueError("layout needs at least one beacon")
        positions = [pos for _, pos in beacons]
        if any(p2 <= p1 for p1, p2 in zip(positions, positions[1:])):
            raise ValueError("beacon positions must be strictly increasing")
        spots = [spot for spot, _ in beacons]
        if len(set(spots)) != len(spots):
            raise ValueError("duplicate spot in layout")
        if listener_offset[1] < 0:
            raise ValueError("perpendicular listener distance must be >= 0")
        return super().__new__(cls, beacons, listener_offset)

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


class PredictionTally(namedtuple("PredictionTally", "counts total accuracy")):
    """Per-spot prediction counts against one ground-truth spot."""

    __slots__ = ()

    def __new__(cls, counts: dict, total: int, accuracy: float):
        if sum(counts.values()) != total:
            raise ValueError("tally counts do not sum to the total")
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError("accuracy must be a fraction in [0, 1]")
        return super().__new__(cls, counts, total, accuracy)


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


def _stack_rounds(streams: Sequence[np.ndarray], n_rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Every stream's RSSI, stream after stream, and the rounds it splits into.

    starts[b, r] is the index of stream b's first sample in round r; the
    last column is one past its last sample.
    """
    edges = np.arange(n_rounds + 1) * ROUND_MS
    offsets = np.cumsum([0] + [len(stream) for stream in streams])
    starts = [
        np.searchsorted(stream["timestamp_ms"], edges) + offset
        for stream, offset in zip(streams, offsets.tolist())
    ]
    return np.concatenate([stream["rssi_dbm"] for stream in streams]), np.array(starts)


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
    seed: int,
) -> PredictionTally:
    """The filtered tally of identify_cells on the one cell (layout, streams, seed).

    Nothing in beaconpark calls it: the benchmark's tracer (bench/tracing.py)
    binds it by name, and it goes once the tracer wraps identify_cells
    instead (ROADMAP item 1).
    """
    return identify_cells([(layout, streams, seed)], model, config)[0][1]


def identify_cells(
    cells: Sequence[tuple[BeaconLayout, Mapping[SpotId, np.ndarray], int]],
    model: PathLossModel,
    config: FilterConfig,
) -> list[tuple[PredictionTally, PredictionTally]]:
    """The (raw, filtered) tallies of many cells, each a (layout, streams, seed).

    Every beacon of every cell is a row of raw_baseline's table and a filter
    row of one ParticleBank, seeded with derive_seed(seed, TAG_FILTER, spot)
    from its cell's seed. The bank runs one round per second
    (ParticleBank.run): a beacon with no samples in a round, or whose cell
    has no more rounds, keeps its previous state. Each cell is tallied over
    its own rounds, so every row evolves, and every tally comes out, as when
    the cell is identified alone.
    """
    if not cells:
        return []
    n_rounds = [_check_streams(streams, layout) for layout, streams, _ in cells]
    spots = [sorted(layout.spots()) for layout, _, _ in cells]
    seeds, rows = [], []  # one row per beacon, cell by cell
    for (_, streams, seed), cell_spots in zip(cells, spots):
        for spot in cell_spots:
            seeds.append(derive_seed(seed, TAG_FILTER, spot_key(spot)))
            rows.append(streams.get(spot, _EMPTY_STREAM))
    rssi, starts = _stack_rounds(rows, max(n_rounds))
    raw = raw_baseline(model, rssi, starts)
    filtered = ParticleBank(config, seeds).run(estimate_distance(model, rssi), starts)
    tallies, first = [], 0
    for (layout, _, _), cell_spots, rounds in zip(cells, spots, n_rounds):
        block = slice(first, first + len(cell_spots))
        tallies.append(
            tuple(_tally(layout, cell_spots, table[block, :rounds]) for table in (raw, filtered))
        )
        first += len(cell_spots)
    return tallies


def raw_baseline(model: PathLossModel, rssi: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Unfiltered baseline: the (rows, rounds) table of per-round average-RSSI distances.

    `rssi` and `starts` are laid out as ParticleBank.run takes them. The
    averaging window is the samples received in the round; a beacon silent
    in a round keeps its last estimate, and one never heard is infinitely
    far away until its first sample. Every round of every row is averaged
    (pathloss.ragged_means) and inverted at once.
    """
    heard = np.diff(starts, axis=1) > 0
    estimates = np.full(heard.shape, math.inf)
    estimates[heard] = estimate_distance(model, ragged_means(rssi, starts)[heard])
    # Round r reads the estimate of the beacon's last heard round up to r;
    # before its first one that is round 0, still at inf.
    last_heard = np.maximum.accumulate(np.where(heard, np.arange(heard.shape[1]), 0), axis=1)
    return np.take_along_axis(estimates, last_heard, axis=1)
