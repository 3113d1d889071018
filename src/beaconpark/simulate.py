"""Seeded synthetic RSSI generation and experiment replication.

Stands in for a physical beacon testbed: streams are drawn from the
path-loss model plus Gaussian noise in dB (the standard log-normal
shadowing realization), with optional Bernoulli advertisement loss.
A stream is one beacon's advertisements as a numpy structured array of
proximity.STREAM_DTYPE (`timestamp_ms`, `rssi_dbm`) in time order; the
drivers read its `rssi_dbm` column directly. Every stream, cell,
repetition and filter derives a child seed from the scenario seed, so a
scenario reproduces byte-for-byte. The filters of every beacon of every
cell of a proximity grid are stepped as the rows of one
particle.ParticleBank, each row keeping its own seed. A distance run steps
the filters of every (distance, repetition) at each particle count as rows
too: the particle counts of one config share banks of at most BANK_SLOTS
particles, so `distance --sweep` steps its ten counts as three banks.

Three experiment drivers mirror the calibration, distance-estimation,
and proximity-identification procedures. The noise defaults per
environment match the exact raw proximity accuracy at the (X=1 m,
Y=0.5 m) three-beacon cell to the 77.8% reference value; the tests hold
that accuracy as their oracle and re-derive both defaults from it.

A scenario file is the whole spec of a distance or proximity run: the
environment (Scenario), the required `experiment` (its kind, grid and
repetitions) and the `filter` settings. Every key it may hold is read by
the run, and any other key is refused.
"""

from __future__ import annotations

import csv
import json
import math
from collections import namedtuple
from typing import Sequence

import numpy as np

from .eddystone import SpotId
from .jsonfields import read_object, read_value
from .particle import FilterConfig, ParticleBank
from .pathloss import (
    CalibrationDataset,
    PathLossModel,
    estimate_distance,
    model_from_json_dict,
    predict_rssi,
)
from .proximity import (
    STREAM_DTYPE,
    BeaconLayout,
    PredictionTally,
    identify_cells,
)
from .seeding import (
    TAG_DISTANCE_CELL,
    TAG_FILTER,
    TAG_PROXIMITY_CELL,
    TAG_STREAM,
    derive_seed,
    scaled_key,
    spot_key,
)

# Shadowing noise per environment: the sigma on a 2-10 dB grid whose exact
# raw accuracy at the X=1, Y=0.5 anchor cell is closest to 77.8%.
# tests/test_simulate.py::TestNoiseCalibration re-derives both values.
INDOOR_NOISE_SIGMA_DB = 5.45
OUTDOOR_NOISE_SIGMA_DB = 4.60

EXPERIMENT_KINDS = ("distance", "proximity")

# The largest timestamp_ms a stream holds (STREAM_DTYPE stores int64).
_INT64_MAX = 2**63 - 1
# The Scenario values that fix a stream's samples, as an empty stream's error names them.
_SAMPLING = "duration_s {0.duration_s}, tx_interval_ms {0.tx_interval_ms}, drop_rate {0.drop_rate}"

# A distance run packs the particle counts of one config into banks of at
# most this many particles (rows x N), first fit by decreasing N. The
# sweep's N = 200..2000 at 24 rows fill banks of 91,200, 91,200 and
# 81,600; 91,200 is the smallest budget at which they fit in three banks. A
# bank holds 24 bytes per run, and a freshly drawn row is all runs of one, so
# the largest bank holds 2.2 MB when drawn (0.4 MB once its rows have
# resampled), where ten banks of one count held at most 1.2 MB; one bank of
# all 264,000 would hold 6.3 MB when drawn.
BANK_SLOTS = 92_000


class Scenario(
    namedtuple("Scenario", "model noise_sigma_db tx_interval_ms duration_s drop_rate seed")
):
    """One synthetic experiment environment."""

    __slots__ = ()

    def __new__(
        cls,
        model: PathLossModel,
        noise_sigma_db: float,
        tx_interval_ms: int = 1000,
        duration_s: float = 300.0,
        drop_rate: float = 0.0,
        seed: int = 0,
    ):
        if noise_sigma_db < 0:
            raise ValueError("noise sigma must be >= 0")
        if tx_interval_ms <= 0:
            raise ValueError("transmission interval must be positive")
        if tx_interval_ms > _INT64_MAX:
            raise ValueError(f"tx_interval_ms {tx_interval_ms} does not fit an int64 timestamp")
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        slots = duration_s * 1000 // tx_interval_ms  # as generate_stream counts them
        if not (math.isfinite(slots) and (int(slots) - 1) * tx_interval_ms <= _INT64_MAX):
            raise ValueError(
                f"duration_s {duration_s} is too long at tx_interval_ms"
                f" {tx_interval_ms}: the last slot's timestamp must fit an int64"
            )
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop rate must be in [0, 1)")
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        return super().__new__(
            cls, model, noise_sigma_db, tx_interval_ms, duration_s, drop_rate, seed
        )

    @classmethod
    def _make(cls, iterable):
        """Build through __new__, so that `_replace` runs the checks too."""
        return cls(*iterable)


class ExperimentSpec(namedtuple("ExperimentSpec", "kind grid repetitions")):
    """Which experiment a scenario file drives, over which grid.

    The grid is held as the experiment reads it: a distance grid as a
    tuple of floats (m), a proximity grid as a tuple of (X, Y) float
    pairs (m). A proximity run scores each cell once, so it takes
    repetitions 1 only.
    """

    __slots__ = ()

    def __new__(cls, kind: str, grid, repetitions: int = 1):
        if kind not in EXPERIMENT_KINDS:
            raise ValueError(f"experiment kind must be one of {EXPERIMENT_KINDS}")
        grid = tuple(_grid_point(kind, g) for g in grid)
        if len(grid) == 0:
            raise ValueError("experiment grid is empty")
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if kind == "proximity" and repetitions != 1:
            raise ValueError(f"proximity experiment takes repetitions 1, got {repetitions}")
        return super().__new__(cls, kind, grid, repetitions)


def _grid_point(kind: str, entry):
    """One grid entry as its experiment reads it: a distance, or an (X, Y) pair."""
    pair = isinstance(entry, (list, tuple))
    try:
        if kind == "distance" and not pair:
            return read_value("grid", entry, float)
        if kind == "proximity" and pair and len(entry) == 2:
            return tuple(read_value("grid", value, float) for value in entry)
    except TypeError:
        pass
    shape = "a list of distances" if kind == "distance" else "a list of [X, Y] pairs"
    raise ValueError(f"{kind} experiment grid must be {shape}, got entry {entry!r}")


# One distance-estimation result row (Table-shaped CSV output).
DistanceRow = namedtuple("DistanceRow", "particle_count distance_m filtered_error_m mse std_m")
# The rows, and the per-update |estimate - truth| pooled over all distances and
# repetitions: raw that of each reading once, filtered that of each count's running mean.
DistanceExperimentResult = namedtuple(
    "DistanceExperimentResult", "rows step_raw_errors_m step_filtered_errors_m"
)
ProximityCellResult = namedtuple("ProximityCellResult", "x_m y_m raw filtered")


def generate_stream(scenario: Scenario, beacon: SpotId, true_distance_m: float) -> np.ndarray:
    """Synthesize one beacon's advertisement stream at a fixed distance.

    One sample per transmission interval on the interval grid, minus
    i.i.d. Bernoulli drops; RSSI is the model prediction plus N(0, sigma).
    Returns an array of STREAM_DTYPE in time order.
    """
    if true_distance_m <= 0:
        raise ValueError("true distance must be positive")
    n_slots = int(scenario.duration_s * 1000 // scenario.tx_interval_ms)
    rng = np.random.default_rng(
        derive_seed(scenario.seed, TAG_STREAM, spot_key(beacon), scaled_key(true_distance_m))
    )
    mean_rssi = predict_rssi(scenario.model, true_distance_m)
    noise = rng.normal(0.0, scenario.noise_sigma_db, n_slots)
    kept = np.flatnonzero(rng.random(n_slots) >= scenario.drop_rate)
    stream = np.empty(len(kept), dtype=STREAM_DTYPE)
    stream["timestamp_ms"] = kept * scenario.tx_interval_ms
    stream["rssi_dbm"] = mean_rssi + noise[kept]
    return stream


def three_beacon_layout(x_m: float, y_m: float) -> BeaconLayout:
    """The three-spot row A/B/C with separation X, listener Y in front of B."""
    if x_m <= 0:
        raise ValueError("beacon separation must be positive")
    return BeaconLayout(
        beacons=(
            (SpotId("A", 1), -x_m),
            (SpotId("B", 1), 0.0),
            (SpotId("C", 1), x_m),
        ),
        listener_offset=(0.0, y_m),
    )


def run_pathloss_experiment(
    scenario: Scenario, distances_m: Sequence[float]
) -> CalibrationDataset:
    """Collect per-distance RSSI captures suitable for model fitting."""
    beacon = SpotId("B", 1)
    points = []
    for d in distances_m:
        points.append((float(d), tuple(generate_stream(scenario, beacon, d)["rssi_dbm"].tolist())))
    return CalibrationDataset(tuple(points))


def run_distance_experiment(
    scenario: Scenario,
    distances_m: Sequence[float],
    config: FilterConfig,
    repetitions: int = 3,
    particle_counts: Sequence[int] | None = None,
    keep_step_errors: bool = False,
) -> DistanceExperimentResult:
    """Estimate each distance with the particle filter.

    Per distance: filtered error is |final filter mean - truth|; MSE and
    the deviation of the final filter means are taken over the
    repetitions. The streams are generated once. Each of the particle
    counts of one config (default its own) has a filter per (distance,
    repetition), seeded with that cell's child seed, as rows of shared
    ParticleBanks (`_pack`), each bank run through all of its readings as
    one round (one round per reading with keep_step_errors). A row evolves
    as it would alone, so rows and filtered step errors come count by count,
    in `particle_counts` order, as if each count ran alone.
    """
    counts = (config.particle_count,) if particle_counts is None else tuple(particle_counts)
    if min(counts, default=2) < 2:
        raise ValueError(f"particle count {min(counts)} is below 2")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    truths, seeds, streams = [], [], []
    for d in distances_m:
        for rep in range(repetitions):
            cell_seed = derive_seed(scenario.seed, TAG_DISTANCE_CELL, scaled_key(d), rep)
            cell = scenario._replace(seed=cell_seed)
            stream = generate_stream(cell, SpotId("B", 1), d)
            if len(stream) == 0:
                at = _SAMPLING.format(scenario)
                raise ValueError(f"distance {d} m, repetition {rep}: no samples at {at}")
            truths.append(d)
            seeds.append(derive_seed(cell_seed, TAG_FILTER))
            streams.append(stream["rssi_dbm"])
    rows, step_raw, step_filtered = [], [], []
    if not truths:
        return DistanceExperimentResult(rows, step_raw, step_filtered)
    rssi = np.concatenate(streams)
    bounds = np.cumsum([0] + [len(stream) for stream in streams])
    firsts, lengths = bounds[:-1], np.diff(bounds)
    readings = estimate_distance(scenario.model, rssi)
    if keep_step_errors:
        # one round per reading, so the means are recorded after every step
        starts = firsts[:, None] + np.minimum(np.arange(lengths.max() + 1), lengths[:, None])
        step_raw = np.abs(readings - np.repeat(truths, lengths)).tolist()
        stepped = np.arange(lengths.max()) < lengths[:, None]  # the rounds a row reads in
    else:
        starts = np.stack([firsts, bounds[1:]], axis=1)

    ran = {}
    for bank in _pack(counts, len(seeds)):
        means = ParticleBank(config, seeds * len(bank), np.repeat(bank, len(seeds))).run(
            readings, np.tile(starts, (len(bank), 1))
        )
        ran.update(zip(bank, np.split(means, len(bank))))
    for n in counts:
        finals = ran[n][:, -1].tolist()
        if keep_step_errors:
            errors = np.abs(ran[n] - np.asarray(truths)[:, None])[stepped]
            step_filtered.extend(errors.tolist())
        for k, d in enumerate(distances_m):
            cells = slice(k * repetitions, (k + 1) * repetitions)
            filt_errors = [abs(final - d) for final in finals[cells]]
            rows.append(
                DistanceRow(
                    particle_count=n,
                    distance_m=float(d),
                    filtered_error_m=float(np.mean(filt_errors)),
                    mse=float(np.mean(np.square(filt_errors))),
                    std_m=float(np.std(finals[cells], ddof=1)) if repetitions > 1 else 0.0,
                )
            )
    return DistanceExperimentResult(rows, step_raw, step_filtered)


def _pack(counts: Sequence[int], rows: int) -> list[list[int]]:
    """The distinct particle counts of one config in banks, `rows` filters a count:
    first fit by decreasing count into banks of at most BANK_SLOTS particles.

    A count whose rows hold more than BANK_SLOTS particles has a bank of its own.
    """
    banks = []  # [particles, counts]
    for n in sorted(set(counts), reverse=True):
        for bank in banks:
            if bank[0] + rows * n <= BANK_SLOTS:
                bank[0] += rows * n
                bank[1].append(n)
                break
        else:
            banks.append([rows * n, [n]])
    return [held for _, held in banks]


def run_proximity_experiment(
    scenario: Scenario,
    pairs: Sequence[tuple[float, float]],
    config: FilterConfig,
) -> list[ProximityCellResult]:
    """Score raw and filtered identification over an (X, Y) grid.

    Each cell simulates the per-beacon streams of its three-beacon layout
    at the geometric true distances. Both modes score every cell in one
    grid pass (proximity.identify_cells), each cell's filters seeded from
    the cell's own seed.
    """
    cells = []
    for x_m, y_m in pairs:
        layout = three_beacon_layout(x_m, y_m)
        cell_seed = derive_seed(
            scenario.seed, TAG_PROXIMITY_CELL, scaled_key(x_m), scaled_key(y_m)
        )
        cell = scenario._replace(seed=cell_seed)
        truth = layout.true_distances()
        streams = {
            spot: generate_stream(cell, spot, truth[spot]) for spot in layout.spots()
        }
        if not any(len(stream) for stream in streams.values()):
            at = _SAMPLING.format(scenario)
            raise ValueError(f"cell X={x_m} m, Y={y_m} m: no samples at {at}")
        cells.append((layout, streams, derive_seed(cell_seed, TAG_FILTER)))
    return [
        ProximityCellResult(x_m=float(x_m), y_m=float(y_m), raw=raw, filtered=filtered)
        for (x_m, y_m), (raw, filtered) in zip(
            pairs, identify_cells(cells, scenario.model, config)
        )
    ]


# --- file formats ---


def write_distance_csv(path, rows: Sequence[DistanceRow]) -> None:
    """Table-shaped CSV: particles,distance_m,error_m,mse,std_m."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["particles", "distance_m", "error_m", "mse", "std_m"])
        for r in rows:
            values = (r.distance_m, r.filtered_error_m, r.mse, r.std_m)
            writer.writerow([r.particle_count, *(f"{value:.6f}" for value in values)])


def write_proximity_csv(path, results: Sequence[ProximityCellResult]) -> None:
    """Grid CSV: X_m,Y_m,mode,count_A,count_B,count_C,accuracy_pct."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["X_m", "Y_m", "mode", "count_A", "count_B", "count_C", "accuracy_pct"]
        )
        for cell in results:
            for mode, tally in (("raw", cell.raw), ("filtered", cell.filtered)):
                counts = [tally.counts[spot] for spot in sorted(tally.counts)]
                if len(counts) != 3:
                    raise ValueError("proximity CSV expects the three-beacon layout")
                writer.writerow(
                    [
                        f"{cell.x_m:.6f}",
                        f"{cell.y_m:.6f}",
                        mode,
                        counts[0],
                        counts[1],
                        counts[2],
                        f"{tally.accuracy * 100.0:.1f}",
                    ]
                )


# The JSON type of each scenario key: `model`, `experiment` and `filter` are read below.
SCENARIO_KINDS = {
    "model": object, "noise_sigma_db": float, "tx_interval_ms": int, "duration_s": float,
    "drop_rate": float, "seed": int, "experiment": object, "filter": object,
}
SPEC_KINDS = {"kind": str, "grid": list, "repetitions": int}  # ExperimentSpec
# FilterConfig owns the defaults; each value must have its default's type.
FILTER_KINDS = {name: type(value) for name, value in FilterConfig()._asdict().items()}


def scenario_from_dict(obj: dict) -> tuple[Scenario, ExperimentSpec, FilterConfig]:
    """Parse a scenario dict; an unknown key in any of its objects is refused."""
    values = read_object(obj, "scenario", SCENARIO_KINDS, ("model", "noise_sigma_db"))
    if "experiment" not in values:
        raise ValueError("scenario needs an 'experiment' object")
    exp = read_object(values.pop("experiment"), "experiment", SPEC_KINDS, ("kind", "grid"))
    settings = read_object(values.pop("filter", {}), "filter", FILTER_KINDS)
    scenario = Scenario(model=model_from_json_dict(values.pop("model")), **values)
    return scenario, ExperimentSpec(**exp), FilterConfig(**settings)


def load_scenario(path) -> tuple[Scenario, ExperimentSpec, FilterConfig]:
    with open(path) as fh:
        obj = json.load(fh)
    return scenario_from_dict(obj)
