"""Seeded synthetic RSSI generation and experiment replication.

Stands in for a physical beacon testbed: streams are drawn from the
path-loss model plus Gaussian noise in dB (the standard log-normal
shadowing realization), with optional Bernoulli advertisement loss.
A stream is one beacon's advertisements as a numpy structured array of
proximity.STREAM_DTYPE (`timestamp_ms`, `rssi_dbm`) in time order; the
drivers read its `rssi_dbm` column directly. Every stream, cell,
repetition and filter derives a child seed from the scenario seed, so a
scenario reproduces byte-for-byte. The filters of every beacon of every
cell of a proximity grid, and those of every (distance, repetition) of a
distance run, are stepped as the rows of one particle.ParticleBank, each
row keeping its own seed; the bank steps in place, in one work buffer.

Three experiment drivers mirror the calibration, distance-estimation,
and proximity-identification procedures; noise defaults per environment
are anchored by matching the raw proximity accuracy at the (X=1 m,
Y=0.5 m) three-beacon cell to the 77.8% reference value.

A scenario file is the whole spec of a distance or proximity run: the
environment (Scenario), the required `experiment` (its kind, grid and
repetitions) and the `filter` settings. Every key it may hold is read by
the run, and any other key is refused.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .eddystone import SpotId
from .particle import FilterConfig, ParticleBank
from .pathloss import (
    CalibrationDataset,
    PathLossModel,
    average_rssi,
    estimate_distance,
    model_from_json_dict,
    predict_rssi,
)
from .proximity import (
    STREAM_DTYPE,
    BeaconLayout,
    PredictionTally,
    identify_cells,
    raw_baseline,
)
from .seeding import (
    TAG_CALIBRATION,
    TAG_DISTANCE_CELL,
    TAG_FILTER,
    TAG_PROXIMITY_CELL,
    TAG_STREAM,
    derive_seed,
    scaled_key,
    spot_key,
)

# Shadowing noise calibrated per environment with calibrate_noise_sigma()
# (raw accuracy 77.8% at the X=1, Y=0.5 anchor cell, see module docstring).
INDOOR_NOISE_SIGMA_DB = 5.45
OUTDOOR_NOISE_SIGMA_DB = 4.60

RAW_ANCHOR_ACCURACY = 0.778
ANCHOR_X_M = 1.0
ANCHOR_Y_M = 0.5
CALIBRATION_ROUNDS = 200_000
CALIBRATION_SEED = 20_260_101

EXPERIMENT_KINDS = ("distance", "proximity")


@dataclass(frozen=True)
class Scenario:
    """One synthetic experiment environment."""

    model: PathLossModel
    noise_sigma_db: float
    tx_interval_ms: int = 1000
    duration_s: float = 300.0
    drop_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.noise_sigma_db < 0:
            raise ValueError("noise sigma must be >= 0")
        if self.tx_interval_ms <= 0:
            raise ValueError("transmission interval must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop rate must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class ExperimentSpec:
    """Which experiment a scenario file drives, over which grid.

    The grid is held as the experiment reads it: a distance grid as a
    tuple of floats (m), a proximity grid as a tuple of (X, Y) float
    pairs (m). A proximity run scores each cell once, so it takes
    repetitions 1 only.
    """

    kind: str
    grid: tuple
    repetitions: int = 1

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"experiment kind must be one of {EXPERIMENT_KINDS}")
        object.__setattr__(self, "grid", tuple(_grid_point(self.kind, g) for g in self.grid))
        if len(self.grid) == 0:
            raise ValueError("experiment grid is empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.kind == "proximity" and self.repetitions != 1:
            raise ValueError(f"proximity experiment takes repetitions 1, got {self.repetitions}")


def _grid_point(kind: str, entry):
    """One grid entry as its experiment reads it: a distance, or an (X, Y) pair."""
    pair = isinstance(entry, (list, tuple))
    try:
        if kind == "distance" and not pair:
            return float(entry)
        if kind == "proximity" and pair and len(entry) == 2:
            return (float(entry[0]), float(entry[1]))
    except (TypeError, ValueError):
        pass
    shape = "a list of distances" if kind == "distance" else "a list of [X, Y] pairs"
    raise ValueError(f"{kind} experiment grid must be {shape}, got entry {entry!r}")


@dataclass(frozen=True)
class DistanceRow:
    """One distance-estimation result row (Table-shaped CSV output)."""

    particle_count: int
    distance_m: float
    raw_error_m: float
    filtered_error_m: float
    mse: float
    std_m: float


@dataclass
class DistanceExperimentResult:
    rows: list
    # Per-update |estimate - truth| pooled over all distances/repetitions;
    # raw uses the per-sample distance estimate, filtered the running mean.
    step_raw_errors_m: list = field(default_factory=list)
    step_filtered_errors_m: list = field(default_factory=list)


@dataclass(frozen=True)
class ProximityCellResult:
    x_m: float
    y_m: float
    raw: PredictionTally
    filtered: PredictionTally


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
    keep_step_errors: bool = False,
) -> DistanceExperimentResult:
    """Estimate each distance raw (full-capture average) and filtered.

    Per distance: raw error is |distance from the averaged RSSI - truth|,
    filtered error is |final filter mean - truth|; MSE and the deviation
    of the final filter means are taken over the repetitions. The filters
    of every (distance, repetition) are the rows of one ParticleBank, each
    with its own child seed, run through all of its readings as one round
    (one round per reading with keep_step_errors).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    truths, seeds, readings, lengths, raw_errors = [], [], [], [], []
    for d in distances_m:
        for rep in range(repetitions):
            cell_seed = derive_seed(scenario.seed, TAG_DISTANCE_CELL, scaled_key(d), rep)
            cell = replace(scenario, seed=cell_seed)
            rssis = generate_stream(cell, SpotId("B", 1), d)["rssi_dbm"].tolist()
            if not rssis:
                raise ValueError("scenario produced an empty stream")
            raw_est = estimate_distance(scenario.model, average_rssi(rssis))
            raw_errors.append(abs(raw_est - d))
            truths.append(d)
            seeds.append(derive_seed(cell_seed, TAG_FILTER))
            readings.extend(estimate_distance(scenario.model, rssi) for rssi in rssis)
            lengths.append(len(rssis))
    result = DistanceExperimentResult(rows=[])
    if not truths:
        return result
    lengths = np.array(lengths)
    firsts = np.cumsum(lengths) - lengths
    if keep_step_errors:
        # one round per reading, so the means are recorded after every step
        starts = firsts[:, None] + np.minimum(np.arange(lengths.max() + 1), lengths[:, None])
    else:
        starts = np.stack([firsts, firsts + lengths], axis=1)
    means = ParticleBank(config, seeds).run(readings, starts)
    finals = means[:, -1].tolist()

    if keep_step_errors:
        for row, (d, first, n) in enumerate(zip(truths, firsts.tolist(), lengths.tolist())):
            result.step_raw_errors_m.extend(abs(z - d) for z in readings[first : first + n])
            result.step_filtered_errors_m.extend(
                abs(mean - d) for mean in means[row, :n].tolist()
            )
    for i, d in enumerate(distances_m):
        cells = slice(i * repetitions, (i + 1) * repetitions)
        filt_errors = [abs(final - d) for final in finals[cells]]
        result.rows.append(
            DistanceRow(
                particle_count=config.particle_count,
                distance_m=float(d),
                raw_error_m=float(np.mean(raw_errors[cells])),
                filtered_error_m=float(np.mean(filt_errors)),
                mse=float(np.mean(np.square(filt_errors))),
                std_m=float(np.std(finals[cells], ddof=1)) if repetitions > 1 else 0.0,
            )
        )
    return result


def run_proximity_experiment(
    scenario: Scenario,
    pairs: Sequence[tuple[float, float]],
    config: FilterConfig,
) -> list[ProximityCellResult]:
    """Score raw and filtered identification over an (X, Y) grid.

    Each cell simulates the per-beacon streams of its three-beacon layout
    at the geometric true distances. The raw baseline is tallied
    per cell; the filtered mode identifies every cell in one grid-wide
    particle bank (proximity.identify_cells), each cell's filters seeded
    from the cell's own seed.
    """
    cells = []
    for x_m, y_m in pairs:
        layout = three_beacon_layout(x_m, y_m)
        cell_seed = derive_seed(
            scenario.seed, TAG_PROXIMITY_CELL, scaled_key(x_m), scaled_key(y_m)
        )
        cell = replace(scenario, seed=cell_seed)
        truth = layout.true_distances()
        streams = {
            spot: generate_stream(cell, spot, truth[spot]) for spot in layout.spots()
        }
        cells.append((layout, streams, derive_seed(cell_seed, TAG_FILTER)))
    filtered = identify_cells(cells, scenario.model, config)
    return [
        ProximityCellResult(
            x_m=float(x_m),
            y_m=float(y_m),
            raw=raw_baseline(streams, scenario.model, layout),
            filtered=tally,
        )
        for (x_m, y_m), (layout, streams, _), tally in zip(pairs, cells, filtered)
    ]


def calibrate_noise_sigma(model: PathLossModel) -> float:
    """One-dimensional sweep for the shadowing sigma of an environment.

    Sweeps sigma over 2..10 dB in 0.05 dB steps and returns the one whose
    simulated raw (single-sample) identification accuracy at the anchor
    cell, over CALIBRATION_ROUNDS seeded rounds, is closest to
    RAW_ANCHOR_ACCURACY. Deterministic for a fixed model.
    """
    side = math.hypot(ANCHOR_X_M, ANCHOR_Y_M)
    mus = np.array(
        [
            predict_rssi(model, side),
            predict_rssi(model, ANCHOR_Y_M),
            predict_rssi(model, side),
        ]
    )
    rng = np.random.default_rng(derive_seed(CALIBRATION_SEED, TAG_CALIBRATION))
    draws = rng.standard_normal((CALIBRATION_ROUNDS, 3))
    best_sigma = None
    best_gap = math.inf
    for sigma in np.arange(2.0, 10.0001, 0.05):
        rssi = mus[None, :] + sigma * draws
        accuracy = float(np.mean(np.argmax(rssi, axis=1) == 1))
        gap = abs(accuracy - RAW_ANCHOR_ACCURACY)
        if gap < best_gap:
            best_gap = gap
            best_sigma = float(sigma)
    return round(best_sigma, 6)


# --- file formats ---


def write_distance_csv(path, rows: Sequence[DistanceRow]) -> None:
    """Table-shaped CSV: particles,distance_m,error_m,mse,std_m."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["particles", "distance_m", "error_m", "mse", "std_m"])
        for r in rows:
            writer.writerow(
                [
                    r.particle_count,
                    f"{r.distance_m:.6f}",
                    f"{r.filtered_error_m:.6f}",
                    f"{r.mse:.6f}",
                    f"{r.std_m:.6f}",
                ]
            )


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


def _checked_keys(obj, what: str, known) -> dict:
    """`obj`, once it is a JSON object whose keys are all in `known`."""
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in known:
            raise ValueError(f"unknown {what} key {key!r}")
    return obj


def scenario_from_dict(obj: dict) -> tuple[Scenario, ExperimentSpec, FilterConfig]:
    """Parse a scenario dict; an unknown key in any of its objects is refused."""
    _checked_keys(obj, "scenario", {f.name for f in fields(Scenario)} | {"experiment", "filter"})
    scenario = Scenario(
        model=model_from_json_dict(_checked_keys(obj["model"], "model", {"n", "C", "d0"})),
        noise_sigma_db=float(obj["noise_sigma_db"]),
        tx_interval_ms=int(obj.get("tx_interval_ms", 1000)),
        duration_s=float(obj.get("duration_s", 300.0)),
        drop_rate=float(obj.get("drop_rate", 0.0)),
        seed=int(obj.get("seed", 0)),
    )
    if "experiment" not in obj:
        raise ValueError("scenario needs an 'experiment' object")
    exp = _checked_keys(obj["experiment"], "experiment", {"kind", "grid", "repetitions"})
    experiment = ExperimentSpec(
        kind=exp["kind"], grid=exp["grid"], repetitions=int(exp.get("repetitions", 1))
    )
    # FilterConfig owns the defaults; each value is cast to its default's type.
    casts = {f.name: type(f.default) for f in fields(FilterConfig)}
    settings = _checked_keys(obj.get("filter", {}), "filter", casts)
    filter_config = FilterConfig(**{key: casts[key](value) for key, value in settings.items()})
    return scenario, experiment, filter_config


def load_scenario(path) -> tuple[Scenario, ExperimentSpec, FilterConfig]:
    with open(path) as fh:
        obj = json.load(fh)
    return scenario_from_dict(obj)
