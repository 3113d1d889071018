"""The two paper experiments as benchmark workloads.

proximity_grid runs `beaconpark proximity` on the indoor 5 x 5 (X, Y)
grid and ranging_sweep runs `beaconpark distance --sweep`. Both scenarios
are written here from the benchmark seed, with the indoor path-loss
constants and noise sigma, so an edit to `scenarios/` does not move them.

A run is a series of slots until the run time is spent. Each slot times
a fresh import of `beaconpark.cli` (set-up), the command in a fresh
interpreter (start to exit, import included) and `beaconpark.cli.main`
in this process, after one untimed warm-up call. Every CSV must be
byte-identical to the first; the first is checked against the oracles.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import common
import oracles

EXPONENT = 2.424
REF_RSSI_DBM = -65.24
SIGMA_DB = 5.45
TX_INTERVAL_MS = 1000
CADENCE_MS = 1000  # proximity's prediction cadence; one sample per beacon per round
FILTER = {
    "particle_count": 1000,
    "beta": 0.5,
    "measurement_noise_m": 1.2,
    "state_min_m": 0.0,
    "state_max_m": 4.0,
}

GRID_X_M = (1.0, 1.5, 2.0, 2.5, 3.0)
GRID_Y_M = (0.5, 1.0, 1.5, 2.0, 2.5)
PROXIMITY_DURATION_S = 300
BEACONS = 3

DISTANCES_M = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
SWEEP_PARTICLES = tuple(range(200, 2001, 200))
SWEEP_REPETITIONS = 3
SWEEP_DURATION_S = 120

# A raw tally is Binomial(rounds, p_loudest): each cell is checked at 5
# standard deviations and the whole grid's total at 5 as well.
RAW_Z = 5.0
# All particle counts filter the same readings toward one posterior, so
# error_m at one distance differs between them only by Monte Carlo error.
# Seeds 1-40 give at most 0.063 m; see README.md.
SWEEP_AGREEMENT_M = 0.15
# error_m and mse are printed with 6 decimals.
CSV_ROUNDING = 1e-5


def _scenario(seed: int, duration_s: int, experiment: dict) -> dict:
    return {
        "model": {"n": EXPONENT, "C": REF_RSSI_DBM, "d0": 1.0},
        "noise_sigma_db": SIGMA_DB,
        "tx_interval_ms": TX_INTERVAL_MS,
        "duration_s": duration_s,
        "drop_rate": 0.0,
        "seed": seed,
        "experiment": experiment,
        "filter": dict(FILTER),
    }


def proximity_scenario(seed: int) -> dict:
    grid = [[x, y] for x in GRID_X_M for y in GRID_Y_M]
    return _scenario(
        seed, PROXIMITY_DURATION_S, {"kind": "proximity", "grid": grid, "repetitions": 1}
    )


def sweep_scenario(seed: int) -> dict:
    return _scenario(
        seed,
        SWEEP_DURATION_S,
        {"kind": "distance", "grid": list(DISTANCES_M), "repetitions": SWEEP_REPETITIONS},
    )


def proximity_rounds(duration_s: int = PROXIMITY_DURATION_S) -> int:
    """Prediction rounds: one per cadence step up to the last sample's timestamp."""
    samples_per_beacon = duration_s * 1000 // TX_INTERVAL_MS
    return (samples_per_beacon - 1) * TX_INTERVAL_MS // CADENCE_MS + 1


PROXIMITY_SAMPLES = len(GRID_X_M) * len(GRID_Y_M) * BEACONS * PROXIMITY_DURATION_S
SWEEP_SAMPLES = len(SWEEP_PARTICLES) * len(DISTANCES_M) * SWEEP_REPETITIONS * SWEEP_DURATION_S


def _rows(text: str, header: list[str]) -> tuple[list[list[str]], list[str]]:
    reader = csv.reader(io.StringIO(text))
    got = next(reader, None)
    if got != header:
        return [], [f"header is {got}, expected {header}"]
    return [row for row in reader if row], []


def check_proximity_csv(text: str) -> list[str]:
    """Problems found in a proximity_results.csv of the benchmark's grid."""
    rows, problems = _rows(
        text, ["X_m", "Y_m", "mode", "count_A", "count_B", "count_C", "accuracy_pct"]
    )
    if problems:
        return problems
    cells = [(x, y) for x in GRID_X_M for y in GRID_Y_M]
    if len(rows) != 2 * len(cells):
        return [f"{len(rows)} rows, expected {2 * len(cells)}"]
    rounds = proximity_rounds()
    raw_hits = filtered_hits = near_rows = 0
    expected_hits = hits = variance = 0.0
    for i, row in enumerate(rows):
        x, y = cells[i // 2]
        mode = ("raw", "filtered")[i % 2]
        where = f"row {i + 1} (X={x}, Y={y}, {mode})"
        if len(row) != 7 or row[2] != mode:
            problems.append(f"{where}: malformed {row}")
            continue
        if (float(row[0]), float(row[1])) != (x, y):
            problems.append(f"{where}: cell is ({row[0]}, {row[1]})")
        counts = [int(c) for c in row[3:6]]
        if sum(counts) != rounds:
            problems.append(f"{where}: tally sums to {sum(counts)}, expected {rounds} rounds")
            continue
        truth = oracles.truth_spot(x, y)
        if row[6] != f"{100.0 * counts[truth] / rounds:.1f}":
            problems.append(f"{where}: accuracy {row[6]} is not {'ABC'[truth]}'s share")
        if mode == "raw":
            means = [
                oracles.mean_rssi_dbm(EXPONENT, REF_RSSI_DBM, d)
                for d in oracles.row_distances(x, y)
            ]
            p = oracles.p_loudest(means, SIGMA_DB, truth)
            sd = math.sqrt(p * (1 - p) / rounds)
            if abs(counts[truth] / rounds - p) > RAW_Z * sd:
                problems.append(
                    f"{where}: raw accuracy {counts[truth] / rounds:.3f} is more than "
                    f"{RAW_Z} sd from the single-sample accuracy {p:.3f}"
                )
            hits += counts[truth]
            expected_hits += rounds * p
            variance += rounds * p * (1 - p)
        if y <= 2.0:
            near_rows += mode == "raw"
            if mode == "raw":
                raw_hits += counts[truth]
            else:
                filtered_hits += counts[truth]
    if abs(hits - expected_hits) > RAW_Z * math.sqrt(variance):
        problems.append(
            f"raw hits over the grid {hits:.0f} are more than {RAW_Z} sd from {expected_hits:.1f}"
        )
    if filtered_hits < raw_hits:
        problems.append(
            f"filtered accuracy over the {near_rows} Y <= 2 m cells ({filtered_hits}) "
            f"is below raw ({raw_hits})"
        )
    return problems


def check_sweep_csv(text: str) -> list[str]:
    """Problems found in a distance_results.csv of the benchmark's sweep."""
    rows, problems = _rows(text, ["particles", "distance_m", "error_m", "mse", "std_m"])
    if problems:
        return problems
    expected = [(n, d) for n in SWEEP_PARTICLES for d in DISTANCES_M]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    errors_by_distance: dict[float, list[float]] = {d: [] for d in DISTANCES_M}
    for i, (row, (n, d)) in enumerate(zip(rows, expected)):
        where = f"row {i + 1} (N={n}, d={d})"
        try:
            particles, distance, error, mse, std = int(row[0]), *map(float, row[1:])
        except ValueError:
            problems.append(f"{where}: malformed {row}")
            continue
        if (particles, distance) != (n, d):
            problems.append(f"{where}: row is N={particles}, d={distance}")
        if not all(math.isfinite(v) for v in (error, mse, std)):
            problems.append(f"{where}: non-finite value")
            continue
        if not 0.0 <= error <= 4.0:
            problems.append(f"{where}: error_m {error} outside [0, 4]")
        if mse + CSV_ROUNDING < error * error:
            problems.append(f"{where}: mse {mse} < error_m^2 {error * error:.6f}")
        if std < 0:
            problems.append(f"{where}: negative std_m")
        errors_by_distance[d].append(error)
    for d, errors in errors_by_distance.items():
        if errors and max(errors) - min(errors) > SWEEP_AGREEMENT_M:
            problems.append(
                f"d={d}: error_m spreads {max(errors) - min(errors):.3f} m across "
                f"particle counts (> {SWEEP_AGREEMENT_M} m)"
            )
    return problems


# Per-layer metrics of the parking_lot client and server processes.
SERVER_ONLY_LAYERS = (
    "server.startup_s",
    "server.transport_us.read",
    "server.transport_us.write",
    "client.req_per_s",
    "client.read_p50_ms",
    "client.read_p99_ms",
    "client.write_p50_ms",
    "client.write_p99_ms",
)


@dataclass(frozen=True)
class Experiment:
    name: str
    scenario: Callable[[int], dict]
    argv: tuple[str, ...]  # subcommand and its flags; --scenario is appended
    csv_name: str
    samples: int
    check: Callable[[str], list[str]]


EXPERIMENTS = {
    "proximity_grid": Experiment(
        "proximity_grid",
        proximity_scenario,
        ("proximity",),
        "proximity_results.csv",
        PROXIMITY_SAMPLES,
        check_proximity_csv,
    ),
    "ranging_sweep": Experiment(
        "ranging_sweep",
        sweep_scenario,
        ("distance", "--sweep"),
        "distance_results.csv",
        SWEEP_SAMPLES,
        check_sweep_csv,
    ),
}


def run(exp: Experiment, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result fields and human-readable lines."""
    out = common.run_dir(exp.name)
    log = os.path.join(out, "stderr.log")
    scenario_path = os.path.join(out, "scenario.json")
    with open(scenario_path, "w") as fh:
        json.dump(exp.scenario(seed), fh, indent=1)

    def argv(out_dir: str) -> list[str]:
        return ["--out-dir", out_dir, *exp.argv, "--scenario", scenario_path]

    # Untimed: puts the interpreter, numpy and scipy in the file cache and
    # writes the bytecode caches, as any earlier command would have.
    common.fresh_import_s(log)

    problems: list[str] = []
    reference: bytes | None = None
    attempted = failed = 0

    def verify(out_dir: str, what: str) -> None:
        nonlocal reference
        with open(os.path.join(out_dir, exp.csv_name), "rb") as fh:
            data = fh.read()
        if reference is None:
            reference = data
            problems.extend(f"{what}: {p}" for p in exp.check(data.decode()))
        elif data != reference:
            problems.append(f"{what}: CSV differs from the first run with the same seed")

    if not trace:
        import beaconpark.cli

        def in_process(args: list[str]) -> int:
            with contextlib.redirect_stdout(io.StringIO()):
                return beaconpark.cli.main(args)

        warm_dir = os.path.join(out, "warm")
        if in_process(argv(warm_dir)) != 0:
            raise common.BenchError(f"beaconpark {' '.join(exp.argv)} failed in-process")
        verify(warm_dir, "in-process warm-up")

    # Each slot takes one sample of every metric, so that the medians span
    # the whole run rather than one stretch of it.
    setup, imports, walls, rss, inproc, summaries = [], [], [], [], [], []
    for i in common.slots(seconds):
        if trace:
            imports.append(common.import_profile())
        else:
            setup.append(common.fresh_import_s(log))
        cold_dir = os.path.join(out, f"cold{i}")
        summary = os.path.join(out, f"trace{i}.json") if trace else None
        wall, peak_mb, code = common.timed_run(common.program(summary) + argv(cold_dir), log)
        attempted += 1
        if code != 0:
            failed += 1
        else:
            walls.append(wall)
            rss.append(peak_mb)
            verify(cold_dir, f"cold run {i}")
            if trace:
                with open(summary) as fh:
                    summaries.append(json.load(fh))
        if trace:
            continue
        warm_dir = os.path.join(out, f"warm{i}")
        t0 = time.perf_counter()
        code = in_process(argv(warm_dir))
        elapsed = time.perf_counter() - t0
        attempted += 1
        if code != 0:
            failed += 1
        else:
            inproc.append(elapsed)
            verify(warm_dir, f"in-process run {i}")

    result = {"attempted": attempted, "failed": failed, "problems": problems, "out": out}
    if trace:
        layers = {k: common.median(s[k] for s in summaries) for k in summaries[0]} if summaries else {}
        layers["cli.import_s"] = common.median(t for t, _ in imports)
        layers["cli.import_scipy_s"] = common.median(s for _, s in imports)
        layers["trace.wall_s"] = common.median(walls)
        for key in SERVER_ONLY_LAYERS:
            layers[key] = 0.0
        result["metrics"] = layers
    else:
        result["metrics"] = {
            "setup_s": common.median(setup),
            "wall_s": common.median(walls),
            "throughput_per_s": exp.samples / common.median(inproc) if inproc else 0.0,
            "peak_rss_mb": common.median(rss),
        }
        result["notes"] = [
            f"samples_per_s {exp.samples / common.median(inproc):.1f} 1/s"
            f" (median of {len(inproc)} in-process commands of {exp.samples} samples)"
            if inproc
            else "samples_per_s: no in-process command completed",
            f"wall_s over {len(walls)} fresh-interpreter commands",
        ]
    return result
