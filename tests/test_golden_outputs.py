"""Result CSVs are byte-identical to recorded digests.

A small scenario with advertisement loss and a 350 ms advertising
interval puts zero, one or several samples into each one-second round,
so both the round split and the carried-forward raw estimate are
exercised. The digests were recorded before the sample streams became
numpy arrays; a change that moves any result bit fails here.

The ragged grid drops most advertisements from short streams, so its
cells end on different round counts (8, 8, 7, 8 and 6) and one beacon
of the (1.0, 0.5) cell is never heard; its digest was recorded while
each cell still ran its own filter bank.

The shipped scenarios' CSVs are pinned too, one test each, with the
digests recorded in CHANGES.md since the experiments moved onto one
particle bank.
"""

import hashlib
import json
from pathlib import Path

import pytest

from beaconpark.cli import main

SCENARIO = {
    "model": {"n": 2.424, "C": -65.24, "d0": 1.0},
    "noise_sigma_db": 5.45,
    "tx_interval_ms": 350,
    "duration_s": 30,
    "drop_rate": 0.3,
    "seed": 77,
    "filter": {"particle_count": 200},
}

PROXIMITY_GRID = [[1.0, 0.5], [1.5, 1.5], [2.5, 2.5]]
DISTANCE_GRID = [0.5, 2.0, 3.5]
RAGGED_GRID = [[1.0, 0.5], [1.5, 1.5], [2.5, 2.5], [2.0, 1.0], [3.0, 2.0]]
RAGGED = {"duration_s": 8, "drop_rate": 0.85, "seed": 16}

GOLDEN_SHA256 = {
    "proximity": "91ec21fe727ab4f62e2cf143e498801a7fea1f0f07d5dfcdc140f4a763dbab8c",
    "distance": "6f5977f58c2786a2589328460998ae95b31c10df10e1a7efdae6fe4079ffe39a",
    "proximity_ragged": "9a8682c851261dccb8fad40b8f0ff9b53167396aa3a2aaf1b11e95d6b78046e0",
}

SCENARIOS = Path(__file__).parent.parent / "scenarios"

SHIPPED_SHA256 = {
    ("indoor_proximity.json", "proximity", ()): (
        "4770d373d134d35b07f51852ef0d3a26af5556e94b6aaded8c26fb8cc8208a06"
    ),
    ("outdoor_proximity.json", "proximity", ()): (
        "d5f5fd5190537073ad300c1eedb820272351b05fd4e8f201b86845bf2cbcce63"
    ),
    ("indoor_distance.json", "distance", ("--sweep",)): (
        "516520dbf6d54b4786a063845144734ff4c4f99e46c0aaadad1d1b33fbd0ee03"
    ),
    ("indoor_distance.json", "distance", ()): (
        "a7dda5eee804e64b08d7dd116225c68e74ba03b7c2048a81fa12c35e089cf32e"
    ),
}


def _digest(tmp_path, command, grid, extra_args=(), overrides=None):
    scenario = dict(SCENARIO, **(overrides or {}))
    repetitions = 2 if command == "distance" else 1
    scenario["experiment"] = {"kind": command, "grid": grid, "repetitions": repetitions}
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / command
    assert main(["--out-dir", str(out_dir), command, "--scenario", str(path), *extra_args]) == 0
    return hashlib.sha256((out_dir / f"{command}_results.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "command, grid, extra_args",
    [("proximity", PROXIMITY_GRID, ()), ("distance", DISTANCE_GRID, ("--sweep",))],
)
def test_result_csv_matches_recorded_digest(tmp_path, command, grid, extra_args):
    assert _digest(tmp_path, command, grid, extra_args) == GOLDEN_SHA256[command]


def test_ragged_proximity_csv_matches_recorded_digest(tmp_path):
    digest = _digest(tmp_path, "proximity", RAGGED_GRID, overrides=RAGGED)
    assert digest == GOLDEN_SHA256["proximity_ragged"]


@pytest.mark.parametrize(
    "scenario, command, extra_args",
    list(SHIPPED_SHA256),
    ids=["indoor-proximity", "outdoor-proximity", "indoor-distance-sweep", "indoor-distance"],
)
def test_shipped_scenario_csv_matches_recorded_digest(tmp_path, scenario, command, extra_args):
    out_dir = tmp_path / "out"
    args = ["--out-dir", str(out_dir), command, "--scenario", str(SCENARIOS / scenario)]
    assert main([*args, *extra_args]) == 0
    digest = hashlib.sha256((out_dir / f"{command}_results.csv").read_bytes()).hexdigest()
    assert digest == SHIPPED_SHA256[scenario, command, extra_args]
