"""The traced benchmark wraps beaconpark's functions by name: a guard that they still exist,
for the parking service and for both experiments run through the benchmark's launcher."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracing

rec = tracing.Recorder()
tracing.install(rec)
from beaconpark import parking, server

lot, journal = {lot!r}, {journal!r}
service = parking.service_from_files(lot, journal)
clock = server.SimulatedClock()
print(server.handle_command(service, clock, "REGISTER A1 u1 PLATE tok"))
print(server.handle_command(service, clock, "LIST").split(";")[0])
service._journal_sink.close()
parking.service_from_files(lot, journal)._journal_sink.close()
summary = tracing.summary(rec)
print(summary["parking.replay_entries"], summary["server.commands.REGISTER.OK"])
"""


def test_traced_restart_counts_the_replay_and_the_register(tmp_path):
    script = SCRIPT.format(
        bench=str(ROOT / "bench"), src=str(ROOT / "src"),
        lot=str(ROOT / "scenarios" / "demo_lot.json"), journal=str(tmp_path / "lot.journal"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["OK S1", "OK A1:Occupied:200", "2 1"]


def tiny_scenario(kind, grid, repetitions):
    """A 10 s scenario: 10 samples per beacon stream; `--sweep` overrides its 100 particles."""
    return {
        "model": {"n": 2.424, "C": -65.24, "d0": 1.0},
        "noise_sigma_db": 5.45,
        "duration_s": 10,
        "seed": 42,
        "experiment": {"kind": kind, "grid": grid, "repetitions": repetitions},
        "filter": {"particle_count": 100},
    }


@pytest.mark.parametrize(
    "argv, scenario, csv_name, samples",
    [
        # 2 cells x 3 beacons x 10 samples
        (["proximity"], tiny_scenario("proximity", [[1.0, 0.5], [2.0, 1.0]], 1),
         "proximity_results.csv", 60),
        # 2 distances x 2 repetitions x 10 samples
        (["distance", "--sweep"], tiny_scenario("distance", [1.0, 2.5], 2),
         "distance_results.csv", 40),
    ],
    ids=["proximity", "distance-sweep"],
)
def test_traced_experiment_writes_its_csv(tmp_path, argv, scenario, csv_name, samples):
    scenario_path, summary_path = tmp_path / "scenario.json", tmp_path / "summary.json"
    scenario_path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "launch.py"), str(summary_path),
         "--out-dir", str(out_dir), *argv, "--scenario", str(scenario_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )},
    )
    assert proc.returncode == 0, proc.stderr
    assert (out_dir / csv_name).stat().st_size > 0
    assert json.loads(summary_path.read_text())["simulate.samples"] == samples
