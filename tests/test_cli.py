import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from beaconpark.cli import main
from beaconpark.pathloss import INDOOR_MODEL, OUTDOOR_MODEL, write_calibration_csv
from beaconpark.simulate import Scenario, run_pathloss_experiment

SCENARIOS_DIR = Path(__file__).parent.parent / "scenarios"


def make_calibration_csv(path, model, duration_s=10.0, sigma=0.0, seed=0):
    scenario = Scenario(model=model, noise_sigma_db=sigma, duration_s=duration_s, seed=seed)
    distances = [round(0.2 * k, 10) for k in range(1, 21)]
    data = run_pathloss_experiment(scenario, distances)
    write_calibration_csv(path, data)


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, beaconpark.cli; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


def tiny_scenario(path, kind, grid, duration_s=20.0, reps=1, seed=9, particles=300):
    path.write_text(
        json.dumps(
            {
                "model": {"n": 2.424, "C": -65.24, "d0": 1.0},
                "noise_sigma_db": 3.0,
                "duration_s": duration_s,
                "seed": seed,
                "experiment": {"kind": kind, "grid": grid, "repetitions": reps},
                "filter": {"particle_count": particles},
            }
        )
    )


class TestCalibrateCommand:
    def test_recovers_indoor_constants(self, tmp_path, capsys):
        csv_path = tmp_path / "cal.csv"
        out_path = tmp_path / "fit.json"
        make_calibration_csv(csv_path, INDOOR_MODEL)
        code = main(
            ["--out-dir", str(tmp_path), "calibrate",
             "--input", str(csv_path), "--out", str(out_path)]
        )
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert obj["n"] == pytest.approx(2.424, abs=1e-6)
        assert obj["C"] == pytest.approx(-65.24, abs=1e-6)
        assert (tmp_path / "manifest.json").exists()
        out = capsys.readouterr().out
        assert "n=2.424000" in out

    def test_recovers_outdoor_constants(self, tmp_path):
        csv_path = tmp_path / "cal.csv"
        out_path = tmp_path / "fit.json"
        make_calibration_csv(csv_path, OUTDOOR_MODEL)
        assert main(
            ["--out-dir", str(tmp_path), "calibrate",
             "--input", str(csv_path), "--out", str(out_path)]
        ) == 0
        obj = json.loads(out_path.read_text())
        assert obj["n"] == pytest.approx(2.049, abs=1e-6)
        assert obj["C"] == pytest.approx(-88.78, abs=1e-6)

    def test_single_distance_is_input_error(self, tmp_path, capsys):
        csv_path = tmp_path / "cal.csv"
        csv_path.write_text("distance_m,rssi_dbm\n1.0,-65.0\n1.0,-66.0\n")
        code = main(
            ["--out-dir", str(tmp_path), "calibrate",
             "--input", str(csv_path), "--out", str(tmp_path / "fit.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "rank-deficient" in err

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(
            ["calibrate", "--input", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path / "fit.json")]
        ) == 2

    def test_unequal_sample_counts_warn(self, tmp_path, capsys):
        csv_path = tmp_path / "cal.csv"
        csv_path.write_text(
            "distance_m,rssi_dbm\n1.0,-65.0\n1.0,-66.0\n2.0,-72.0\n"
        )
        assert main(
            ["--out-dir", str(tmp_path), "calibrate",
             "--input", str(csv_path), "--out", str(tmp_path / "fit.json")]
        ) == 0
        assert "unequal sample counts" in capsys.readouterr().err


class TestDistanceCommand:
    def test_writes_csv_and_manifest(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "distance", [1.0, 2.0])
        code = main(["--out-dir", str(tmp_path), "distance", "--scenario", str(scenario_path)])
        assert code == 0
        lines = (tmp_path / "distance_results.csv").read_text().splitlines()
        assert lines[0] == "particles,distance_m,error_m,mse,std_m"
        assert len(lines) == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "distance"
        assert manifest["seed"] == 9

    def test_sweep_produces_ten_rows_per_distance(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        tiny_scenario(
            scenario_path, "distance",
            [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0], duration_s=10.0,
        )
        code = main(
            ["--out-dir", str(tmp_path), "distance", "--scenario", str(scenario_path), "--sweep"]
        )
        assert code == 0
        lines = (tmp_path / "distance_results.csv").read_text().splitlines()
        assert len(lines) == 1 + 10 * 8
        particles = [int(line.split(",")[0]) for line in lines[1:]]
        assert sorted(set(particles)) == list(range(200, 2001, 200))

    def test_rerun_is_byte_identical(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "distance", [0.5, 1.5], seed=77)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["--out-dir", str(out_a), "distance", "--scenario", str(scenario_path)]) == 0
        assert main(["--out-dir", str(out_b), "distance", "--scenario", str(scenario_path)]) == 0
        assert (out_a / "distance_results.csv").read_bytes() == (
            out_b / "distance_results.csv"
        ).read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "distance", [1.0], seed=1)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["--out-dir", str(out_a), "distance", "--scenario", str(scenario_path)]) == 0
        assert main(
            ["--seed", "999", "--out-dir", str(out_b), "distance", "--scenario", str(scenario_path)]
        ) == 0
        assert (out_a / "distance_results.csv").read_text() != (
            out_b / "distance_results.csv"
        ).read_text()
        assert json.loads((out_b / "manifest.json").read_text())["seed"] == 999

    def test_wrong_experiment_kind_is_input_error(self, tmp_path, capsys):
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "proximity", [[1.0, 0.5]])
        assert main(
            ["--out-dir", str(tmp_path), "distance", "--scenario", str(scenario_path)]
        ) == 2

    def test_malformed_scenario_is_input_error(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text("{not json")
        assert main(
            ["--out-dir", str(tmp_path), "distance", "--scenario", str(scenario_path)]
        ) == 2


class TestProximityCommand:
    def test_grid_rows_and_modes(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "proximity", [[1.0, 0.5], [2.0, 1.0]], duration_s=15.0)
        code = main(["--out-dir", str(tmp_path), "proximity", "--scenario", str(scenario_path)])
        assert code == 0
        lines = (tmp_path / "proximity_results.csv").read_text().splitlines()
        assert lines[0] == "X_m,Y_m,mode,count_A,count_B,count_C,accuracy_pct"
        assert len(lines) == 1 + 2 * 2
        assert {line.split(",")[2] for line in lines[1:]} == {"raw", "filtered"}
        for line in lines[1:]:
            assert re.match(r"^\d+\.\d{6},\d+\.\d{6},(raw|filtered),\d+,\d+,\d+,\d+\.\d$", line)

    def test_shipped_scenarios_parse(self):
        for name in ("indoor_proximity.json", "outdoor_proximity.json", "indoor_distance.json"):
            from beaconpark.simulate import load_scenario

            scenario, experiment, config = load_scenario(SCENARIOS_DIR / name)
            assert experiment is not None
            assert config.particle_count == 1000
        indoor, exp, _ = load_scenario(SCENARIOS_DIR / "indoor_proximity.json")
        assert len(exp.grid) == 25
        assert indoor.noise_sigma_db == 5.45


def read_served_port(proc) -> int:
    line = proc.stdout.readline()
    match = re.search(r"serving on [^:]*:(\d+)", line)
    assert match, f"no port in: {line!r}"
    return int(match.group(1))


def send_lines(port, lines):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        fh = sock.makefile("rw", encoding="utf-8", newline="\n")
        out = []
        for line in lines:
            fh.write(line + "\n")
            fh.flush()
            out.append(fh.readline().rstrip("\n"))
        return out


class TestServeCommand:
    def test_serve_register_restart_restores(self, tmp_path):
        lot_path = SCENARIOS_DIR / "demo_lot.json"
        args = [
            sys.executable, "-m", "beaconpark",
            "--out-dir", str(tmp_path),
            "serve", "--lot", str(lot_path), "--bind", "127.0.0.1:0",
            "--clock", "simulated",
        ]
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            port = read_served_port(proc)
            responses = send_lines(
                port,
                ["LIST", "REGISTER A1 u1 PLATE tok", "TICK 5400", "UNREGISTER A1",
                 "REGISTER B2 u2 PLATE2 tok2"],
            )
            assert responses[0].startswith("OK A1:Available:200")
            assert responses[1] == "OK S1"
            assert responses[2] == "OK"
            assert responses[3] == "OK 300"
            assert responses[4] == "OK S2"
        finally:
            proc.terminate()
            proc.wait(timeout=10)

        # restart on the same journal: B2 must still be occupied
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            port = read_served_port(proc)
            (listing,) = send_lines(port, ["LIST"])
            assert "B2:Occupied:150" in listing
            assert "A1:Available:200" in listing
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_corrupt_journal_is_journal_error(self, tmp_path, capsys):
        journal = tmp_path / "lot.journal"
        journal.write_text("not json\n")
        assert main(
            ["--out-dir", str(tmp_path), "serve", "--lot", str(SCENARIOS_DIR / "demo_lot.json"),
             "--journal", str(journal), "--bind", "127.0.0.1:0"]
        ) == 2
        err = capsys.readouterr().err
        assert "invalid journal" in err
        assert f"{journal} line 1" in err

    @pytest.mark.parametrize(
        "entry, reason",
        [
            ({"op": "teleport"}, "unknown journal op: teleport"),
            ({"op": "register", "spot": "A1"}, "missing field 'user_id'"),
        ],
    )
    def test_invalid_journal_entry_is_journal_error(self, tmp_path, capsys, entry, reason):
        journal = tmp_path / "lot.journal"
        journal.write_text("\n" + json.dumps(entry) + "\n")  # the entry is on line 2
        assert main(
            ["--out-dir", str(tmp_path), "serve", "--lot", str(SCENARIOS_DIR / "demo_lot.json"),
             "--journal", str(journal), "--bind", "127.0.0.1:0"]
        ) == 2
        err = capsys.readouterr().err
        assert f"invalid journal: {journal} line 2: {reason}" in err

    def test_missing_lot_config_is_input_error(self, tmp_path):
        assert main(
            ["--out-dir", str(tmp_path), "serve", "--lot", str(tmp_path / "nope.json"),
             "--bind", "127.0.0.1:0"]
        ) == 2
