import hashlib
import importlib.metadata
import json
import math
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from beaconpark import cli, simulate
from beaconpark.cli import main
from beaconpark.pathloss import INDOOR_MODEL, OUTDOOR_MODEL
from beaconpark.simulate import Scenario, run_pathloss_experiment
from helpers import python_env, read_served_port, send_lines, write_calibration_csv

SCENARIOS_DIR = Path(__file__).parent.parent / "scenarios"


def make_calibration_csv(path, model, duration_s=10.0, sigma=0.0, seed=0):
    scenario = Scenario(model=model, noise_sigma_db=sigma, duration_s=duration_s, seed=seed)
    distances = [round(0.2 * k, 10) for k in range(1, 21)]
    data = run_pathloss_experiment(scenario, distances)
    write_calibration_csv(path, data)


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports beaconpark from this checkout."""
    return subprocess.run(
        [sys.executable, "-c", code], env=python_env(), capture_output=True, text=True
    )


@pytest.mark.parametrize("module", ["scipy", "numpy", "dataclasses", "inspect", "logging"])
def test_cli_import_leaves_module_unloaded(module):
    """`serve` imports cli, parking and server; none of them loads `module`."""
    proc = run_python(
        "import sys, beaconpark.cli, beaconpark.parking, beaconpark.server;"
        f" print({module!r} in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_experiment_import_leaves_dataclasses_unloaded():
    """`calibrate`, `distance` and `proximity` import cli and simulate; no record is a dataclass."""
    proc = run_python(
        "import sys, beaconpark.cli, beaconpark.simulate; print('dataclasses' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_readme_library_example_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1.729 m\n"


@pytest.mark.parametrize("installed", [True, False])
def test_manifest_records_scipy_only_when_installed(tmp_path, monkeypatch, installed):
    """No run uses scipy, so the manifest leaves it out whether or not it is installed."""
    real_version = importlib.metadata.version

    def version(name):
        if name == "scipy":
            if not installed:
                raise importlib.metadata.PackageNotFoundError(name)
            return "1.10.0"
        return real_version(name)

    monkeypatch.setattr(importlib.metadata, "version", version)
    if not installed:
        monkeypatch.setitem(sys.modules, "scipy", None)
    cli.write_manifest(str(tmp_path), "proximity", 3, None)
    versions = json.loads((tmp_path / "manifest.json").read_text())["versions"]
    assert set(versions) == {"beaconpark", "python", "numpy"}


def test_manifest_records_numpy_cpu_dispatch(tmp_path):
    """The dispatch targets numpy's kernels use here, as `test_portability.py` reads them."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    cli.write_manifest(str(tmp_path), "proximity", 3, None)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["numpy_cpu_dispatch"] == [n for n in __cpu_dispatch__ if __cpu_features__[n]]
    cli.write_manifest(str(tmp_path), "serve", 3, None)
    assert json.loads((tmp_path / "manifest.json").read_text())["numpy_cpu_dispatch"] is None
    if __cpu_dispatch__:  # with every target disabled, numpy runs its baseline
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from beaconpark import cli;"
             " cli.write_manifest(sys.argv[1], 'distance', 3, None)", str(tmp_path)],
            env=dict(python_env(), NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__)),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "manifest.json").read_text())["numpy_cpu_dispatch"] == []


def test_calibrate_runs_without_scipy(tmp_path):
    csv_path = tmp_path / "cal.csv"
    out_path = tmp_path / "fit.json"
    make_calibration_csv(csv_path, INDOOR_MODEL, sigma=2.0, seed=4)
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "from beaconpark.cli import main\n"
        f"sys.exit(main(['--out-dir', {str(tmp_path)!r}, 'calibrate',"
        f" '--input', {str(csv_path)!r}, '--out', {str(out_path)!r}]))\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    fit = json.loads(out_path.read_text())
    assert fit["n_ci95"][0] < fit["n"] < fit["n_ci95"][1]
    assert fit["C_ci95"][0] < fit["C"] < fit["C_ci95"][1]


def tiny_scenario(path, kind, grid, duration_s=20.0, reps=1, seed=9, particles=300, filt=None):
    path.write_text(
        json.dumps(
            {
                "model": {"n": 2.424, "C": -65.24, "d0": 1.0},
                "noise_sigma_db": 3.0,
                "duration_s": duration_s,
                "seed": seed,
                "experiment": {"kind": kind, "grid": grid, "repetitions": reps},
                "filter": {"particle_count": particles, **(filt or {})},
            }
        )
    )


@pytest.mark.parametrize("command", ["calibrate", "distance", "proximity", "serve"])
def test_negative_seed_is_refused_before_any_command(tmp_path, capsys, monkeypatch, command):
    from beaconpark import server

    monkeypatch.setattr(server.ParkingTCPServer, "serve_forever", lambda self: None)
    make_calibration_csv(tmp_path / "cal.csv", INDOOR_MODEL)
    tiny_scenario(tmp_path / "distance.json", "distance", [1.0])
    tiny_scenario(tmp_path / "proximity.json", "proximity", [[1.0, 0.5]])
    args = {
        "calibrate": ["--input", str(tmp_path / "cal.csv"), "--out", str(tmp_path / "fit.json")],
        "distance": ["--scenario", str(tmp_path / "distance.json")],
        "proximity": ["--scenario", str(tmp_path / "proximity.json")],
        "serve": ["--lot", str(SCENARIOS_DIR / "demo_lot.json"), "--bind", "127.0.0.1:0"],
    }[command]
    out_dir = tmp_path / "out"
    assert main(["--seed", "-1", "--out-dir", str(out_dir), command, *args]) == 2
    assert capsys.readouterr().err == "ERR seed must be a non-negative integer\n"
    assert not out_dir.exists() and not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize(
    "kind, grid, reason",
    [
        ("distance", [2.0], "distance 2.0 m, repetition 0: no samples at"),
        ("proximity", [[1.0, 0.5]], "cell X=1.0 m, Y=0.5 m: no samples at"),
    ],
    ids=["distance-empty-stream", "proximity-empty-streams"],
)
def test_run_input_error_names_its_input(tmp_path, capsys, kind, grid, reason):
    # 0.5 s holds no transmission slot at the default 1000 ms interval
    scenario_path = tmp_path / "s.json"
    tiny_scenario(scenario_path, kind, grid, duration_s=0.5)
    assert main(["--out-dir", str(tmp_path), kind, "--scenario", str(scenario_path)]) == 2
    assert capsys.readouterr().err == (
        f"ERR {reason} duration_s 0.5, tx_interval_ms 1000, drop_rate 0.0\n"
    )
    assert not (tmp_path / "manifest.json").exists()


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

    @pytest.mark.parametrize("row", ["1.0,nan", "1.0,-1e309", "inf,-65.0"])
    def test_non_finite_value_is_input_error(self, tmp_path, capsys, row):
        # -1e309 overflows to -inf; the fit would fail on nan without naming the line
        csv_path = tmp_path / "cal.csv"
        csv_path.write_text(f"distance_m,rssi_dbm\n1.0,-65.0\n{row}\n2.0,-72.0\n")
        code = main(
            ["--out-dir", str(tmp_path), "calibrate",
             "--input", str(csv_path), "--out", str(tmp_path / "fit.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3: values must be finite" in err
        assert not (tmp_path / "fit.json").exists()

    def test_rssi_rising_with_distance_is_input_error(self, tmp_path, capsys):
        csv_path = tmp_path / "cal.csv"
        csv_path.write_text("distance_m,rssi_dbm\n1,-80\n2,-70\n3,-60\n")
        out_dir = tmp_path / "out"
        code = main(
            ["--out-dir", str(out_dir), "calibrate",
             "--input", str(csv_path), "--out", str(out_dir / "fit.json")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"ERR cannot fit --input {csv_path}: RSSI does not fall with distance: the fitted"
            " slope is +40.9814 dB per decade, so the path-loss exponent -4.09814 is not positive\n"
        )
        assert not out_dir.exists()

    def test_missing_out_directory_is_input_error(self, tmp_path, capsys):
        csv_path = tmp_path / "cal.csv"
        make_calibration_csv(csv_path, INDOOR_MODEL)
        missing = tmp_path / "nodir"
        code = main(
            ["--out-dir", str(tmp_path / "out"), "calibrate",
             "--input", str(csv_path), "--out", str(missing / "fit.json")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"ERR output directory not found: {missing}\n"
        assert not (tmp_path / "out" / "manifest.json").exists()
        assert not missing.exists()

    def test_out_in_the_new_out_dir_is_written(self, tmp_path):
        csv_path = tmp_path / "cal.csv"
        make_calibration_csv(csv_path, INDOOR_MODEL)
        out_dir = tmp_path / "new"
        assert main(
            ["--out-dir", str(out_dir), "calibrate",
             "--input", str(csv_path), "--out", str(out_dir / "fit.json")]
        ) == 0
        assert {path.name for path in out_dir.iterdir()} == {"fit.json", "manifest.json"}

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

    def test_two_distances_warn_of_zero_width_intervals(self, tmp_path, capsys):
        # two points fit the line exactly, leaving no degrees of freedom for an interval
        csv_path = tmp_path / "cal.csv"
        csv_path.write_text("distance_m,rssi_dbm\n1.0,-65.0\n3.0,-75.5\n")
        args = ["--out-dir", str(tmp_path), "calibrate", "--input", str(csv_path),
                "--out", str(tmp_path / "fit.json")]
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert err == "warning: two distances leave no interval: each ci95 has zero width\n"
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["n_ci95"] == [fit["n"], fit["n"]]
        with open(csv_path, "a") as fh:
            fh.write("2.0,-72.0\n")
        assert main(args) == 0
        assert capsys.readouterr().err == ""


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

    def test_sweep_generates_each_stream_once(self, tmp_path, monkeypatch):
        calls = []
        generate = simulate.generate_stream

        def counting(*args):
            calls.append(args)
            return generate(*args)

        monkeypatch.setattr(simulate, "generate_stream", counting)
        scenario_path = tmp_path / "s.json"
        grid = [0.5, 1.5, 2.5]
        tiny_scenario(scenario_path, "distance", grid, duration_s=5.0, reps=2)
        code = main(
            ["--out-dir", str(tmp_path), "distance", "--scenario", str(scenario_path), "--sweep"]
        )
        assert code == 0
        assert len(calls) == len(grid) * 2
        lines = (tmp_path / "distance_results.csv").read_text().splitlines()
        assert len(lines) == 1 + len(cli.PARTICLE_SWEEP) * len(grid)

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

    def test_manifest_records_the_scenario_sha256(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "distance", [1.0], duration_s=5.0)
        assert main(["--out-dir", str(tmp_path), "distance", "--scenario", str(scenario_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scenario_sha256"] == hashlib.sha256(scenario_path.read_bytes()).hexdigest()
        assert set(manifest["versions"]) == {"beaconpark", "python", "numpy"}

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

    def test_filter_seed_is_input_error(self, tmp_path, capsys):
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "distance", [1.0], filt={"seed": 5})
        assert main(
            ["--out-dir", str(tmp_path), "distance", "--scenario", str(scenario_path)]
        ) == 2
        assert "invalid scenario: unknown filter key 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda s: {**s, "filter": [1, 2]}, "filter must be a JSON object, got list"),
            (
                lambda s: {**s, "filter": {"particle_count": None}},
                "field 'particle_count' must be int, got None",
            ),
            (
                lambda s: {**s, "experiment": {"kind": "distance", "grid": 5}},
                "field 'grid' must be list, got 5",
            ),
            (lambda s: [s], "scenario must be a JSON object, got list"),
            (lambda s: {**s, "duraton_s": 10}, "unknown scenario key 'duraton_s'"),
            (lambda s: {**s, "seed": -3}, "seed must be a non-negative integer"),
            (
                lambda s: {**s, "experiment": {**s["experiment"], "repetitons": 5}},
                "unknown experiment key 'repetitons'",
            ),
            (
                lambda s: {**s, "model": {**s["model"], "d_0": 2.0}},
                "unknown model key 'd_0'",
            ),
            (
                lambda s: {**s, "layout": {"listener": {"x_m": 0.0, "y_m": 1.0}}},
                "unknown scenario key 'layout'",
            ),
            (
                lambda s: {k: v for k, v in s.items() if k != "experiment"},
                "scenario needs an 'experiment' object",
            ),
            (
                lambda s: {**s, "experiment": {"kind": "distance", "grid": [[1.0, 0.5]]}},
                "distance experiment grid must be a list of distances, got entry [1.0, 0.5]",
            ),
            (
                lambda s: {**s, "experiment": {"kind": "proximity", "grid": [1.0, 2.0]}},
                "proximity experiment grid must be a list of [X, Y] pairs, got entry 1.0",
            ),
            (
                lambda s: {**s, "experiment": {"kind": "proximity", "grid": [[1.0, "x"]]}},
                "proximity experiment grid must be a list of [X, Y] pairs, got entry [1.0, 'x']",
            ),
            (
                lambda s: {
                    **s, "experiment": {"kind": "proximity", "grid": [[1.0, 0.5]], "repetitions": 2}
                },
                "proximity experiment takes repetitions 1, got 2",
            ),
            (lambda s: {**s, "seed": True}, "field 'seed' must be int, got True"),
            (
                lambda s: {**s, "noise_sigma_db": "3.0"},
                "field 'noise_sigma_db' must be number, got '3.0'",
            ),
            (lambda s: {**s, "duration_s": "5"}, "field 'duration_s' must be number, got '5'"),
            (
                lambda s: {**s, "experiment": {**s["experiment"], "grid": ["1.0"]}},
                "distance experiment grid must be a list of distances, got entry '1.0'",
            ),
            (
                lambda s: {**s, "tx_interval_ms": 100.9},
                "field 'tx_interval_ms' must be int, got 100.9",
            ),
            (
                lambda s: {**s, "experiment": {**s["experiment"], "repetitions": 2.9}},
                "field 'repetitions' must be int, got 2.9",
            ),
            (
                lambda s: {**s, "filter": {"particle_count": 1000.7}},
                "field 'particle_count' must be int, got 1000.7",
            ),
            (lambda s: {k: v for k, v in s.items() if k != "model"}, "missing field 'model'"),
            (
                lambda s: {k: v for k, v in s.items() if k != "noise_sigma_db"},
                "missing field 'noise_sigma_db'",
            ),
            (lambda s: {**s, "experiment": {"grid": [1.0]}}, "missing field 'kind'"),
            (
                lambda s: {**s, "filter": {"measurement_noise_m": 1e-200}},
                "measurement_noise_m must be positive, with finite -0.5 / noise**2",
            ),
            (
                lambda s: {**s, "filter": {"measurement_noise_m": 1e-160}},
                "measurement_noise_m must be positive, with finite -0.5 / noise**2",
            ),
            (
                lambda s: {**s, "filter": {"state_min_m": -1e308, "state_max_m": 1e308}},
                "state_max_m - state_min_m must be positive and finite",
            ),
            (
                lambda s: {**s, "duration_s": 1e308},
                "duration_s 1e+308 is too long at tx_interval_ms 1000: the last slot's timestamp",
            ),
            (
                lambda s: {**s, "duration_s": 1e300},
                "duration_s 1e+300 is too long at tx_interval_ms 1000: the last slot's timestamp",
            ),
            (
                lambda s: {**s, "tx_interval_ms": 10**30},
                f"tx_interval_ms {10**30} does not fit an int64 timestamp",
            ),
        ],
        ids=[
            "filter-list", "null-count", "scalar-grid", "top-level-list", "unknown-key",
            "negative-seed", "unknown-experiment-key",
            "unknown-model-key", "unknown-layout-key", "missing-experiment",
            "distance-grid-of-pairs", "proximity-grid-of-scalars",
            "proximity-grid-bad-coordinate", "proximity-repetitions",
            "bool-seed", "string-sigma", "string-duration", "string-grid-entry",
            "fractional-interval", "fractional-repetitions", "fractional-count",
            "missing-model", "missing-sigma", "missing-kind",
            "underflowing-noise-square", "infinite-gain-scale", "infinite-state-width",
            "overflowing-duration-ms", "too-many-slots", "interval-beyond-int64",
        ],
    )
    def test_invalid_scenario_is_input_error(self, tmp_path, capsys, edit, reason):
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "distance", [1.0])
        scenario_path.write_text(json.dumps(edit(json.loads(scenario_path.read_text()))))
        assert main(["--out-dir", str(tmp_path), "distance", "--scenario", str(scenario_path)]) == 2
        assert f"invalid scenario: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_rssi_whose_distance_overflows_is_input_error(self, tmp_path, capsys):
        # at 5000 dB of noise some RSSI falls below -7,537 dBm, past the largest distance
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "distance", [1.0])
        scenario = json.loads(scenario_path.read_text())
        scenario_path.write_text(json.dumps({**scenario, "noise_sigma_db": 5000}))
        assert main(["--out-dir", str(tmp_path), "distance", "--scenario", str(scenario_path)]) == 2
        assert re.search(
            r"^ERR RSSI -[0-9.e+]+ dBm inverts to a distance beyond the largest float$",
            capsys.readouterr().err,
            re.M,
        )
        # the manifest is written only once the experiment has run
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda s: {**s, "noise_sigma_db": math.nan}, "noise_sigma_db"),
            (lambda s: {**s, "duration_s": math.inf}, "duration_s"),
            (lambda s: {**s, "experiment": {**s["experiment"], "grid": [1.0, math.nan]}}, "grid"),
            (lambda s: {**s, "filter": {"state_max_m": math.inf}}, "state_max_m"),
            (lambda s: {**s, "model": {**s["model"], "C": -math.inf}}, "C"),
            (lambda s: {**s, "noise_sigma_db": 10**400}, "noise_sigma_db"),
        ],
        ids=[
            "nan-sigma", "infinite-duration", "nan-grid-entry", "infinite-state-max",
            "minus-infinite-C", "integer-beyond-float-sigma",
        ],
    )
    def test_non_finite_number_is_input_error(self, tmp_path, capsys, edit, key):
        # json writes and reads Python's non-standard NaN and Infinity literals
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "distance", [1.0])
        scenario_path.write_text(json.dumps(edit(json.loads(scenario_path.read_text()))))
        out_dir = tmp_path / "out"
        assert main(["--out-dir", str(out_dir), "distance", "--scenario", str(scenario_path)]) == 2
        assert f"invalid scenario: field {key!r} must be a finite number" in capsys.readouterr().err
        assert not (out_dir / "manifest.json").exists()

    def test_unknown_filter_key_is_input_error(self, tmp_path, capsys):
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "distance", [1.0], filt={"particles": 200})
        assert main(
            ["--out-dir", str(tmp_path), "distance", "--scenario", str(scenario_path)]
        ) == 2
        assert "unknown filter key 'particles'" in capsys.readouterr().err

    def test_wrong_experiment_kind_is_input_error(self, tmp_path, capsys):
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "proximity", [[1.0, 0.5]])
        assert main(
            ["--out-dir", str(tmp_path), "distance", "--scenario", str(scenario_path)]
        ) == 2
        assert "experiment kind is 'proximity', expected 'distance'" in capsys.readouterr().err

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

    def test_manifest_records_the_scenario_sha256(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "proximity", [[1.0, 0.5]], duration_s=5.0)
        assert main(["--out-dir", str(tmp_path), "proximity", "--scenario", str(scenario_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scenario_sha256"] == hashlib.sha256(scenario_path.read_bytes()).hexdigest()

    def test_distance_scenario_is_input_error(self, tmp_path, capsys):
        scenario_path = tmp_path / "s.json"
        tiny_scenario(scenario_path, "distance", [1.0])
        assert main(
            ["--out-dir", str(tmp_path), "proximity", "--scenario", str(scenario_path)]
        ) == 2
        assert "experiment kind is 'distance', expected 'proximity'" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_shipped_scenarios_parse(self):
        for name in ("indoor_proximity.json", "outdoor_proximity.json", "indoor_distance.json"):
            from beaconpark.simulate import load_scenario

            scenario, experiment, config = load_scenario(SCENARIOS_DIR / name)
            assert config.particle_count == 1000
        indoor, exp, _ = load_scenario(SCENARIOS_DIR / "indoor_proximity.json")
        assert len(exp.grid) == 25
        assert indoor.noise_sigma_db == 5.45


class TestServeCommand:
    @pytest.fixture
    def never_serve(self, monkeypatch):
        """A lot that loads ends the command with exit 1 here instead of serving forever."""
        from beaconpark import server

        def refuse(self, *args, **kwargs):
            raise RuntimeError("the lot loaded")

        monkeypatch.setattr(server.ParkingTCPServer, "serve_forever", refuse)

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
            proc.stdout.close()
            proc.stderr.close()

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
            proc.stdout.close()
            proc.stderr.close()

    def test_serve_runs_without_numpy(self, tmp_path):
        # numpy cannot be imported: serve binds, answers, restarts on its
        # journal and exits 0 on SIGINT without it.
        script = (
            "import sys; sys.modules['numpy'] = None\n"
            "from beaconpark.cli import main\n"
            f"sys.exit(main(['--out-dir', {str(tmp_path)!r}, 'serve', '--lot',"
            f" {str(SCENARIOS_DIR / 'demo_lot.json')!r}, '--bind', '127.0.0.1:0',"
            " '--clock', 'simulated']))\n"
        )
        replies = []
        for lines in (["REGISTER A1 u1 PLATE tok", "LIST"], ["LIST"]):
            proc = subprocess.Popen(
                [sys.executable, "-X", "faulthandler", "-c", script],
                env=python_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            try:
                replies.append(send_lines(read_served_port(proc), lines))
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    # faulthandler prints every thread's stack on SIGABRT
                    proc.send_signal(signal.SIGABRT)
                    proc.wait(timeout=10)
                    pytest.fail(f"serve still running 10 s after SIGINT:\n{proc.stderr.read()}")
                assert proc.wait(timeout=10) == 0, proc.stderr.read()
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
                proc.stdout.close()
                proc.stderr.close()
        assert replies[0][0] == "OK S1"
        assert "A1:Occupied:200" in replies[0][1]
        assert replies[1] == replies[0][1:]
        versions = json.loads((tmp_path / "manifest.json").read_text())["versions"]
        assert set(versions) == {"beaconpark", "python"}

    def test_sigint_stops_serve_started_with_sigint_ignored(self, tmp_path):
        # as a background job of a non-interactive shell starts it
        args = [
            sys.executable, "-m", "beaconpark", "--out-dir", str(tmp_path),
            "serve", "--lot", str(SCENARIOS_DIR / "demo_lot.json"), "--bind", "127.0.0.1:0",
        ]
        proc = subprocess.Popen(
            args, env=python_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            assert send_lines(read_served_port(proc), ["STATUS A1"]) == ["OK Available 200"]
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()

    def test_journal_restarts_only_under_its_own_clock(self, tmp_path, capsys, never_serve):
        # B1 opened at simulated 0 ms and closed on the system clock was billed from 1970
        journal = tmp_path / "lot.journal"
        serve = [
            "--out-dir", str(tmp_path), "serve", "--lot", str(SCENARIOS_DIR / "demo_lot.json"),
            "--bind", "127.0.0.1:0", "--journal", str(journal),
        ]
        replies = []
        for lines in (["REGISTER B1 u1 P tok"], ["TICK 3600", "UNREGISTER B1"]):
            proc = subprocess.Popen(
                [sys.executable, "-m", "beaconpark", *serve, "--clock", "simulated"],
                env=python_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            try:
                replies.append(send_lines(read_served_port(proc), lines))
            finally:
                proc.terminate()
                proc.wait(timeout=10)
                proc.stdout.close()
                proc.stderr.close()
            if len(replies) == 1:  # the default system clock refuses the journal
                written = journal.read_bytes()
                assert main(serve) == 2
                assert capsys.readouterr().err == (
                    f"ERR invalid journal: {journal} line 1: journal written under the "
                    "simulated clock, served under the system clock\n"
                )
                assert journal.read_bytes() == written
        # under its own clock the journal resumes: B1 bills one hour at 150 cents
        assert replies == [["OK S1"], ["OK", "OK 150"]]

    def test_negative_time_limit_does_not_stop_the_server(self, tmp_path):
        # A REGISTER whose limit ends before it starts could never be billed:
        # admitted, it made the next poll of the serve loop raise and exit.
        args = [
            sys.executable, "-m", "beaconpark", "--out-dir", str(tmp_path),
            "serve", "--lot", str(SCENARIOS_DIR / "demo_lot.json"), "--bind", "127.0.0.1:0",
            "--clock", "simulated",
        ]
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            port = read_served_port(proc)
            (reply,) = send_lines(port, ["REGISTER A1 u p card -5"])
            assert reply.startswith("ERR BADCMD")
            # serve_forever polls every 0.5 s; two polls pass before the next line
            with pytest.raises(subprocess.TimeoutExpired):
                proc.wait(timeout=1.2)
            assert send_lines(port, ["STATUS A1", "TICK 60", "STATUS A1"]) == [
                "OK Available 200", "OK", "OK Available 200",
            ]
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()
        assert json.loads((tmp_path / "parking.journal").read_text()) == {
            "op": "snapshot", "clock": "simulated", "sessions": 0, "spots": [],
        }

    def test_restart_reports_what_it_restored(self, tmp_path):
        journal = tmp_path / "lot.journal"
        args = [
            sys.executable, "-m", "beaconpark", "--out-dir", str(tmp_path),
            "serve", "--lot", str(SCENARIOS_DIR / "demo_lot.json"), "--bind", "127.0.0.1:0",
            "--clock", "simulated", "--journal", str(journal),
        ]
        for lines in (
            ["REGISTER A1 u1 P tok", "REGISTER A2 u2 P CHARGEFAIL", "UNREGISTER A2"],
            [],
        ):
            proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            try:
                port = read_served_port(proc)
                send_lines(port, lines)
            finally:
                proc.terminate()
                proc.wait(timeout=10)
            restored = proc.stderr.readline()
            proc.stdout.close()
            proc.stderr.close()
        assert re.fullmatch(
            rf"journal {re.escape(str(journal))}: replayed 4 entries, 2 live sessions, "
            r"restored in \d+\.\d ms\n",
            restored,
        )

    def test_restart_resumes_the_simulated_clock(self, tmp_path):
        # TICKs are not journaled: the clock resumes at A1's start (600 s),
        # not at 0, so A1 is neither billed from before its start nor refused
        journal = tmp_path / "lot.journal"
        replies = []
        for lines, path in (
            (["TICK 600", "REGISTER A1 u1 P tok"], journal),
            (["UNREGISTER A1"], tmp_path / "copy.journal"),
            (["TICK 600", "UNREGISTER A1"], journal),
        ):
            if path != journal:
                path.write_bytes(journal.read_bytes())
            args = [
                sys.executable, "-m", "beaconpark", "--out-dir", str(tmp_path),
                "serve", "--lot", str(SCENARIOS_DIR / "demo_lot.json"), "--bind", "127.0.0.1:0",
                "--clock", "simulated", "--journal", str(path),
            ]
            proc = subprocess.Popen(
                args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
            )
            try:
                replies.append(send_lines(read_served_port(proc), lines))
            finally:
                proc.terminate()
                proc.wait(timeout=10)
                proc.stdout.close()
                proc.stderr.close()
        # A1 bills 200 cents an hour: 10 minutes cost ceil(200 * 10 / 60) = 34
        assert replies == [["OK", "OK S1"], ["OK 0"], ["OK", "OK 34"]]

    def test_lot_with_a_shared_beacon_is_input_error(self, tmp_path, capsys):
        lot = json.loads((SCENARIOS_DIR / "demo_lot.json").read_text())
        lot["spots"][3]["url"] = lot["spots"][0]["url"]
        lot_path = tmp_path / "lot.json"
        lot_path.write_text(json.dumps(lot))
        assert main(
            ["--out-dir", str(tmp_path), "serve", "--lot", str(lot_path), "--bind", "127.0.0.1:0"]
        ) == 2
        err = capsys.readouterr().err
        assert "invalid lot config: spots A1 and B1 share one beacon URL" in err

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda spot: {**spot, "rate_cents_per_hour": 2.7},
             "field 'rate_cents_per_hour' must be int, got 2.7"),
            (lambda spot: {**spot, "rate_cents_per_hour": "200"},
             "field 'rate_cents_per_hour' must be int, got '200'"),
            (lambda spot: {**spot, "rate_cents_per_hour": True},
             "field 'rate_cents_per_hour' must be int, got True"),
            (lambda spot: {**spot, "instanse": "410000000001"}, "unknown spot key 'instanse'"),
            (lambda spot: {k: v for k, v in spot.items() if k != "url"}, "missing field 'url'"),
            (lambda spot: {**spot, "id": 5}, "field 'id' must be str, got 5"),
            (lambda spot: {**spot, "namespace": "edd1"},
             "spot A1: namespace must be 10 bytes, got 2"),
            (lambda spot: {**spot, "namespace": "zz" * 10},
             "spot A1: namespace is not hex: 'zzzzzzzzzzzzzzzzzzzz'"),
            (lambda spot: {**spot, "instance": "4100000001"},
             "spot A1: instance must be 6 bytes, got 5"),
            (lambda spot: [spot], "spot must be a JSON object, got list"),
        ],
        ids=[
            "fractional-rate", "string-rate", "bool-rate", "unknown-key", "missing-url",
            "int-id", "short-namespace", "non-hex-namespace", "short-instance", "list-spot",
        ],
    )
    def test_malformed_lot_spot_is_input_error(self, tmp_path, capsys, never_serve, edit, reason):
        lot = json.loads((SCENARIOS_DIR / "demo_lot.json").read_text())
        lot["spots"][0] = edit(lot["spots"][0])
        lot_path = tmp_path / "lot.json"
        lot_path.write_text(json.dumps(lot))
        assert main(
            ["--out-dir", str(tmp_path), "serve", "--lot", str(lot_path), "--bind", "127.0.0.1:0"]
        ) == 2
        assert f"invalid lot config: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lot, reason",
        [
            ([], "lot must be a JSON object, got list"),
            ({}, "missing field 'spots'"),
            ({"spots": {}}, "field 'spots' must be list, got {}"),
        ],
        ids=["list", "no-spots", "spots-object"],
    )
    def test_malformed_lot_is_input_error(self, tmp_path, capsys, never_serve, lot, reason):
        lot_path = tmp_path / "lot.json"
        lot_path.write_text(json.dumps(lot))
        assert main(
            ["--out-dir", str(tmp_path), "serve", "--lot", str(lot_path), "--bind", "127.0.0.1:0"]
        ) == 2
        assert f"invalid lot config: {reason}" in capsys.readouterr().err

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
            ({"op": "spot", "spot": "A1", "session": {"id": "S1"}}, "missing field 'user_id'"),
            ([1, 2], "journal entry must be a JSON object, got list"),
            ({"spot": "A1"}, "missing field 'op'"),
            ({"op": 5}, "field 'op' must be str, got 5"),
            ({"op": "spot", "spot": "A1", "session": None, "plate": "P"},
             "unknown journal entry key 'plate'"),
        ],
    )
    def test_invalid_journal_entry_is_journal_error(self, tmp_path, capsys, entry, reason):
        journal = tmp_path / "lot.journal"
        first = {"op": "snapshot", "clock": "system", "sessions": 0, "spots": []}
        journal.write_text(json.dumps(first) + "\n" + json.dumps(entry) + "\n")  # entry: line 2
        assert main(
            ["--out-dir", str(tmp_path), "serve", "--lot", str(SCENARIOS_DIR / "demo_lot.json"),
             "--journal", str(journal), "--bind", "127.0.0.1:0"]
        ) == 2
        err = capsys.readouterr().err
        assert f"invalid journal: {journal} line 2: {reason}" in err

    @pytest.mark.parametrize(
        "bind, reason",
        [
            ("127.0.0.1:99999", "bind port must be an integer in 0-65535, got '127.0.0.1:99999'"),
            ("127.0.0.1:abc", "bind port must be an integer in 0-65535, got '127.0.0.1:abc'"),
            ("no-port", "bind address must be host:port, got 'no-port'"),
        ],
        ids=["port-out-of-range", "port-not-integer", "no-port"],
    )
    def test_bad_bind_address_is_input_error_before_any_file(self, tmp_path, capsys, bind, reason):
        out_dir, journal = tmp_path / "out", tmp_path / "lot.journal"
        assert main(
            ["--out-dir", str(out_dir), "serve", "--lot", str(SCENARIOS_DIR / "demo_lot.json"),
             "--journal", str(journal), "--bind", bind]
        ) == 2
        assert capsys.readouterr().err == f"ERR {reason}\n"
        assert not journal.exists() and not out_dir.exists()

    def test_missing_lot_config_is_input_error(self, tmp_path, capsys):
        lot = tmp_path / "nope.json"
        assert main(
            ["--out-dir", str(tmp_path), "serve", "--lot", str(lot), "--bind", "127.0.0.1:0"]
        ) == 2
        assert capsys.readouterr().err == f"ERR lot config not found: {lot}\n"

    def test_missing_journal_directory_is_input_error(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        assert main(
            ["--out-dir", str(tmp_path), "serve", "--lot", str(SCENARIOS_DIR / "demo_lot.json"),
             "--journal", str(missing / "x.journal"), "--bind", "127.0.0.1:0"]
        ) == 2
        assert capsys.readouterr().err == f"ERR journal directory not found: {missing}\n"
