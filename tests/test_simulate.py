import copy
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from beaconpark.eddystone import SpotId
from beaconpark.particle import FilterConfig, ParticleBank
from beaconpark.pathloss import (
    INDOOR_MODEL,
    OUTDOOR_MODEL,
    CalibrationDataset,
    estimate_distance,
    fit_model,
    predict_rssi,
)
from beaconpark.proximity import STREAM_DTYPE, PredictionTally, identify_cells
from beaconpark.seeding import (
    TAG_DISTANCE_CELL,
    TAG_FILTER,
    TAG_PROXIMITY_CELL,
    derive_seed,
    scaled_key,
)
from beaconpark import simulate as sim

B1 = SpotId("B", 1)
SCENARIOS = Path(__file__).parent.parent / "scenarios"


def recorded_banks(monkeypatch):
    """The banks that `simulate` makes from now on, as it makes them."""
    banks = []

    class Recorded(ParticleBank):
        def __init__(self, *args):
            super().__init__(*args)
            banks.append(self)

    monkeypatch.setattr(sim, "ParticleBank", Recorded)
    return banks


def scenario(**kw):
    defaults = dict(model=INDOOR_MODEL, noise_sigma_db=0.0, duration_s=60.0, seed=0)
    defaults.update(kw)
    return sim.Scenario(**defaults)


class TestGenerateStream:
    def test_noiseless_minute_is_sixty_exact_samples(self):
        samples = sim.generate_stream(scenario(), B1, 1.0)
        assert samples.dtype == STREAM_DTYPE
        assert len(samples) == 60
        assert (samples["rssi_dbm"] == -65.24).all()
        assert samples["timestamp_ms"].tolist() == [i * 1000 for i in range(60)]

    def test_same_seed_identical_streams(self):
        a = sim.generate_stream(scenario(noise_sigma_db=3.0), B1, 2.0)
        b = sim.generate_stream(scenario(noise_sigma_db=3.0), B1, 2.0)
        assert a.tobytes() == b.tobytes()

    def test_different_beacons_get_independent_noise(self):
        a = sim.generate_stream(scenario(noise_sigma_db=3.0), SpotId("A", 1), 2.0)
        b = sim.generate_stream(scenario(noise_sigma_db=3.0), B1, 2.0)
        assert a["rssi_dbm"].tolist() != b["rssi_dbm"].tolist()

    def test_noise_statistics_match_request(self):
        s = scenario(noise_sigma_db=2.0, duration_s=10_000.0, seed=99)
        samples = sim.generate_stream(s, B1, 2.0)
        values = samples["rssi_dbm"]
        assert len(values) == 10_000
        assert abs(values.mean() - predict_rssi(INDOOR_MODEL, 2.0)) < 0.1
        assert abs(values.std(ddof=1) - 2.0) / 2.0 < 0.05

    def test_drop_rate_thins_the_grid(self):
        s = scenario(noise_sigma_db=0.0, duration_s=2_000.0, drop_rate=0.25, seed=7)
        samples = sim.generate_stream(s, B1, 1.0)
        assert 2000 * 0.65 < len(samples) < 2000 * 0.85
        assert (samples["timestamp_ms"] % 1000 == 0).all()
        assert (np.diff(samples["timestamp_ms"]) > 0).all()

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ValueError):
            scenario(noise_sigma_db=-1.0)
        with pytest.raises(ValueError):
            scenario(duration_s=0.0)
        with pytest.raises(ValueError):
            scenario(drop_rate=1.0)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            scenario(seed=-1)
        with pytest.raises(ValueError):
            sim.generate_stream(scenario(), B1, 0.0)


class TestPathlossExperiment:
    def test_noiseless_dataset_recovers_generator(self):
        distances = [round(0.2 * k, 10) for k in range(1, 21)]
        data = sim.run_pathloss_experiment(scenario(duration_s=10.0), distances)
        fit = fit_model(data)
        assert fit.model.exponent == pytest.approx(2.424, abs=1e-9)
        assert fit.model.ref_rssi_dbm == pytest.approx(-65.24, abs=1e-9)


class TestDistanceExperiment:
    def test_noiseless_interior_errors_are_tiny(self):
        result = sim.run_distance_experiment(
            scenario(duration_s=120.0),
            [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5],
            FilterConfig(),
            repetitions=1,
        )
        for row in result.rows:
            assert row.filtered_error_m < 0.05
            assert row.particle_count == 1000

    def test_noiseless_boundary_distance_keeps_truncation_offset(self):
        # at the 4 m state edge the truncated posterior mean sits below the
        # measurement, so the filter cannot get arbitrarily close
        result = sim.run_distance_experiment(
            scenario(duration_s=120.0), [4.0], FilterConfig(), repetitions=3
        )
        assert 0.05 < result.rows[0].filtered_error_m < 0.15

    def test_deterministic_rows(self):
        runs = [
            sim.run_distance_experiment(
                scenario(noise_sigma_db=4.0, duration_s=30.0, seed=5),
                [1.0, 2.0],
                FilterConfig(),
                repetitions=2,
            ).rows
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_step_errors_collected_on_request(self):
        result = sim.run_distance_experiment(
            scenario(duration_s=30.0),
            [1.0],
            FilterConfig(),
            repetitions=2,
            keep_step_errors=True,
        )
        assert len(result.step_raw_errors_m) == 60
        assert len(result.step_filtered_errors_m) == 60

    # with drops the (distance, repetition) streams differ in length, so the
    # bank's later steps update only some of its rows
    RAGGED = scenario(noise_sigma_db=4.0, duration_s=20.0, drop_rate=0.4, seed=12)
    DISTANCES = [0.5, 2.0, 3.5]

    def lone_filters(self, config):
        """Each (distance, repetition) of RAGGED as a one-row bank stepped by `update`:
        the stream lengths, step errors and final means."""
        scen, lengths, step_raw, step_filtered, finals = self.RAGGED, set(), [], [], []
        for d in self.DISTANCES:
            for rep in range(2):
                cell_seed = derive_seed(scen.seed, TAG_DISTANCE_CELL, scaled_key(d), rep)
                stream = sim.generate_stream(scen._replace(seed=cell_seed), B1, d)
                lengths.add(len(stream))
                lone = ParticleBank(config, [derive_seed(cell_seed, TAG_FILTER)])
                for rssi in stream["rssi_dbm"].tolist():
                    z = estimate_distance(scen.model, rssi)
                    lone.update([z])
                    step_raw.append(abs(z - d))
                    step_filtered.append(abs(float(lone.means()[0]) - d))
                finals.append(float(lone.means()[0]))
        return lengths, step_raw, step_filtered, finals

    def assert_rows_match(self, rows, config, finals):
        assert [row.particle_count for row in rows] == [config.particle_count] * 3
        for i, row in enumerate(rows):
            mine = finals[2 * i : 2 * i + 2]
            d = self.DISTANCES[i]
            assert row.filtered_error_m == float(np.mean([abs(m - d) for m in mine]))
            assert row.std_m == float(np.std(mine, ddof=1))

    def test_ragged_streams_match_lone_filters(self):
        config = FilterConfig(particle_count=100)
        result = sim.run_distance_experiment(
            self.RAGGED, self.DISTANCES, config, repetitions=2, keep_step_errors=True
        )
        lengths, step_raw, step_filtered, finals = self.lone_filters(config)
        assert len(lengths) > 1
        assert result.step_raw_errors_m == step_raw
        assert result.step_filtered_errors_m == step_filtered
        self.assert_rows_match(result.rows, config, finals)

    def test_particle_counts_in_one_bank_match_lone_filters(self, monkeypatch):
        banks = recorded_banks(monkeypatch)
        counts = (50, 100, 300)
        result = sim.run_distance_experiment(
            self.RAGGED, self.DISTANCES, FilterConfig(), 2, counts, keep_step_errors=True
        )
        (bank,) = banks
        assert bank.particle_counts == (300,) * 6 + (100,) * 6 + (50,) * 6
        steps = len(result.step_raw_errors_m)
        assert len(result.step_filtered_errors_m) == 3 * steps
        for k, n in enumerate(counts):
            config = FilterConfig(particle_count=n)
            _, step_raw, step_filtered, finals = self.lone_filters(config)
            assert result.step_raw_errors_m == step_raw
            assert result.step_filtered_errors_m[k * steps : (k + 1) * steps] == step_filtered
            self.assert_rows_match(result.rows[3 * k : 3 * k + 3], config, finals)

    def test_copies_of_a_count_match_a_lone_run_of_it(self, monkeypatch):
        banks = recorded_banks(monkeypatch)
        config = FilterConfig(particle_count=100)
        result = sim.run_distance_experiment(
            self.RAGGED, self.DISTANCES, config, 2, (100, 50, 100), keep_step_errors=True
        )
        assert [bank.particle_counts for bank in banks] == [(100,) * 6 + (50,) * 6]
        _, step_raw, step_filtered, finals = self.lone_filters(config)
        assert result.step_raw_errors_m == step_raw
        steps = len(step_raw)
        for k in (0, 2):
            assert result.step_filtered_errors_m[k * steps : (k + 1) * steps] == step_filtered
            self.assert_rows_match(result.rows[3 * k : 3 * k + 3], config, finals)

    def test_no_particle_counts_run_the_configs_own(self):
        config = FilterConfig(particle_count=200)
        args = (scenario(noise_sigma_db=4.0, duration_s=10.0, seed=3), [1.0, 2.5], config)
        alone = sim.run_distance_experiment(*args, 2, None, keep_step_errors=True)
        given = sim.run_distance_experiment(*args, 2, (200,), keep_step_errors=True)
        assert [row.particle_count for row in alone.rows] == [200, 200]
        assert alone == given

    def test_a_count_past_the_slot_budget_gets_a_bank_of_its_own(self, monkeypatch):
        args = (self.RAGGED, self.DISTANCES, FilterConfig(), 2, (50, 300, 100))
        unbounded = sim.run_distance_experiment(*args, keep_step_errors=True)
        banks = recorded_banks(monkeypatch)
        monkeypatch.setattr(sim, "BANK_SLOTS", 1000)  # 6 rows of 300 alone hold 1,800
        bounded = sim.run_distance_experiment(*args, keep_step_errors=True)
        assert [bank.particle_counts for bank in banks] == [(300,) * 6, (100,) * 6 + (50,) * 6]
        assert bounded == unbounded

    @pytest.mark.parametrize("counts, named", [((100, 1), 1), ((0, 300), 0)])
    def test_a_count_below_two_is_named(self, counts, named):
        with pytest.raises(ValueError, match=f"particle count {named} is below 2"):
            sim.run_distance_experiment(scenario(), [1.0], FilterConfig(), 1, counts)

    def test_csv_shape(self, tmp_path):
        result = sim.run_distance_experiment(
            scenario(duration_s=20.0), [1.0, 2.0], FilterConfig(), repetitions=1
        )
        path = tmp_path / "distance.csv"
        sim.write_distance_csv(path, result.rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "particles,distance_m,error_m,mse,std_m"
        assert len(lines) == 3


class TestProximityExperiment:
    def test_noiseless_grid_is_perfect_in_both_modes(self):
        results = sim.run_proximity_experiment(
            scenario(duration_s=20.0), [(1.0, 0.5), (2.0, 2.5)], FilterConfig()
        )
        assert len(results) == 2
        for cell in results:
            assert cell.raw.accuracy == 1.0
            assert cell.filtered.accuracy == 1.0

    def test_deterministic_tallies(self):
        args = (scenario(noise_sigma_db=5.0, duration_s=40.0, seed=3),
                [(1.0, 1.0)], FilterConfig())
        a = sim.run_proximity_experiment(*args)
        b = sim.run_proximity_experiment(*args)
        assert a[0].filtered.counts == b[0].filtered.counts
        assert a[0].raw.counts == b[0].raw.counts

    def test_accuracy_degrades_monotonically_with_noise(self):
        accuracies = []
        for sigma in (1.0, 4.0, 8.0):
            cell_acc = []
            for seed in (11, 12, 13):
                res = sim.run_proximity_experiment(
                    scenario(noise_sigma_db=sigma, duration_s=40.0, seed=seed),
                    [(1.0, 1.5)],
                    FilterConfig(),
                )
                cell_acc.append(res[0].raw.accuracy)
            accuracies.append(np.mean(cell_acc))
        assert accuracies[0] >= accuracies[1] >= accuracies[2]

    def test_raw_accuracy_degrades_past_two_meters(self):
        # aggregated over the beacon separations, the single-sample baseline
        # gets markedly worse at Y=2.5 than at Y=2
        s = scenario(noise_sigma_db=sim.INDOOR_NOISE_SIGMA_DB, duration_s=300.0, seed=42)
        cfg = FilterConfig()
        xs = (1.0, 1.5, 2.0, 2.5, 3.0)
        near = sim.run_proximity_experiment(s, [(x, 2.0) for x in xs], cfg)
        far = sim.run_proximity_experiment(s, [(x, 2.5) for x in xs], cfg)
        near_acc = np.mean([c.raw.accuracy for c in near])
        far_acc = np.mean([c.raw.accuracy for c in far])
        assert far_acc < near_acc

    def test_ragged_grid_cells_match_lone_identification(self):
        # most advertisements dropped from 8 s streams: the cells end on
        # different round counts and one beacon is never heard, so the grid
        # bank's last rounds step only some cells' rows
        scen = scenario(
            noise_sigma_db=sim.INDOOR_NOISE_SIGMA_DB, tx_interval_ms=350, duration_s=8.0,
            drop_rate=0.85, seed=16,
        )
        config = FilterConfig(particle_count=200)
        pairs = [(1.0, 0.5), (1.5, 1.5), (2.5, 2.5), (2.0, 1.0), (3.0, 2.0)]
        results = sim.run_proximity_experiment(scen, pairs, config)
        assert len({cell.filtered.total for cell in results}) > 1
        for (x_m, y_m), cell in zip(pairs, results):
            layout = sim.three_beacon_layout(x_m, y_m)
            cell_seed = derive_seed(scen.seed, TAG_PROXIMITY_CELL, scaled_key(x_m), scaled_key(y_m))
            lone = scen._replace(seed=cell_seed)
            truth = layout.true_distances()
            streams = {spot: sim.generate_stream(lone, spot, truth[spot]) for spot in truth}
            cell_filter_seed = derive_seed(cell_seed, TAG_FILTER)
            raw, filtered = identify_cells(
                [(layout, streams, cell_filter_seed)], scen.model, config
            )[0]
            assert cell.filtered == filtered
            assert cell.raw == raw

    def test_csv_shape_and_percent_format(self, tmp_path):
        results = sim.run_proximity_experiment(
            scenario(duration_s=10.0), [(1.0, 0.5)], FilterConfig()
        )
        path = tmp_path / "prox.csv"
        sim.write_proximity_csv(path, results)
        lines = path.read_text().splitlines()
        assert lines[0] == "X_m,Y_m,mode,count_A,count_B,count_C,accuracy_pct"
        assert len(lines) == 3
        assert lines[1].endswith("100.0")
        modes = [line.split(",")[2] for line in lines[1:]]
        assert modes == ["raw", "filtered"]


def raw_accuracy(model, x_m, y_m, sigma_db):
    """Exact raw (single-sample) identification accuracy of a three-beacon cell.

    The raw baseline's oracle. B is identified when its sample is the
    largest. Given B's standardized noise t, A and C each fall below it
    with probability Phi(t + m), where m = (RSSI(Y) - RSSI(hypot(X, Y))) /
    sigma, so the accuracy is E_t[Phi(t + m)^2], here by scipy quadrature.
    """
    from scipy import integrate, special  # the tests' oracle, not a runtime dependency

    m = (predict_rssi(model, y_m) - predict_rssi(model, math.hypot(x_m, y_m))) / sigma_db
    exact, _ = integrate.quad(
        lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi) * special.ndtr(t + m) ** 2,
        -math.inf,
        math.inf,
        epsabs=1e-12,
    )
    return exact


class TestNoiseCalibration:
    """Re-derives the noise defaults INDOOR_NOISE_SIGMA_DB and OUTDOOR_NOISE_SIGMA_DB."""

    def test_recorded_constants_match_the_sweep(self):
        # the first sigma on a 2-10 dB grid (0.05 dB steps) whose raw accuracy
        # at the X=1, Y=0.5 anchor cell is closest to 77.8%
        grid = np.arange(2.0, 10.0001, 0.05).tolist()
        for model, recorded in (
            (INDOOR_MODEL, sim.INDOOR_NOISE_SIGMA_DB),
            (OUTDOOR_MODEL, sim.OUTDOOR_NOISE_SIGMA_DB),
        ):
            gaps = {sigma: abs(raw_accuracy(model, 1.0, 0.5, sigma) - 0.778) for sigma in grid}
            assert min(grid, key=gaps.get) == pytest.approx(recorded)

    def test_anchor_cell_accuracy_close_to_target(self):
        s = scenario(
            noise_sigma_db=sim.INDOOR_NOISE_SIGMA_DB, duration_s=300.0, seed=55
        )
        results = sim.run_proximity_experiment(s, [(1.0, 0.5)], FilterConfig())
        assert results[0].raw.accuracy == pytest.approx(0.778, abs=0.08)


class TestRawAccuracy:
    """raw_accuracy is the raw baseline's oracle: the exact single-sample accuracy."""

    def test_far_row_figures(self):
        # the figures quoted by acceptance check 5(c)
        accuracies = [raw_accuracy(INDOOR_MODEL, x, 2.5, 5.45) for x in (1.0, 1.5, 2.0, 2.5)]
        assert [round(a, 3) for a in accuracies] == [0.375, 0.420, 0.476, 0.535]

    def test_shipped_grids_raw_tallies_are_binomial(self):
        # Each round holds one sample per beacon, so a cell's raw tally of B is
        # Binomial(rounds, raw_accuracy). |z| <= 4 over the 30 cells of both grids
        # is a Bonferroni bound: about a 0.2% chance of a false alarm.
        worst = 0.0
        for name in ("indoor_proximity.json", "outdoor_proximity.json"):
            s, exp, config = sim.load_scenario(SCENARIOS / name)
            # the raw tallies do not depend on the filter, so a small one keeps this quick
            cells = sim.run_proximity_experiment(s, exp.grid, config._replace(particle_count=2))
            for cell in cells:
                n = cell.raw.total
                assert n == s.duration_s * 1000 / s.tx_interval_ms
                p = raw_accuracy(s.model, cell.x_m, cell.y_m, s.noise_sigma_db)
                z = (cell.raw.counts[B1] - n * p) / math.sqrt(n * p * (1 - p))
                worst = max(worst, abs(z))
        assert worst <= 4.0


class TestScenarioFiles:
    def test_parses_experiment_and_filter(self):
        obj = {
            "model": {"n": 2.424, "C": -65.24, "d0": 1.0},
            "noise_sigma_db": 5.45,
            "tx_interval_ms": 500,
            "duration_s": 120.0,
            "drop_rate": 0.1,
            "seed": 42,
            "experiment": {"kind": "proximity", "grid": [[1, 0.5], [2.0, 1]], "repetitions": 1},
            "filter": {"particle_count": 400},
        }
        s, exp, cfg = sim.scenario_from_dict(json.loads(json.dumps(obj)))
        assert s == sim.Scenario(
            model=INDOOR_MODEL,
            noise_sigma_db=5.45,
            tx_interval_ms=500,
            duration_s=120.0,
            drop_rate=0.1,
            seed=42,
        )
        assert exp == sim.ExperimentSpec(kind="proximity", grid=((1.0, 0.5), (2.0, 1.0)))
        assert all(type(v) is float for pair in exp.grid for v in pair)
        assert cfg == FilterConfig(particle_count=400)
        with pytest.raises(ValueError, match="unknown scenario key 'layout'"):
            sim.scenario_from_dict({**obj, "layout": {}})

    def test_filter_defaults_come_from_filter_config(self):
        obj = {"model": {"n": 2.424, "C": -65.24}, "noise_sigma_db": 0.0, "seed": 8,
               "experiment": {"kind": "distance", "grid": [1]},
               "filter": {"beta": 1, "particle_count": 300}}
        _, exp, cfg = sim.scenario_from_dict(obj)
        assert cfg == FilterConfig(particle_count=300, beta=1.0)
        assert (type(cfg.particle_count), type(cfg.beta)) == (int, float)
        assert exp.grid == (1.0,) and type(exp.grid[0]) is float
        # an int field takes only a JSON integer
        with pytest.raises(TypeError, match="field 'particle_count' must be int, got 300.0"):
            sim.scenario_from_dict({**obj, "filter": {"particle_count": 300.0}})

    def test_experiment_kind_validated(self):
        with pytest.raises(ValueError):
            sim.ExperimentSpec(kind="teleport", grid=(1.0,))
        with pytest.raises(ValueError):
            sim.ExperimentSpec(kind="pathloss", grid=(1.0,))

    def test_load_scenario(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "model": {"n": 2.049, "C": -88.78, "d0": 1.0},
                    "noise_sigma_db": 4.6,
                    "duration_s": 10.0,
                    "seed": 3,
                    "experiment": {"kind": "distance", "grid": [0.5, 1.0]},
                }
            )
        )
        s, exp, cfg = sim.load_scenario(path)
        assert s.model == OUTDOOR_MODEL
        assert exp.kind == "distance"
        assert exp.grid == (0.5, 1.0)


class TestValueTypes:
    """The records with checks keep the value semantics of frozen dataclasses."""

    VALUES = [
        (FilterConfig(),
         "FilterConfig(particle_count=1000, beta=0.5, measurement_noise_m=1.2, state_min_m=0.0,"
         " state_max_m=4.0)"),
        (INDOOR_MODEL, "PathLossModel(exponent=2.424, ref_rssi_dbm=-65.24, ref_distance_m=1.0)"),
        (CalibrationDataset([(1, [-60, -61]), (2, (-70,))]),
         "CalibrationDataset(points=((1.0, (-60.0, -61.0)), (2.0, (-70.0,))))"),
        (sim.three_beacon_layout(1, 0.5),
         "BeaconLayout(beacons=((SpotId(lot='A', number=1), -1.0), (SpotId(lot='B', number=1),"
         " 0.0), (SpotId(lot='C', number=1), 1.0)), listener_offset=(0.0, 0.5))"),
        (PredictionTally({B1: 3, SpotId("C", 1): 1}, 4, 0.75),
         "PredictionTally(counts={SpotId(lot='B', number=1): 3, SpotId(lot='C', number=1): 1},"
         " total=4, accuracy=0.75)"),
        (sim.Scenario(INDOOR_MODEL, 5.45),
         "Scenario(model=PathLossModel(exponent=2.424, ref_rssi_dbm=-65.24, ref_distance_m=1.0),"
         " noise_sigma_db=5.45, tx_interval_ms=1000, duration_s=300.0, drop_rate=0.0, seed=0)"),
        (sim.ExperimentSpec("proximity", [[1, 0.5], (2, 1.5)]),
         "ExperimentSpec(kind='proximity', grid=((1.0, 0.5), (2.0, 1.5)), repetitions=1)"),
    ]
    IDS = [type(value).__name__ for value, _ in VALUES]

    @pytest.mark.parametrize("value, text", VALUES, ids=IDS)
    def test_repr_equality_hash_and_copies(self, value, text):
        assert repr(value) == text
        twin = type(value)(*[getattr(value, name) for name in value._fields])
        assert twin == value and twin is not value
        if isinstance(value, PredictionTally):  # its counts are a dict
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(twin) == hash(value)
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value and type(copied) is type(value) and repr(copied) == text

    @pytest.mark.parametrize("value", [value for value, _ in VALUES], ids=IDS)
    def test_immutable(self, value):
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], value[0])
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("value", [value for value, _ in VALUES], ids=IDS)
    def test_keyword_construction(self, value):
        assert type(value)(**value._asdict()) == value

    def test_replace_runs_the_checks(self):
        assert sim.Scenario(INDOOR_MODEL, 5.45)._replace(seed=3).seed == 3
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            sim.Scenario(INDOOR_MODEL, 5.45)._replace(seed=-1)
        with pytest.raises(ValueError, match=r"^beta must be in \(0, 1\], got 0$"):
            FilterConfig()._replace(beta=0)
