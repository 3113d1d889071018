import functools
import json
import math
import operator
import random
import re

import numpy as np
import pytest

from beaconpark import pathloss as pl
from helpers import write_calibration_csv


def one_round_mean(samples):
    """The mean of one round of samples, as every experiment path takes it."""
    return float(pl.ragged_means(samples, [0, len(samples)])[0])


class TestAverageRssi:
    def test_two_point_mean(self):
        assert one_round_mean([-60.0, -70.0]) == -65.0

    def test_singleton(self):
        assert one_round_mean([-65.24]) == -65.24

    def test_empty_rejected(self):
        # average_rssi is bound by name by the benchmark's tracer: one round of
        # ragged_means that refuses an empty list, where ragged_means gives nan
        rng = np.random.default_rng(44)
        for size in (1, 2, 7, 1000):
            values = rng.normal(-70.0, 8.0, size).tolist()
            assert pl.average_rssi(values) == one_round_mean(values)
        assert math.isnan(one_round_mean([]))
        with pytest.raises(ValueError):
            pl.average_rssi([])

    def test_permutation_invariant_and_bounded(self):
        rng = random.Random(41)
        for _ in range(100):
            values = [rng.uniform(-110, -30) for _ in range(rng.randint(1, 40))]
            shuffled = values[:]
            rng.shuffle(shuffled)
            avg = one_round_mean(values)
            assert avg == pytest.approx(one_round_mean(shuffled), abs=1e-12)
            assert min(values) <= avg <= max(values)

    def test_sums_left_to_right(self):
        # a compensated sum, as Python 3.12's sum() takes, gives 1/3 here
        assert one_round_mean([1e16, 1.0, -1e16]) == 0.0

    def test_long_list_sums_left_to_right_bit_for_bit(self):
        rng = np.random.default_rng(43)
        values = rng.normal(-70.0, 8.0, 100_000).tolist()
        expected = functools.reduce(operator.add, values) / len(values)
        assert one_round_mean(values) == expected


class TestRaggedMeans:
    def test_equals_a_left_to_right_sum_per_round(self):
        rng = random.Random(5)
        counts = [[rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(60)] for _ in range(3)]
        counts[1][10:20] = [0] * 10
        samples, starts = [], []
        for row in counts:
            bounds = [len(samples)]
            for n in row:
                samples.extend(rng.gauss(-70.0, 8.0) for _ in range(n))
                bounds.append(len(samples))
            starts.append(bounds)
        means = pl.ragged_means(samples, starts)
        assert means.shape == (3, 60)
        for b, row in enumerate(starts):
            for r, (first, end) in enumerate(zip(row, row[1:])):
                window = samples[first:end]
                if window:
                    assert means[b, r] == functools.reduce(operator.add, window) / len(window)
                else:
                    assert math.isnan(means[b, r])

    def test_a_zero_sum_is_positive_as_when_summed_from_zero(self):
        means = pl.ragged_means([-0.0, -0.0, -0.0, 2.0, -2.0], [0, 2, 3, 5])
        assert means.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(means).any()

    def test_rows_without_samples_are_nan(self):
        means = pl.ragged_means([], [[0, 0, 0], [0, 0, 0]])
        assert means.shape == (2, 2)
        assert np.isnan(means).all()


class TestPredictAndInvert:
    def test_indoor_reference_distance(self):
        assert pl.predict_rssi(pl.INDOOR_MODEL, 1.0) == pytest.approx(-65.24, abs=1e-12)

    def test_indoor_two_meters(self):
        expected = -65.24 - 24.24 * math.log10(2.0)
        assert pl.predict_rssi(pl.INDOOR_MODEL, 2.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-72.537, abs=5e-4)

    def test_reference_point_for_any_model(self):
        rng = random.Random(7)
        for _ in range(50):
            model = pl.PathLossModel(rng.uniform(0.5, 6.0), rng.uniform(-110, -30))
            assert pl.predict_rssi(model, 1.0) == pytest.approx(model.ref_rssi_dbm, abs=1e-12)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            pl.predict_rssi(pl.INDOOR_MODEL, 0.0)
        with pytest.raises(ValueError):
            pl.predict_rssi(pl.INDOOR_MODEL, -1.0)

    def test_estimate_at_reference_rssi(self):
        assert pl.estimate_distance(pl.INDOOR_MODEL, -65.24) == pytest.approx(1.0, abs=1e-12)
        assert pl.estimate_distance(pl.OUTDOOR_MODEL, -88.78) == pytest.approx(1.0, abs=1e-12)

    def test_estimate_inverts_two_meter_prediction(self):
        rssi = pl.predict_rssi(pl.INDOOR_MODEL, 2.0)
        assert pl.estimate_distance(pl.INDOOR_MODEL, rssi) == pytest.approx(2.0, abs=1e-9)

    def test_inverse_property_random_models(self):
        rng = random.Random(13)
        for _ in range(1000):
            model = pl.PathLossModel(rng.uniform(0.5, 6.0), rng.uniform(-110, -30))
            d = rng.uniform(1e-3, 100.0)
            back = pl.estimate_distance(model, pl.predict_rssi(model, d))
            assert back == pytest.approx(d, rel=1e-9)

    def test_array_inversion_equals_the_scalar_bit_for_bit(self):
        rng = np.random.default_rng(3)
        rssi = np.concatenate(
            [np.linspace(-200.0, 50.0, 50_001), rng.uniform(-200.0, 50.0, 50_000)]
        )
        for model in (pl.INDOOR_MODEL, pl.OUTDOOR_MODEL):
            array = pl.estimate_distance(model, rssi)
            scalar = [pl.estimate_distance(model, r) for r in rssi.tolist()]
            power = [
                model.ref_distance_m * 10.0 ** ((model.ref_rssi_dbm - r) / (10.0 * model.exponent))
                for r in rssi.tolist()
            ]
            assert array.tobytes() == np.array(scalar).tobytes() == np.array(power).tobytes()
            assert type(scalar[0]) is float
            assert pl.estimate_distance(model, rssi[:100].reshape(4, 25)).shape == (4, 25)

    def test_rssi_whose_distance_overflows_is_named(self):
        # below C - 3082.5 n dBm, about -7,537 dBm indoors, 10**x passes the largest float
        model = pl.INDOOR_MODEL
        with pytest.raises(ValueError, match=r"^RSSI -8000\.0 dBm inverts to a distance beyond"):
            pl.estimate_distance(model, -8000.0)
        with pytest.raises(ValueError, match=r"^RSSI -9000\.0 dBm"):
            pl.estimate_distance(model, np.array([[-70.0, -7000.0], [-9000.0, -8000.0]]))

    def test_finite_results_at_the_overflow_edge_keep_the_bits_of_pow(self):
        model = pl.INDOOR_MODEL

        def power(r):
            try:
                return model.ref_distance_m * math.pow(
                    10.0, (model.ref_rssi_dbm - r) / (10.0 * model.exponent)
                )
            except OverflowError:
                return None

        edge = np.linspace(-7538.0, -7537.0, 10_001).tolist()
        finite = [r for r in edge if power(r) is not None]
        assert 0 < len(finite) < len(edge)
        expected = np.array([power(r) for r in finite])
        assert pl.estimate_distance(model, np.array(finite)).tobytes() == expected.tobytes()
        assert np.array([pl.estimate_distance(model, r) for r in finite]).tobytes() == (
            expected.tobytes()
        )
        for r in (r for r in edge if power(r) is None):
            with pytest.raises(ValueError, match=f"^RSSI {re.escape(str(r))} dBm"):
                pl.estimate_distance(model, r)

    def test_monotonicity(self):
        distances = np.linspace(0.05, 50.0, 400)
        rssis = [pl.predict_rssi(pl.INDOOR_MODEL, d) for d in distances]
        assert all(b < a for a, b in zip(rssis, rssis[1:]))
        levels = np.linspace(-110.0, -30.0, 400)
        estimates = [pl.estimate_distance(pl.INDOOR_MODEL, r) for r in levels]
        assert all(b < a for a, b in zip(estimates, estimates[1:]))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            pl.PathLossModel(0.0, -60.0)
        with pytest.raises(ValueError):
            pl.PathLossModel(2.0, float("nan"))
        with pytest.raises(ValueError):
            pl.PathLossModel(2.0, -60.0, ref_distance_m=2.0)


def synthetic_dataset(model, distances, noise_sigma=0.0, samples_per=1, seed=0):
    rng = np.random.default_rng(seed)
    points = []
    for d in distances:
        base = pl.predict_rssi(model, d)
        samples = base + rng.normal(0.0, noise_sigma, samples_per)
        points.append((d, tuple(float(s) for s in samples)))
    return pl.CalibrationDataset(tuple(points))


class TestFitModel:
    def test_noiseless_recovery_indoor(self):
        distances = [round(0.2 * k, 10) for k in range(1, 21)]
        fit = pl.fit_model(synthetic_dataset(pl.INDOOR_MODEL, distances))
        assert fit.model.exponent == pytest.approx(2.424, abs=1e-9)
        assert fit.model.ref_rssi_dbm == pytest.approx(-65.24, abs=1e-9)
        assert fit.exponent_ci95[1] - fit.exponent_ci95[0] == pytest.approx(0.0, abs=1e-7)
        assert fit.residual_std_db == pytest.approx(0.0, abs=1e-9)

    def test_noiseless_recovery_outdoor(self):
        distances = [round(0.2 * k, 10) for k in range(1, 21)]
        fit = pl.fit_model(synthetic_dataset(pl.OUTDOOR_MODEL, distances))
        assert fit.model.exponent == pytest.approx(2.049, abs=1e-9)
        assert fit.model.ref_rssi_dbm == pytest.approx(-88.78, abs=1e-9)

    def test_two_point_dataset_solved_exactly(self):
        data = pl.CalibrationDataset(((1.0, (-65.0,)), (10.0, (-89.24,))))
        fit = pl.fit_model(data)
        assert fit.model.exponent == pytest.approx(2.424, abs=1e-12)
        assert fit.model.ref_rssi_dbm == pytest.approx(-65.0, abs=1e-12)
        assert fit.exponent_ci95 == (fit.model.exponent, fit.model.exponent)

    def test_single_distance_is_rank_deficient(self):
        with pytest.raises(pl.RankDeficientError):
            pl.CalibrationDataset(((1.0, (-65.0, -66.0)),))

    def test_ci_bounds_bracket_estimates(self):
        distances = [round(0.2 * k, 10) for k in range(1, 21)]
        data = synthetic_dataset(pl.INDOOR_MODEL, distances, noise_sigma=2.0,
                                 samples_per=60, seed=11)
        fit = pl.fit_model(data)
        assert fit.exponent_ci95[0] <= fit.model.exponent <= fit.exponent_ci95[1]
        assert fit.ref_rssi_ci95[0] <= fit.model.ref_rssi_dbm <= fit.ref_rssi_ci95[1]
        assert fit.residual_std_db > 0.0
        # at sigma=2 with 60 samples per distance the fit is close and the
        # interval typically covers the generator (seeded, deterministic)
        assert fit.exponent_ci95[0] <= 2.424 <= fit.exponent_ci95[1]

    def test_per_distance_means_are_the_observations(self):
        # duplicating every sample must not change the fitted line
        base = synthetic_dataset(pl.INDOOR_MODEL, [0.5, 1.0, 2.0, 4.0],
                                 noise_sigma=1.0, samples_per=10, seed=3)
        doubled = pl.CalibrationDataset(
            tuple((d, samples + samples) for d, samples in base.points)
        )
        fit_base = pl.fit_model(base).model
        fit_doubled = pl.fit_model(doubled).model
        assert fit_doubled.exponent == pytest.approx(fit_base.exponent, rel=1e-12)
        assert fit_doubled.ref_rssi_dbm == pytest.approx(fit_base.ref_rssi_dbm, rel=1e-12)


class TestTQuantile:
    def test_closed_forms_at_one_and_two_degrees_of_freedom(self):
        # dof 1 is Cauchy: t = tan(0.475 pi); dof 2: t / sqrt(2 + t^2) = 0.95
        assert pl.t_quantile_975(1) == pytest.approx(math.tan(0.475 * math.pi), rel=1e-13)
        assert pl.t_quantile_975(2) == pytest.approx(math.sqrt(2 * 0.9025 / 0.0975), rel=1e-13)

    def test_matches_scipy_for_every_dof_to_1000(self):
        from scipy import stats  # the tests' independent oracle, not a runtime dependency

        dofs = np.arange(1, 1001)
        ours = np.array([pl.t_quantile_975(int(dof)) for dof in dofs])
        expected = stats.t.ppf(0.975, dofs)
        assert np.max(np.abs(ours - expected) / expected) < 1e-12

    def test_needs_a_positive_dof(self):
        with pytest.raises(ValueError):
            pl.t_quantile_975(0)


class TestDatasetAndFiles:
    def test_dataset_invariants(self):
        with pytest.raises(ValueError):
            pl.CalibrationDataset(((0.0, (-60.0,)), (1.0, (-65.0,))))
        with pytest.raises(ValueError):
            pl.CalibrationDataset(((1.0, ()), (2.0, (-70.0,))))

    def test_from_pairs_groups_by_distance(self):
        data = pl.CalibrationDataset.from_pairs(
            [(1.0, -65.0), (2.0, -72.0), (1.0, -66.0)]
        )
        assert data.sample_counts() == {1.0: 2, 2.0: 1}

    def test_csv_roundtrip(self, tmp_path):
        data = synthetic_dataset(pl.INDOOR_MODEL, [0.5, 1.0, 2.0], noise_sigma=1.0,
                                 samples_per=4, seed=9)
        path = tmp_path / "cal.csv"
        write_calibration_csv(path, data)
        loaded = pl.read_calibration_csv(path)
        for (d1, s1), (d2, s2) in zip(data.points, loaded.points):
            assert d1 == pytest.approx(d2, abs=1e-9)
            assert list(s1) == pytest.approx(list(s2), abs=1e-5)

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            pl.read_calibration_csv(path)

    def test_fit_result_json_roundtrip(self):
        distances = [round(0.2 * k, 10) for k in range(1, 21)]
        fit = pl.fit_model(
            synthetic_dataset(pl.INDOOR_MODEL, distances, noise_sigma=2.0,
                              samples_per=5, seed=2)
        )
        obj = pl.fit_result_to_json_dict(fit)
        assert set(obj) == {"n", "C", "d0", "n_ci95", "C_ci95", "residual_std"}
        assert obj["d0"] == 1.0
        back = json.loads(json.dumps(obj))
        assert pl.model_from_json_dict({k: back[k] for k in ("n", "C", "d0")}) == fit.model
        assert back["n_ci95"] == pytest.approx(fit.exponent_ci95)
        assert back["C_ci95"] == pytest.approx(fit.ref_rssi_ci95)
        assert back["residual_std"] == pytest.approx(fit.residual_std_db)

    def test_model_reads_only_n_c_and_d0(self):
        assert pl.model_from_json_dict({"n": 2, "C": -60}) == pl.PathLossModel(2.0, -60.0)
        with pytest.raises(ValueError, match="unknown model key 'n_ci95'"):
            pl.model_from_json_dict({"n": 2.0, "C": -60.0, "n_ci95": [1.9, 2.1]})
