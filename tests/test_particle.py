import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from beaconpark.particle import (
    DistanceParticleFilter,
    FilterConfig,
    ParticleBank,
    TraceRow,
    trace_updates,
    write_filter_trace,
)


def small_filter(n=4, seed=0, **kw):
    return DistanceParticleFilter(FilterConfig(particle_count=n, seed=seed, **kw))


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"particle_count": 1},
            {"beta": 0.0},
            {"beta": 1.5},
            {"measurement_noise_m": 0.0},
            {"state_min_m": 2.0, "state_max_m": 2.0},
            {"seed": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            FilterConfig(**kw)

    def test_defaults_are_the_calibrated_working_point(self):
        cfg = FilterConfig()
        assert cfg.particle_count == 1000
        assert cfg.beta == 0.5
        assert cfg.measurement_noise_m == 1.2
        assert (cfg.state_min_m, cfg.state_max_m) == (0.0, 4.0)


class TestInit:
    def test_same_seed_same_particles(self):
        cfg = FilterConfig(seed=1234)
        a = DistanceParticleFilter(cfg)
        b = DistanceParticleFilter(cfg)
        assert np.array_equal(a.particles, b.particles)

    def test_initial_weights_are_uniform(self):
        flt = DistanceParticleFilter(FilterConfig(seed=1))
        assert np.all(flt.weights == 1.0 / 1000)
        assert flt.effective_particles() == pytest.approx(1000.0, abs=1e-6)

    def test_particles_inside_state_range(self):
        flt = DistanceParticleFilter(FilterConfig(seed=2))
        assert np.all(flt.particles >= 0.0)
        assert np.all(flt.particles <= 4.0)


class TestUpdate:
    def test_particle_at_measurement_keeps_relative_weight(self):
        flt = small_filter(n=2)
        flt.particles = np.array([2.0, 3.2])
        flt.weights = np.array([0.5, 0.5])
        flt.update(2.0)
        # gain 1 at zero distance, e^-0.5 at 1.2 m with noise 1.2
        assert flt.weights[1] / flt.weights[0] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_gain_value_at_one_point_two_meters(self):
        assert math.exp(-0.5 * 1.2**2 / 1.2**2) == pytest.approx(0.60653065971, abs=1e-9)

    def test_weights_sum_to_one_after_updates(self):
        flt = DistanceParticleFilter(FilterConfig(seed=7))
        rng = np.random.default_rng(3)
        for _ in range(200):
            flt.update(float(rng.uniform(0.0, 4.0)))
            assert abs(float(flt.weights.sum()) - 1.0) <= 1e-9

    def test_out_of_range_measurement_clamped(self):
        flt = DistanceParticleFilter(FilterConfig(seed=8))
        flt.update(100.0)  # clamps to 4.0 instead of zeroing all gains
        assert abs(float(flt.weights.sum()) - 1.0) <= 1e-9
        assert flt.estimate().mean_m > 2.0

    def test_nonfinite_measurement_rejected(self):
        flt = DistanceParticleFilter(FilterConfig(seed=8))
        with pytest.raises(ValueError):
            flt.update(float("nan"))

    def test_total_collapse_reinitializes_with_flag(self):
        flt = small_filter(n=2, measurement_noise_m=1e-3)
        flt.particles = np.array([3.9, 4.0])
        flt.weights = np.array([0.5, 0.5])
        outcome = flt.update(0.0)
        assert outcome.reinitialized
        assert abs(float(flt.weights.sum()) - 1.0) <= 1e-9
        assert np.all((flt.particles >= 0.0) & (flt.particles <= 4.0))


class TestEffectiveParticles:
    def test_uniform_weights(self):
        flt = DistanceParticleFilter(FilterConfig(seed=1))
        assert flt.effective_particles() == pytest.approx(1000.0, abs=1e-6)

    def test_point_mass(self):
        flt = small_filter()
        flt.weights = np.array([1.0, 0.0, 0.0, 0.0])
        assert flt.effective_particles() == pytest.approx(1.0, abs=1e-12)

    def test_half_and_half(self):
        flt = small_filter()
        flt.weights = np.array([0.5, 0.5, 0.0, 0.0])
        assert flt.effective_particles() == pytest.approx(2.0, abs=1e-12)

    def test_bounds_over_random_updates(self):
        flt = DistanceParticleFilter(FilterConfig(seed=9))
        rng = np.random.default_rng(10)
        n = flt.config.particle_count
        for _ in range(300):
            flt.update(float(rng.uniform(0.0, 4.0)))
            assert 1.0 <= flt.effective_particles() <= n + 1e-6


class TestResampling:
    def test_uniform_weights_do_not_resample(self):
        flt = DistanceParticleFilter(FilterConfig(seed=3))
        assert flt.maybe_resample() is False

    def test_point_mass_resamples_to_that_particle(self):
        flt = DistanceParticleFilter(FilterConfig(seed=4))
        weights = np.zeros(1000)
        weights[137] = 1.0
        flt.weights = weights
        target = flt.particles[137]
        assert flt.maybe_resample() is True
        assert np.all(flt.particles == target)
        assert np.all(flt.weights == 1.0 / 1000)

    def test_resample_restores_effective_count(self):
        flt = DistanceParticleFilter(FilterConfig(seed=5))
        rng = np.random.default_rng(6)
        resampled = 0
        for _ in range(200):
            outcome = flt.update(float(rng.uniform(0.5, 3.5)))
            if outcome.resampled:
                resampled += 1
                assert flt.effective_particles() == pytest.approx(
                    flt.config.particle_count, abs=1e-6
                )
        assert resampled > 0

    def test_multiplicities_track_weights(self):
        # expected copies of particle 0 = N * w0 = 4 * 0.7 = 2.8
        total = 0
        runs = 10_000
        for seed in range(runs):
            flt = small_filter(seed=seed)
            flt.particles = np.array([10.0, 20.0, 30.0, 40.0])
            flt.weights = np.array([0.7, 0.1, 0.1, 0.1])
            assert flt.maybe_resample() is True
            total += int(np.sum(flt.particles == 10.0))
        mean_copies = total / runs
        # binomial std of the mean is sqrt(4*0.7*0.3/runs) ~ 0.0092
        assert mean_copies == pytest.approx(2.8, abs=0.05)


class TestEstimate:
    def test_uniform_weights_reduce_to_arithmetic_mean(self):
        flt = DistanceParticleFilter(FilterConfig(seed=11))
        est = flt.estimate()
        assert est.mean_m == pytest.approx(float(np.mean(flt.particles)), rel=1e-12)

    def test_point_mass(self):
        flt = small_filter()
        flt.particles = np.array([1.0, 2.5, 3.0, 3.5])
        flt.weights = np.array([0.0, 1.0, 0.0, 0.0])
        est = flt.estimate()
        assert est.mean_m == 2.5
        assert est.std_m == 0.0
        assert est.effective_particles == pytest.approx(1.0)

    def test_weighted_mean_example(self):
        flt = small_filter(n=2)
        flt.particles = np.array([1.0, 3.0])
        flt.weights = np.array([0.75, 0.25])
        assert flt.estimate().mean_m == pytest.approx(1.5, abs=1e-12)

    def test_mean_invariant_under_joint_permutation(self):
        flt = small_filter(n=6, seed=21)
        flt.weights = np.array([0.3, 0.1, 0.2, 0.15, 0.05, 0.2])
        before = flt.estimate().mean_m
        perm = np.array([4, 2, 0, 5, 1, 3])
        flt.particles = flt.particles[perm]
        flt.weights = flt.weights[perm]
        assert flt.estimate().mean_m == pytest.approx(before, rel=1e-12)

    def test_std_matches_hand_formula(self):
        flt = small_filter()
        particles = np.array([1.0, 2.0, 3.0, 4.0])
        weights = np.array([0.4, 0.3, 0.2, 0.1])
        flt.particles = particles
        flt.weights = weights
        mean = float(np.sum(weights * particles))
        spread = float(np.sum(weights * (particles - mean) ** 2))
        expected = math.sqrt(spread / (3 / 4))
        assert flt.estimate().std_m == pytest.approx(expected, rel=1e-12)

    def test_estimate_stays_inside_state_range(self):
        flt = DistanceParticleFilter(FilterConfig(seed=12))
        rng = np.random.default_rng(13)
        for _ in range(100):
            flt.update(float(rng.uniform(-2.0, 8.0)))
            est = flt.estimate()
            assert 0.0 <= est.mean_m <= 4.0
            assert est.std_m >= 0.0


class TestConvergenceAndDeterminism:
    def test_constant_measurement_converges(self):
        flt = DistanceParticleFilter(FilterConfig(seed=271))
        for _ in range(60):
            flt.update(1.0)
        assert abs(flt.estimate().mean_m - 1.0) < 0.05

    def test_interior_grid_converges(self):
        for i, z in enumerate([0.5, 1.5, 2.5, 3.5]):
            flt = DistanceParticleFilter(FilterConfig(seed=500 + i))
            for _ in range(60):
                flt.update(z)
            assert abs(flt.estimate().mean_m - z) < 0.05

    def test_error_shrinks_in_expectation(self):
        # averaged over seeds, |mean - z| keeps falling until it reaches the
        # converged noise floor
        for z in (0.5, 2.0, 3.5):
            checkpoint_errors = {2: [], 10: [], 60: []}
            for seed in range(10):
                flt = DistanceParticleFilter(FilterConfig(seed=900 + seed))
                for step in range(1, 61):
                    flt.update(z)
                    if step in checkpoint_errors:
                        checkpoint_errors[step].append(abs(flt.estimate().mean_m - z))
            avg = {k: sum(v) / len(v) for k, v in checkpoint_errors.items()}
            assert avg[60] <= avg[10] <= avg[2]
            assert avg[60] < 0.05

    def test_bit_identical_given_seed_and_measurements(self):
        rng = np.random.default_rng(14)
        measurements = [float(z) for z in rng.uniform(0.0, 4.0, 150)]
        runs = []
        for _ in range(2):
            flt = DistanceParticleFilter(FilterConfig(seed=777))
            estimates = []
            for z in measurements:
                flt.update(z)
                estimates.append(flt.estimate())
            runs.append(estimates)
        assert runs[0] == runs[1]


class TestTrace:
    def test_trace_rows_and_csv(self, tmp_path):
        flt = DistanceParticleFilter(FilterConfig(seed=15))
        rows = trace_updates(flt, [1.0, 1.2, 0.8, 1.1])
        assert [r.step for r in rows] == [0, 1, 2, 3]
        assert all(isinstance(r, TraceRow) for r in rows)
        path = tmp_path / "trace.csv"
        write_filter_trace(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,measurement_m,mean_m,std_m,neff,resampled"
        assert len(lines) == 5


class TestParticleBank:
    SEEDS = (31, 32, 33, 34)

    def bank_and_filters(self, **kw):
        cfg = FilterConfig(particle_count=64, **kw)
        bank = ParticleBank(cfg, self.SEEDS)
        filters = [DistanceParticleFilter(replace(cfg, seed=s)) for s in self.SEEDS]
        return bank, filters

    def assert_same_state(self, bank, filters):
        assert np.array_equal(bank.particles, np.stack([f.particles for f in filters]))
        assert np.array_equal(bank.weights, np.stack([f.weights for f in filters]))
        assert bank.means().tolist() == [f.estimate().mean_m for f in filters]

    def test_rows_are_bit_identical_to_lone_filters(self):
        # noise 0.05 m: a particle 4 m from the reading has gain exp(-3200) == 0
        bank, filters = self.bank_and_filters(measurement_noise_m=0.05)
        self.assert_same_state(bank, filters)
        # row 1 is a point mass and reads its own particle, so its first update
        # resamples; row 2 sits at 4 m and reads 0 m, so its first update
        # collapses and reinitializes
        point_mass = np.zeros(64)
        point_mass[5] = 1.0
        bank.weights[1] = point_mass
        filters[1].weights = point_mass
        bank.particles[2] = 4.0
        filters[2].particles = np.full(64, 4.0)
        rng = np.random.default_rng(35)
        # readings per row and round: zero, one or several, ragged across rows;
        # the second round gives every row a reading, so the whole bank steps
        rounds = [[[], [float(bank.particles[1, 5])], [0.0], [1.0, 2.0, 3.0]]]
        rounds += [[rng.uniform(-0.5, 4.5, c).tolist() for c in (1, 1, 2, 1)]]
        rounds += [
            [rng.uniform(-0.5, 4.5, c).tolist() for c in rng.integers(0, 4, 4)]
            for _ in range(30)
        ]
        first = {}
        for readings in rounds:
            for k in range(max(map(len, readings))):
                rows = [row for row, values in enumerate(readings) if len(values) > k]
                z = [readings[row][k] for row in rows]
                resampled, reinitialized = bank.update(z, rows)
                for i, row in enumerate(rows):
                    expected = filters[row].update(z[i])
                    assert (resampled[i], reinitialized[i]) == (
                        expected.resampled,
                        expected.reinitialized,
                    )
                    first.setdefault(row, expected)
            self.assert_same_state(bank, filters)
        assert first[1].resampled and first[2].reinitialized

    def test_means_equal_estimate_means_bit_for_bit(self):
        bank, filters = self.bank_and_filters()
        rng = np.random.default_rng(36)
        for _ in range(50):
            z = rng.uniform(0.0, 4.0, len(self.SEEDS))
            bank.update(z)
            for row, f in enumerate(filters):
                f.update(float(z[row]))
        means = bank.means()
        for row, f in enumerate(filters):
            assert means[row] == f.estimate().mean_m

    def test_nonfinite_measurement_names_row_and_value(self):
        bank, _ = self.bank_and_filters()
        before = bank.weights.copy()
        with pytest.raises(ValueError, match=r"filter row 3: .* got nan"):
            bank.update([1.0, float("nan")], [0, 3])
        with pytest.raises(ValueError, match=r"filter row 1: .* got inf"):
            bank.update([1.0, float("inf"), 2.0, 3.0])
        assert np.array_equal(bank.weights, before)

    def test_measurements_must_match_rows(self):
        bank, _ = self.bank_and_filters()
        with pytest.raises(ValueError, match="2 measurements for 3 filter rows"):
            bank.update([1.0, 2.0], [0, 1, 2])

    def test_collapsed_row_reinitializes_without_warning(self):
        bank = ParticleBank(FilterConfig(particle_count=8, measurement_noise_m=1e-3), [1, 2])
        bank.particles[0] = 4.0
        bank.particles[1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resampled, reinitialized = bank.update([0.0, 0.0])
        assert reinitialized.tolist() == [True, False]
        assert not resampled[0]
        assert np.all(bank.weights[0] == 1.0 / 8)
        assert np.all((bank.particles[0] >= 0.0) & (bank.particles[0] <= 4.0))

    def test_maybe_resample_touches_only_its_row(self):
        bank, _ = self.bank_and_filters()
        bank.weights[2] = 0.0
        bank.weights[2, 7] = 1.0
        before = bank.particles.copy()
        assert bank.maybe_resample(1) is False
        assert bank.maybe_resample(2) is True
        assert np.all(bank.particles[2] == before[2, 7])
        assert np.array_equal(np.delete(bank.particles, 2, axis=0), np.delete(before, 2, axis=0))

    def test_needs_a_seed(self):
        with pytest.raises(ValueError):
            ParticleBank(FilterConfig(), [])
