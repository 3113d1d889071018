import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from beaconpark import cli, proximity, simulate
from beaconpark.particle import (
    DistanceParticleFilter,
    FilterConfig,
    ParticleBank,
)
from beaconpark.simulate import load_scenario, run_proximity_experiment
from helpers import ROOT


def lone(seed, n=1000, **kw):
    """One filter: a one-row bank."""
    return ParticleBank(FilterConfig(particle_count=n, **kw), [seed])


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"particle_count": 1},
            {"beta": 0.0},
            {"beta": 1.5},
            {"measurement_noise_m": 0.0},
            {"state_min_m": 2.0, "state_max_m": 2.0},
            # -0.5 / noise**2: noise**2 underflows to 0, or the quotient to -inf
            {"measurement_noise_m": 1e-200},
            {"measurement_noise_m": 1e-160},
            {"state_min_m": -1e308, "state_max_m": 1e308},
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
        assert np.array_equal(lone(1234).state()[0], lone(1234).state()[0])

    def test_initial_weights_are_uniform(self):
        bank = lone(1)
        assert np.all(bank.state()[1] == 1.0 / 1000)
        assert bank.effective_particles()[0] == pytest.approx(1000.0, abs=1e-6)

    def test_particles_inside_state_range(self):
        particles, _ = lone(2).state()
        assert np.all(particles >= 0.0)
        assert np.all(particles <= 4.0)


class TestUpdate:
    def test_particle_at_measurement_keeps_relative_weight(self):
        bank = lone(0, n=2)
        bank.set_state(0, particles=[2.0, 3.2], weights=[0.5, 0.5])
        bank.update([2.0])
        # gain 1 at zero distance, e^-0.5 at 1.2 m with noise 1.2
        _, weights = bank.state(0)
        assert weights[1] / weights[0] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_gain_value_at_one_point_two_meters(self):
        assert math.exp(-0.5 * 1.2**2 / 1.2**2) == pytest.approx(0.60653065971, abs=1e-9)

    def test_weights_sum_to_one_after_updates(self):
        bank = lone(7)
        rng = np.random.default_rng(3)
        for _ in range(200):
            bank.update([rng.uniform(0.0, 4.0)])
            assert abs(float(bank.state()[1].sum()) - 1.0) <= 1e-9

    def test_out_of_range_measurement_clamped(self):
        bank = lone(8)
        bank.update([100.0])  # clamps to 4.0 instead of zeroing all gains
        assert abs(float(bank.state()[1].sum()) - 1.0) <= 1e-9
        assert bank.means()[0] > 2.0

    def test_nonfinite_measurement_rejected(self):
        with pytest.raises(ValueError):
            lone(8).update([float("nan")])

    def test_total_collapse_reinitializes_with_flag(self):
        bank = lone(0, n=2, measurement_noise_m=1e-3)
        bank.set_state(0, particles=[3.9, 4.0], weights=[0.5, 0.5])
        _, reinitialized = bank.update([0.0])
        assert reinitialized[0]
        particles, weights = bank.state()
        assert abs(float(weights.sum()) - 1.0) <= 1e-9
        assert np.all((particles >= 0.0) & (particles <= 4.0))


class TestEffectiveParticles:
    def test_uniform_weights(self):
        assert lone(1).effective_particles()[0] == pytest.approx(1000.0, abs=1e-6)

    def test_point_mass(self):
        bank = lone(0, n=4)
        bank.set_state(0, weights=[1.0, 0.0, 0.0, 0.0])
        assert bank.effective_particles()[0] == pytest.approx(1.0, abs=1e-12)

    def test_half_and_half(self):
        bank = lone(0, n=4)
        bank.set_state(0, weights=[0.5, 0.5, 0.0, 0.0])
        assert bank.effective_particles()[0] == pytest.approx(2.0, abs=1e-12)

    def test_bounds_over_random_updates(self):
        bank = lone(9)
        rng = np.random.default_rng(10)
        for _ in range(300):
            bank.update([rng.uniform(0.0, 4.0)])
            assert 1.0 <= bank.effective_particles()[0] <= 1000 + 1e-6


class TestResampling:
    def test_uniform_weights_do_not_resample(self):
        assert lone(3).maybe_resample().tolist() == [False]

    def test_point_mass_resamples_to_that_particle(self):
        bank = lone(4)
        point_mass = np.zeros(1000)
        point_mass[137] = 1.0
        bank.set_state(0, weights=point_mass)
        target = bank.state(0)[0][137]
        assert bank.maybe_resample().tolist() == [True]
        particles, weights = bank.state()
        assert np.all(particles == target)
        assert np.all(weights == 1.0 / 1000)

    def test_resample_restores_effective_count(self):
        bank = lone(5)
        rng = np.random.default_rng(6)
        resamples = 0
        for _ in range(200):
            resampled, _ = bank.update([rng.uniform(0.5, 3.5)])
            if resampled[0]:
                resamples += 1
                assert bank.effective_particles()[0] == pytest.approx(1000, abs=1e-6)
        assert resamples > 0

    def test_multiplicities_track_weights(self):
        # expected copies of particle 0 = N * w0 = 4 * 0.7 = 2.8; filter i,
        # seeded i, is row i of one bank
        runs = 10_000
        bank = ParticleBank(FilterConfig(particle_count=4), range(runs))
        bank.set_state(particles=[10.0, 20.0, 30.0, 40.0], weights=[0.7, 0.1, 0.1, 0.1])
        assert bank.maybe_resample().all()
        mean_copies = int(np.sum(bank.state()[0] == 10.0)) / runs
        # binomial std of the mean is sqrt(4*0.7*0.3/runs) ~ 0.0092
        assert mean_copies == pytest.approx(2.8, abs=0.05)


class TestEstimate:
    def test_uniform_weights_reduce_to_arithmetic_mean(self):
        bank = lone(11)
        assert bank.means()[0] == pytest.approx(float(np.mean(bank.state()[0])), rel=1e-12)

    def test_point_mass(self):
        bank = lone(0, n=4)
        bank.set_state(0, particles=[1.0, 2.5, 3.0, 3.5], weights=[0.0, 1.0, 0.0, 0.0])
        assert bank.means()[0] == 2.5
        assert bank.effective_particles()[0] == pytest.approx(1.0)

    def test_weighted_mean_example(self):
        bank = lone(0, n=2)
        bank.set_state(0, particles=[1.0, 3.0], weights=[0.75, 0.25])
        assert bank.means()[0] == pytest.approx(1.5, abs=1e-12)

    def test_mean_invariant_under_joint_permutation(self):
        bank = lone(21, n=6)
        bank.set_state(0, weights=[0.3, 0.1, 0.2, 0.15, 0.05, 0.2])
        before = bank.means()[0]
        perm = np.array([4, 2, 0, 5, 1, 3])
        particles, weights = bank.state(0)
        bank.set_state(0, particles=particles[perm], weights=weights[perm])
        assert bank.means()[0] == pytest.approx(before, rel=1e-12)

    def test_std_matches_hand_formula(self):
        # DistanceParticleFilter, which the benchmark's tracer binds by name,
        # steps as a one-row bank and adds this weighted std to its estimate
        cfg = FilterConfig(particle_count=64, measurement_noise_m=0.3)
        flt, bank = DistanceParticleFilter(cfg, 5), ParticleBank(cfg, [5])
        rng = np.random.default_rng(6)
        resamples = 0
        for z in rng.uniform(-0.5, 4.5, 100).tolist():
            outcome = flt.update(z)
            resampled, reinitialized = bank.update([z])
            assert (outcome.resampled, outcome.reinitialized) == (resampled[0], reinitialized[0])
            resamples += outcome.resampled
            est = flt.estimate()
            p, w = bank.state(0)
            assert np.array_equal(flt.bank.state(0)[0], p)
            assert (est.mean_m, est.effective_particles) == (
                bank.means()[0], bank.effective_particles()[0]
            )
            nonzero = np.count_nonzero(w)
            spread = np.sum(w * (p - est.mean_m) ** 2)
            expected = math.sqrt(spread / ((nonzero - 1) / nonzero * w.sum()))
            assert est.std_m == pytest.approx(expected, rel=1e-12)
        assert resamples > 0
        small = DistanceParticleFilter(FilterConfig(particle_count=4), 0)
        particles, weights = np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.4, 0.3, 0.2, 0.1])
        small.bank.set_state(0, particles=particles, weights=weights)
        mean = float(np.sum(weights * particles))
        spread = float(np.sum(weights * (particles - mean) ** 2))
        assert small.estimate().std_m == pytest.approx(math.sqrt(spread / (3 / 4)), rel=1e-12)
        small.bank.set_state(0, weights=[0.0, 1.0, 0.0, 0.0])
        assert small.estimate().std_m == 0.0

    def test_estimate_stays_inside_state_range(self):
        bank = lone(12)
        rng = np.random.default_rng(13)
        for _ in range(100):
            bank.update([rng.uniform(-2.0, 8.0)])
            assert 0.0 <= bank.means()[0] <= 4.0


class TestConvergenceAndDeterminism:
    def test_constant_measurement_converges(self):
        bank = lone(271)
        for _ in range(60):
            bank.update([1.0])
        assert abs(bank.means()[0] - 1.0) < 0.05

    def test_interior_grid_converges(self):
        # filter i, seeded 500 + i, reads z[i]: row i of one bank
        z = np.array([0.5, 1.5, 2.5, 3.5])
        bank = ParticleBank(FilterConfig(), [500 + i for i in range(len(z))])
        for _ in range(60):
            bank.update(z)
        assert np.all(np.abs(bank.means() - z) < 0.05)

    def test_error_shrinks_in_expectation(self):
        # averaged over seeds, |mean - z| keeps falling until it reaches the
        # converged noise floor; the ten seeds are the rows of one bank
        for z in (0.5, 2.0, 3.5):
            bank = ParticleBank(FilterConfig(), [900 + seed for seed in range(10)])
            avg = {}
            for step in range(1, 61):
                bank.update(np.full(10, z))
                if step in (2, 10, 60):
                    avg[step] = float(np.mean(np.abs(bank.means() - z)))
            assert avg[60] <= avg[10] <= avg[2]
            assert avg[60] < 0.05

    def test_bit_identical_given_seed_and_measurements(self):
        rng = np.random.default_rng(14)
        measurements = rng.uniform(0.0, 4.0, 150).tolist()
        runs = []
        for _ in range(2):
            bank = lone(777)
            means = []
            for z in measurements:
                bank.update([z])
                means.append(bank.means()[0])
            runs.append(means)
        assert runs[0] == runs[1]


class TestParticleBank:
    SEEDS = (31, 32, 33, 34)

    def bank_and_lone(self, **kw):
        """A bank of SEEDS and, for each seed, its one-row bank."""
        cfg = FilterConfig(particle_count=64, **kw)
        return ParticleBank(cfg, self.SEEDS), [ParticleBank(cfg, [s]) for s in self.SEEDS]

    def assert_same_state(self, bank, lone_banks):
        for mine, theirs in zip(bank.state(), zip(*(b.state() for b in lone_banks))):
            assert np.array_equal(mine, np.concatenate(theirs))
        assert bank.means().tolist() == [b.means()[0] for b in lone_banks]

    def test_rows_are_bit_identical_to_lone_filters(self):
        # noise 0.05 m: a particle 4 m from the reading has gain exp(-3200) == 0
        bank, lone_banks = self.bank_and_lone(measurement_noise_m=0.05)
        self.assert_same_state(bank, lone_banks)
        # row 1 is a point mass and reads its own particle, so its first update
        # resamples; row 2 sits at 4 m and reads 0 m, so its first update
        # collapses and reinitializes
        point_mass = np.zeros(64)
        point_mass[5] = 1.0
        for b, row in [(bank, 1), (lone_banks[1], 0)]:
            b.set_state(row, weights=point_mass)
        for b, row in [(bank, 2), (lone_banks[2], 0)]:
            b.set_state(row, particles=4.0)
        rng = np.random.default_rng(35)
        steps = [[1.0, float(bank.state(1)[0][5]), 0.0, 3.0]]
        steps += rng.uniform(-0.5, 4.5, (40, 4)).tolist()
        for i, z in enumerate(steps):
            resampled, reinitialized = bank.update(z)
            expected = [b.update([value]) for b, value in zip(lone_banks, z)]
            assert resampled.tolist() == [r[0] for r, _ in expected]
            assert reinitialized.tolist() == [r[0] for _, r in expected]
            if i == 0:
                assert resampled[1] and reinitialized[2]
            self.assert_same_state(bank, lone_banks)

    def test_ragged_rounds_are_bit_identical_to_lone_filters(self):
        # the planted rows of the test above, now stepped by `run` in a first
        # round that gives row 0 no reading: its first sub-step reaches rows
        # 1, 2 and 3 only, and its last two row 3 alone
        bank, lone_banks = self.bank_and_lone(measurement_noise_m=0.05)
        point_mass = np.zeros(64)
        point_mass[5] = 1.0
        for b, row in [(bank, 1), (lone_banks[1], 0)]:
            b.set_state(row, weights=point_mass)
        for b, row in [(bank, 2), (lone_banks[2], 0)]:
            b.set_state(row, particles=4.0)
        row_0 = bank.state(0)
        particle_5 = float(bank.state(1)[0][5])
        rng = np.random.default_rng(35)
        # readings per row and round: zero, one or several, ragged across rows;
        # the second round gives every row a reading, so its first sub-step
        # steps the whole bank
        rounds = [[[], [particle_5], [0.0], [1.0, 2.0, 3.0]]]
        rounds += [[rng.uniform(-0.5, 4.5, c).tolist() for c in (1, 1, 2, 1)]]
        rounds += [
            [rng.uniform(-0.5, 4.5, c).tolist() for c in rng.integers(0, 4, 4)]
            for _ in range(30)
        ]
        for r, readings in enumerate(rounds):
            counts = np.array([len(values) for values in readings])
            ends = np.cumsum(counts)
            bank.run(sum(readings, []), np.stack([ends - counts, ends], axis=1))
            flags = [[b.update([z]) for z in values] for b, values in zip(lone_banks, readings)]
            self.assert_same_state(bank, lone_banks)
            if r == 0:
                # row 1 resampled and row 2 collapsed on their one reading
                (resampled,), _ = flags[1][0]
                _, (reinitialized,) = flags[2][0]
                assert resampled and reinitialized
                particles, weights = bank.state()
                assert np.array_equal(particles[0], row_0[0])
                assert np.array_equal(weights[0], row_0[1])
                assert np.all(particles[1] == particle_5)
                assert np.all((particles[2] >= 0.0) & (particles[2] < 4.0))
                assert np.all(weights[1:3] == 1.0 / 64)

    def test_whole_and_partial_steps_alternate_bit_for_bit(self):
        # a sub-step of `run` in which some rows have no reading sets their
        # gains to 1, and means() and N_eff are taken in between; the bank
        # keeps its runs between calls, so a stale value would show up in
        # the next step
        bank, lone_banks = self.bank_and_lone(measurement_noise_m=0.3)
        rng = np.random.default_rng(37)
        for step in range(60):
            rows = list(range(4)) if step % 2 == 0 else sorted(rng.choice(4, 1 + step % 3, False))
            z = rng.uniform(-0.5, 4.5, len(rows))
            if len(rows) == 4:
                bank.update(z)
            else:  # one round in which only `rows` have a reading
                has = np.isin(np.arange(4), rows)
                ends = np.cumsum(has)
                bank.run(z, np.stack([ends - has, ends], axis=1))
            for row, value in zip(rows, z.tolist()):
                lone_banks[row].update([value])
            assert bank.effective_particles().tolist() == [
                b.effective_particles()[0] for b in lone_banks
            ]
            self.assert_same_state(bank, lone_banks)

    def test_means_equal_estimate_means_bit_for_bit(self):
        bank, lone_banks = self.bank_and_lone()
        rng = np.random.default_rng(36)
        for _ in range(50):
            z = rng.uniform(0.0, 4.0, len(self.SEEDS))
            bank.update(z)
            for row, b in enumerate(lone_banks):
                b.update(z[row : row + 1])
        means = bank.means()
        for row, b in enumerate(lone_banks):
            assert means[row] == b.means()[0]

    def test_run_rounds_match_lone_filters_bit_for_bit(self):
        # each row takes 0, 1 or 3 readings per round, ragged across rows;
        # round 1 gives every row a reading, so its first sub-step is
        # whole-bank, and round 2 gives no row any
        bank, lone_banks = self.bank_and_lone(measurement_noise_m=0.3)
        rng = np.random.default_rng(38)
        counts = rng.choice([0, 1, 3], size=(4, 12))
        counts[:, :3] = [[0, 1, 0], [1, 3, 0], [3, 1, 0], [0, 3, 0]]
        readings = rng.uniform(-0.5, 4.5, counts.sum())
        bounds = np.concatenate([np.zeros((4, 1), dtype=int), np.cumsum(counts, axis=1)], axis=1)
        starts = bounds + (np.cumsum(counts.sum(axis=1)) - counts.sum(axis=1))[:, None]
        with pytest.raises(ValueError, match="starts of shape"):
            bank.run(readings, starts[:3])
        means = bank.run(readings, starts)
        assert means.shape == (4, 12)
        for r in range(12):
            for row, b in enumerate(lone_banks):
                for z in readings[starts[row, r] : starts[row, r + 1]].tolist():
                    b.update([z])
            assert means[:, r].tolist() == [b.means()[0] for b in lone_banks]
        self.assert_same_state(bank, lone_banks)

    def test_run_one_reading_rounds_equal_single_reading_steps(self):
        ran, lone_banks = self.bank_and_lone()
        lengths = np.array([5, 0, 9, 3])
        readings = np.random.default_rng(39).uniform(0.0, 4.0, lengths.sum())
        firsts = np.cumsum(lengths) - lengths
        starts = firsts[:, None] + np.minimum(np.arange(lengths.max() + 1), lengths[:, None])
        means = ran.run(readings, starts)
        assert means.shape == (4, lengths.max())
        for k in range(lengths.max()):
            for row in np.flatnonzero(lengths > k).tolist():
                lone_banks[row].update([readings[firsts[row] + k]])
            assert means[:, k].tolist() == [b.means()[0] for b in lone_banks]
        self.assert_same_state(ran, lone_banks)

    def test_nonfinite_measurement_names_row_and_value(self):
        bank, _ = self.bank_and_lone()
        before = bank.state()[1]
        with pytest.raises(ValueError, match=r"filter row 3: .* got nan"):
            bank.update([1.0, 2.0, 3.0, float("nan")])
        with pytest.raises(ValueError, match=r"filter row 1: .* got inf"):
            bank.update([1.0, float("inf"), 2.0, 3.0])
        assert np.array_equal(bank.state()[1], before)

    def test_measurements_must_match_rows(self):
        bank, _ = self.bank_and_lone()
        before = bank.state()[1]
        for shape in [(2,), (4, 1), ()]:
            message = rf"measurements of shape {re.escape(str(shape))} for 4 filter rows"
            with pytest.raises(ValueError, match=message):
                bank.update(np.ones(shape))
        assert np.array_equal(bank.state()[1], before)

    def test_collapsed_row_reinitializes_without_warning(self):
        bank = ParticleBank(FilterConfig(particle_count=8, measurement_noise_m=1e-3), [1, 2])
        bank.set_state(0, particles=4.0)
        bank.set_state(1, particles=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resampled, reinitialized = bank.update([0.0, 0.0])
        assert reinitialized.tolist() == [True, False]
        assert not resampled[0]
        particles, weights = bank.state(0)
        assert np.all(weights == 1.0 / 8)
        assert np.all((particles >= 0.0) & (particles <= 4.0))

    def test_subnormal_total_divides_without_warning(self):
        # noise 0.05 m: row 1's particles 1.9 m from the reading have gains
        # near 1e-313, so its weight total is positive but subnormal and has
        # no finite reciprocal; rows 0 and 2 normalize as usual
        cfg = FilterConfig(particle_count=64, measurement_noise_m=0.05)
        seeds = [41, 42, 43]
        bank = ParticleBank(cfg, seeds)
        far = np.linspace(2.0, 2.002, 64)
        bank.set_state(1, particles=far)
        lone = ParticleBank(cfg, seeds[1:2])
        lone.set_state(0, particles=far)
        weights = np.full(64, 1.0 / 64) * np.exp(np.square(far - 0.1) * (-0.5 / 0.05**2))
        assert 0.0 < weights.sum() < sys.float_info.min
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resampled, reinitialized = bank.update([2.0, 0.1, 3.0])
            lone.update([0.1])
        assert not resampled[1] and not reinitialized[1]
        particles, row_weights = bank.state(1)
        assert np.array_equal(particles, far)
        assert row_weights.tobytes() == (weights / weights.sum()).tobytes()
        assert row_weights.sum() == pytest.approx(1.0, rel=1e-6)
        assert row_weights.tobytes() == lone.state(0)[1].tobytes()
        assert bank.means()[1] == lone.means()[0]

    def test_overflowing_total_reinitializes_its_row_alone(self):
        # row 1's weights sum past the largest float: a collapse, so the row
        # reinitializes, and rows 0 and 2 step as in a bank without it
        cfg = FilterConfig(particle_count=8)
        planted, plain = ParticleBank(cfg, [1, 2, 3]), ParticleBank(cfg, [1, 2, 3])
        planted.set_state(1, weights=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resampled, reinitialized = planted.update([1.0, 2.0, 3.0])
        plain.update([1.0, 2.0, 3.0])
        assert reinitialized.tolist() == [False, True, False]
        assert not resampled[1]
        assert np.all(planted.state(1)[1] == 1.0 / 8)
        for row in (0, 2):
            for mine, theirs in zip(planted.state(row), plain.state(row)):
                assert mine.tobytes() == theirs.tobytes()

    def test_a_row_without_a_reading_is_left_alone(self):
        # one ragged round: row 0 reads nothing and holds weights whose total
        # overflows; row 1's weights are zero, so it collapses and the step
        # takes its slow path
        bank, _ = self.bank_and_lone()
        bank.set_state(0, weights=1e308)
        bank.set_state(1, weights=0.0)
        particles, weights = (array.tobytes() for array in bank.state(0))
        generator = bank._rngs[0].bit_generator.state
        with np.errstate(over="ignore", invalid="ignore"):  # row 0's N_eff and mean overflow
            bank.run([1.0, 2.0, 3.0], [[0, 0], [0, 1], [1, 2], [2, 3]])
        assert [array.tobytes() for array in bank.state(0)] == [particles, weights]
        assert bank._rngs[0].bit_generator.state == generator
        assert np.all(bank.state(1)[1] == 1.0 / 64)

    def test_maybe_resample_touches_only_its_row(self):
        bank, _ = self.bank_and_lone()
        point_mass = np.zeros(64)
        point_mass[7] = 1.0
        bank.set_state(2, weights=point_mass)
        before, _ = bank.state()
        assert bank.maybe_resample().tolist() == [False, False, True, False]
        particles, _ = bank.state()
        assert np.all(particles[2] == before[2, 7])
        assert np.array_equal(np.delete(particles, 2, axis=0), np.delete(before, 2, axis=0))

    def test_each_row_change_lays_out_bit_for_bit(self):
        # set_state, a resample (by a step or by maybe_resample) and a
        # reinitialization lay out the rows they change before they return,
        # and the next call reads those rows' new runs. Noise 0.05 m: row 2
        # sits at 4 m and reads 0 m, so its first step collapses it.
        bank, lone_banks = self.bank_and_lone(measurement_noise_m=0.05)

        def pairs(row):
            return [(bank, row), (lone_banks[row], 0)]

        def assert_rows_alone():
            for row, lone_bank in enumerate(lone_banks):
                for mine, theirs in zip(bank.state(row), lone_bank.state(0)):
                    assert mine.tobytes() == theirs.tobytes()

        def resample_every_bank():
            flags = bank.maybe_resample()
            assert flags.tolist() == [b.maybe_resample()[0] for b in lone_banks]
            return flags.tolist()

        point_mass = np.zeros(64)
        point_mass[9] = 1.0
        target = float(bank.state(1)[0][9])
        for b, row in pairs(1):
            b.set_state(row, weights=point_mass)
        # the second call reads the first one's runs, whose N_eff is N
        assert resample_every_bank() == [False, True, False, False]
        assert resample_every_bank() == [False] * 4
        particles, weights = bank.state(1)
        assert np.all(particles == target) and np.all(weights == 1.0 / 64)
        assert_rows_alone()
        ramp = np.linspace(1.0, 2.0, 64)
        ramp /= ramp.sum()
        for b, row in pairs(1):
            b.set_state(row, weights=ramp)  # the row the last resample laid out
        for b, row in pairs(2):
            b.set_state(row, particles=4.0)
        assert bank.means().tolist() == [b.means()[0] for b in lone_banks]
        _, reinitialized = bank.update([1.0, target, 0.0, 3.0])
        for b, z in zip(lone_banks, [1.0, target, 0.0, 3.0]):
            b.update([z])
        assert reinitialized.tolist() == [False, False, True, False]
        assert np.all(bank.state(2)[0] < 4.0)  # redrawn, no longer the particles set at 4 m
        assert resample_every_bank() == [False] * 4  # row 2 reads its fresh draw
        assert_rows_alone()
        rng = np.random.default_rng(39)
        for step in range(30):
            z = rng.uniform(-0.5, 4.5, 4)
            bank.update(z)
            for row, b in enumerate(lone_banks):
                b.update(z[row : row + 1])
            planted = step % 4
            point_mass = np.zeros(64)
            point_mass[rng.integers(64)] = 1.0
            for b, row in pairs(planted):
                b.set_state(row, weights=point_mass)
            flags = resample_every_bank()
            assert flags[planted] and not any(resample_every_bank())
            assert_rows_alone()
            assert bank.means().tolist() == [b.means()[0] for b in lone_banks]
        self.assert_same_state(bank, lone_banks)

    def test_needs_a_seed(self):
        with pytest.raises(ValueError):
            ParticleBank(FilterConfig(), [])

    @pytest.mark.parametrize("counts", [[100], [100, 1], [100.0, 200.0], [[100, 200]]])
    def test_needs_one_particle_count_of_at_least_2_per_row(self, counts):
        with pytest.raises(ValueError, match="one particle count of at least 2 per filter row"):
            ParticleBank(FilterConfig(), [1, 2], counts)

    def test_state_copies_are_read_only(self):
        bank, _ = self.bank_and_lone()
        particles, weights = bank.state(1)
        with pytest.raises(ValueError, match="read-only"):
            particles[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            bank.state()[1][0, 0] = 0.5
        with pytest.raises(IndexError, match="filter row 4 outside a bank of 4 rows"):
            bank.state(4)
        assert np.array_equal(bank.state(1)[1], weights)


class TestCounters:
    def test_lone_updates(self):
        bank = lone(5)
        rng = np.random.default_rng(6)
        flags = [bank.update([z]) for z in rng.uniform(0.5, 3.5, 200).tolist()]
        assert bank.steps == 200
        assert bank.resamples == sum(bool(resampled[0]) for resampled, _ in flags) > 0
        assert bank.reinitializations == 0
        assert bank.particle_steps == 200 * 1000
        assert 200 <= bank.run_steps < bank.particle_steps

    @staticmethod
    def recorded_banks(monkeypatch, module):
        """The banks that `module` makes from now on, as it makes them."""
        banks = []

        class Recorded(ParticleBank):
            def __init__(self, *args):
                super().__init__(*args)
                banks.append(self)

        monkeypatch.setattr(module, "ParticleBank", Recorded)
        return banks

    def test_the_shipped_proximity_grid(self, monkeypatch):
        # Pinned, so that a step that falls back to full (B, N) passes, or
        # resamples differently, fails here and not only in the benchmark.
        # The runs are 18.4% of the particle-steps.
        banks = self.recorded_banks(monkeypatch, proximity)
        scenario, experiment, config = load_scenario(ROOT / "scenarios" / "indoor_proximity.json")
        run_proximity_experiment(scenario, experiment.grid, config)
        (bank,) = banks
        assert (bank.steps, bank.resamples, bank.reinitializations) == (300, 252, 0)
        assert (bank.particle_steps, bank.run_steps) == (300 * 75 * 1000, 4_133_336)

    def test_the_shipped_sweep(self, monkeypatch):
        # `distance --sweep`: 24 rows at each of ten particle counts, 120
        # readings a row. Every row evolves bit for bit whatever bank holds
        # it, so every total but the steps is that of ten banks of one count
        # each; the steps fall from 1,200 to 120 per bank.
        banks = self.recorded_banks(monkeypatch, simulate)
        scenario, experiment, config = load_scenario(ROOT / "scenarios" / "indoor_distance.json")
        simulate.run_distance_experiment(
            scenario, experiment.grid, config, experiment.repetitions, cli.PARTICLE_SWEEP
        )
        assert all(sum(bank.particle_counts) <= simulate.BANK_SLOTS for bank in banks)
        assert sorted(n for bank in banks for n in set(bank.particle_counts)) == list(
            cli.PARTICLE_SWEEP
        )
        assert sum(bank.steps for bank in banks) == 120 * len(banks) <= 360
        totals = [
            sum(getattr(bank, name) for bank in banks)
            for name in ("resamples", "reinitializations", "particle_steps", "run_steps")
        ]
        assert totals == [608, 0, 31_680_000, 8_535_335]


def row_sum(x):
    """x[0] plus the pairwise sum of the rest: how np.add.reduceat adds a segment."""
    return x[0] + np.add.reduce(x[1:])


def split_runs(p, w):
    """A row's maximal runs of equal (particle, weight), as (values, weights, counts)."""
    heads = [0] + [i for i in range(1, len(p)) if p[i] != p[i - 1] or w[i] != w[i - 1]]
    return p[heads], w[heads], np.diff(heads + [len(p)]).astype(float)


def reference_run(config, seeds, readings, starts, sizes=None):
    """Each row as a lone filter over its own runs, stepped in plain 1-D numpy.

    Row b holds sizes[b] particles, config.particle_count unless given.

    A row is its maximal runs of equal (particle, weight): values v,
    weights w and counts c. One step: clamp, subtract, square, multiply by
    -0.5 / noise^2, exp, multiply into w, total = sum(c * w), multiply by
    1 / total, N_eff as 1 / sum((c * w) * w), and below beta * N a
    multinomial resample from the row's own default_rng(seed): each sorted
    uniform picks the run it falls in, and the picked particles are split
    into runs again. The mean is sum((c * w) * v) / sum(c * w). Every sum is
    `row_sum`. Returns the means after every round, the final particles and
    weights, one entry per particle, row after row, and the number of
    resamples.
    """
    lo, hi = config.state_min_m, config.state_max_m
    scale = -0.5 / config.measurement_noise_m**2
    means = np.empty((len(seeds), starts.shape[1] - 1))
    particles, weights, resamples = [], [], 0
    for b, seed in enumerate(seeds):
        n = config.particle_count if sizes is None else sizes[b]
        rng = np.random.default_rng(seed)
        v, w, c = split_runs(rng.uniform(lo, hi, n), np.full(n, 1.0 / n))
        for r in range(starts.shape[1] - 1):
            for z in readings[starts[b, r] : starts[b, r + 1]].tolist():
                z = min(max(z, lo), hi)
                w = w * np.exp(np.square(v - z) * scale)
                total = row_sum(c * w)
                assert total >= sys.float_info.min  # no collapse, no subnormal total
                w = w * (1.0 / total)
                if 1.0 / row_sum(c * w * w) < config.beta * n:
                    cumulative = np.cumsum(c * w)
                    cumulative[-1] = 1.0
                    p = v[np.searchsorted(cumulative, np.sort(rng.random(n)))]
                    v, w, c = split_runs(p, np.full(n, 1.0 / n))
                    resamples += 1
            means[b, r] = row_sum(c * w * v) / row_sum(c * w)
        particles.append(np.repeat(v, c.astype(int)))
        weights.append(np.repeat(w, c.astype(int)))
    return means, np.concatenate(particles), np.concatenate(weights), resamples


def expanded_run(config, seeds, readings, starts):
    """Each row as a lone filter, stepped particle by particle in plain 1-D numpy.

    One step: clamp, subtract, square, multiply by -0.5 / noise^2, exp,
    multiply, sum, multiply by 1 / sum, N_eff as 1 / (w . w), and below
    beta * N a multinomial resample from the row's own default_rng(seed).
    The dots are einsum's ("i,i->"), whose bits np.dot does not share. The
    mean is (w . p) / sum(w). Returns the means after every round, the
    final particles and weights, and the number of resamples.
    """
    n, lo, hi = config.particle_count, config.state_min_m, config.state_max_m
    scale = -0.5 / config.measurement_noise_m**2
    means = np.empty((len(seeds), starts.shape[1] - 1))
    particles, weights, resamples = [], [], 0
    for b, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        p = rng.uniform(lo, hi, n)
        w = np.full(n, 1.0 / n)
        for r in range(starts.shape[1] - 1):
            for z in readings[starts[b, r] : starts[b, r + 1]].tolist():
                z = min(max(z, lo), hi)
                w = w * np.exp(np.square(p - z) * scale)
                total = w.sum()
                assert total >= sys.float_info.min  # no collapse, no subnormal total
                w = w * (1.0 / total)
                if 1.0 / np.einsum("i,i->", w, w) < config.beta * n:
                    cumulative = np.cumsum(w)
                    cumulative[-1] = 1.0
                    p = p[np.searchsorted(cumulative, np.sort(rng.random(n)))]
                    w = np.full(n, 1.0 / n)
                    resamples += 1
            means[b, r] = np.einsum("i,i->", w, p) / w.sum()
        particles.append(p)
        weights.append(w)
    return means, np.array(particles), np.array(weights), resamples


def noisy_readings(rng, counts):
    """Readings around one true distance per row, row after row, and their starts.

    The noise carries some readings outside [0, 4], so the clamp is used.
    """
    truths = rng.uniform(0.3, 3.7, len(counts))
    per_row = counts.sum(axis=1)
    readings = np.repeat(truths, per_row) + rng.normal(0.0, 1.0, per_row.sum())
    firsts = np.cumsum(per_row) - per_row
    bounds = np.concatenate([np.zeros((len(counts), 1), dtype=int), np.cumsum(counts, axis=1)], 1)
    return readings, firsts[:, None] + bounds


class TestRunAgainstReference:
    @pytest.mark.parametrize(
        "rows, n, rounds, per_round",
        [(75, 1000, 20, 1), (24, 200, 1, 120), (24, 2000, 1, 120)],
        ids=["proximity-75x1000", "sweep-24x200", "sweep-24x2000"],
    )
    def test_even_rounds_bit_for_bit(self, rows, n, rounds, per_round):
        config = FilterConfig(particle_count=n)
        seeds = list(range(100, 100 + rows))
        rng = np.random.default_rng(n + rows)
        readings, starts = noisy_readings(rng, np.full((rows, rounds), per_round))
        assert readings.min() < 0.0 and readings.max() > 4.0
        bank = ParticleBank(config, seeds)
        means = bank.run(readings, starts)
        expected, particles, weights, resamples = reference_run(config, seeds, readings, starts)
        assert resamples > 0
        assert means.tobytes() == expected.tobytes()
        assert bank.state()[0].tobytes() == particles.tobytes()
        assert bank.state()[1].tobytes() == weights.tobytes()

    def test_ragged_rounds_bit_for_bit(self):
        # round 0 steps only some rows at every sub-step; round 2's first
        # sub-step reaches every row and its second only two; round 3 is empty
        counts = np.array(
            [[2, 1, 2, 0, 1], [1, 1, 1, 0, 4], [0, 1, 1, 0, 0], [3, 1, 1, 0, 2], [1, 1, 3, 0, 1]]
        )
        config = FilterConfig(particle_count=300, measurement_noise_m=0.4)
        seeds = [7, 8, 9, 10, 11]
        readings, starts = noisy_readings(np.random.default_rng(40), counts)
        bank = ParticleBank(config, seeds)
        means = bank.run(readings, starts)
        expected, particles, weights, resamples = reference_run(config, seeds, readings, starts)
        assert resamples > 0
        assert means.tobytes() == expected.tobytes()
        assert bank.state()[0].tobytes() == particles.tobytes()
        assert bank.state()[1].tobytes() == weights.tobytes()

    def test_unequal_particle_counts_bit_for_bit(self):
        # one bank of rows of N = 2, 7, 200, 1000 and 2000 through ragged rounds
        counts = np.random.default_rng(42).integers(0, 4, (5, 12))
        config = FilterConfig(particle_count=300)
        seeds, sizes = [21, 22, 23, 24, 25], [2, 7, 200, 1000, 2000]
        readings, starts = noisy_readings(np.random.default_rng(43), counts)
        bank = ParticleBank(config, seeds, sizes)
        means = bank.run(readings, starts)
        expected, particles, weights, resamples = reference_run(
            config, seeds, readings, starts, sizes
        )
        assert resamples > 0
        assert means.tobytes() == expected.tobytes()
        for mine, theirs in zip(zip(*map(bank.state, range(5))), (particles, weights)):
            assert np.concatenate(mine).tobytes() == theirs.tobytes()
        with pytest.raises(ValueError, match="unequal particle counts"):
            bank.state()

    @pytest.mark.parametrize(
        "rows, n, rounds, per_round",
        [(75, 1000, 20, 1), (24, 200, 1, 120), (24, 2000, 1, 120)],
        ids=["proximity-75x1000", "sweep-24x200", "sweep-24x2000"],
    )
    def test_the_particle_by_particle_filter_agrees(self, rows, n, rounds, per_round):
        # The bank sums over runs and the expanded filter over particles, so
        # their weights differ in the last bits. Bounds fixed before the
        # first run: the same resamples, the same particles, means within
        # 1e-12 relative.
        config = FilterConfig(particle_count=n)
        seeds = list(range(100, 100 + rows))
        readings, starts = noisy_readings(
            np.random.default_rng(n + rows), np.full((rows, rounds), per_round)
        )
        bank = ParticleBank(config, seeds)
        means = bank.run(readings, starts)
        expected, particles, _, resamples = expanded_run(config, seeds, readings, starts)
        assert bank.resamples == resamples > 0
        assert bank.state()[0].tobytes() == particles.tobytes()
        np.testing.assert_allclose(means, expected, rtol=1e-12, atol=0.0)


class TestRowIndependence:
    """A row's bits do not depend on how many rows its bank holds, or where it sits.

    N = 257 puts the rows of a bank at addresses that are not 64-byte
    aligned; N = 10000 rows are longer than einsum's one-pass limit.
    """

    @pytest.mark.parametrize("n", [200, 257, 1000, 2000, 10000])
    def test_a_row_is_the_same_in_banks_of_1_24_and_75_rows(self, n):
        config = FilterConfig(particle_count=n)
        rounds = 30
        rng = np.random.default_rng(n)
        own = np.clip(2.7 + rng.normal(0.0, 0.8, rounds), -0.5, 4.5)
        states = []
        for rows, at in [(1, 0), (24, 23), (75, 40)]:
            seeds = [1000 + b for b in range(rows)]
            seeds[at] = 7
            readings = rng.uniform(-0.5, 4.5, (rows, rounds))
            readings[at] = own
            starts = np.arange(rows)[:, None] * rounds + np.arange(rounds + 1)
            bank = ParticleBank(config, seeds)
            means = bank.run(readings.ravel(), starts)
            states.append(
                [
                    means[at].tobytes(),
                    *(array.tobytes() for array in bank.state(at)),
                    bank.effective_particles()[at],
                ]
            )
        assert states[0] == states[1] == states[2]

    SEEDS = (51, 52, 53, 54)
    ROUNDS = 30

    def planted_banks(self, n, noise, at, plant):
        """A bank of SEEDS and two one-row banks of SEEDS[at], with `plant` applied to that row."""
        config = FilterConfig(particle_count=n, measurement_noise_m=noise)
        banks = [ParticleBank(config, self.SEEDS)]
        banks += [ParticleBank(config, [self.SEEDS[at]]) for _ in range(2)]
        for bank, row in zip(banks, [at, 0, 0]):
            particles, weights = (np.array(array) for array in bank.state(row))
            plant(particles, weights)
            bank.set_state(row, particles=particles, weights=weights)
        return banks

    def assert_row_alone(self, banks, at, readings):
        """One reading per row per round: row `at` of the bank, run over all rounds, must
        match bit for bit its one-row bank run alike and one stepped by `update`, which
        splits the row into runs again at every reading."""
        bank, alone, stepped = banks
        rows = len(self.SEEDS)
        starts = np.arange(rows)[:, None] * self.ROUNDS + np.arange(self.ROUNDS + 1)
        means = bank.run(readings.ravel(), starts)
        own = alone.run(readings[at], np.arange(self.ROUNDS + 1)[None, :])
        assert means[at].tobytes() == own[0].tobytes()
        for z, mean in zip(readings[at].tolist(), own[0].tolist()):
            stepped.update([z])
            assert stepped.means()[0] == mean
        for lone_bank in (alone, stepped):
            for mine, theirs in zip(bank.state(at), lone_bank.state(0)):
                assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("n", [64, 10000])
    def test_adjacent_equal_particles_with_unequal_weights_stay_apart(self, n):
        def plant(particles, weights):
            particles[10:13] = 2.0
            weights[10:13] = [0.5 / n, 1.5 / n, 1.0 / n]

        banks = self.planted_banks(n, 1.2, 1, plant)
        banks[0].update([1.0, 2.5, 3.0, 0.5])
        for lone_bank in banks[1:]:
            lone_bank.update([2.5])
        # one gain and one normalizer for the three: their ratios hold
        _, weights = banks[0].state(1)
        assert weights[11] / weights[10] == pytest.approx(3.0, rel=1e-12)
        assert weights[12] / weights[10] == pytest.approx(2.0, rel=1e-12)
        readings = np.random.default_rng(n).uniform(-0.5, 4.5, (len(self.SEEDS), self.ROUNDS))
        self.assert_row_alone(banks, 1, readings)

    @pytest.mark.parametrize("n", [64, 10000])
    def test_a_row_that_never_resamples_beside_rows_that_do(self, n):
        # one run of N equal particles: N_eff stays N, whatever it reads
        def plant(particles, weights):
            particles[:] = 1.7

        banks = self.planted_banks(n, 0.3, 2, plant)
        readings = np.random.default_rng(n + 1).uniform(-0.5, 4.5, (len(self.SEEDS), self.ROUNDS))
        self.assert_row_alone(banks, 2, readings)
        assert banks[1].resamples == 0 < banks[0].resamples
        assert np.all(banks[0].state(2)[0] == 1.7)

    @pytest.mark.parametrize("n", [64, 10000])
    def test_a_row_that_collapses_mid_run(self, n):
        # noise 0.05 m: the row's particles sit in [3.9, 4.0], and a reading of
        # 0 m in round 10 gives them all gain exp(-3042) == 0
        def plant(particles, weights):
            particles[:] = np.linspace(3.9, 4.0, n)

        banks = self.planted_banks(n, 0.05, 3, plant)
        rng = np.random.default_rng(n + 2)
        readings = rng.uniform(-0.5, 4.5, (len(self.SEEDS), self.ROUNDS))
        readings[3, :10] = 3.95
        readings[3, 10] = 0.0
        self.assert_row_alone(banks, 3, readings)
        assert banks[1].reinitializations >= 1
        assert banks[0].reinitializations >= banks[1].reinitializations


    def test_rows_of_unequal_particle_counts(self):
        # Rows of N = 2, 7, 200, 1000 and 2000, each against the one-row bank
        # of its N and seed. Noise 0.05 m: a particle 1.93 m or more from a
        # reading has gain 0 or a subnormal one, so the N = 2 row collapses
        # now and then. Row 1 holds 7 equal particles at 1.7 m and reads
        # within 1 m of them, so its N_eff stays 7 and it never resamples.
        # Row 3 sits in [3.9, 4.0], reads 3.95 m, then 0 m in round 6 and
        # collapses. Even rounds are ragged and stepped by `run`; odd rounds
        # give every row one reading and are stepped by `update`.
        sizes, seeds = [2, 7, 200, 1000, 2000], [61, 62, 63, 64, 65]
        config = FilterConfig(measurement_noise_m=0.05)
        bank = ParticleBank(config, seeds, sizes)
        lone_banks = [
            ParticleBank(replace(config, particle_count=n), [seed]) for n, seed in zip(sizes, seeds)
        ]
        for row, plant in [(1, np.full(7, 1.7)), (3, np.linspace(3.9, 4.0, 1000))]:
            bank.set_state(row, particles=plant)
            lone_banks[row].set_state(0, particles=plant)
        rng = np.random.default_rng(66)
        for r in range(20):
            counts = rng.integers(0, 4, 5) if r % 2 == 0 else np.ones(5, dtype=int)
            counts[3] = max(counts[3], r == 6)
            rounds = [rng.uniform(-0.5, 4.5, c) for c in counts]
            rounds[1] = rng.uniform(0.7, 2.7, counts[1])
            rounds[3] = np.full(counts[3], 0.0 if r == 6 else 3.95)
            if r % 2:
                bank.update(np.concatenate(rounds))
            else:
                ends = np.cumsum(counts)
                bank.run(np.concatenate(rounds), np.stack([ends - counts, ends], axis=1))
            for lone_bank, values in zip(lone_banks, rounds):
                for z in values.tolist():
                    lone_bank.update([z])
            assert bank.means().tolist() == [b.means()[0] for b in lone_banks]
            for row, lone_bank in enumerate(lone_banks):
                for mine, theirs in zip(bank.state(row), lone_bank.state(0)):
                    assert mine.tobytes() == theirs.tobytes()
        assert lone_banks[1].resamples == 0 < lone_banks[4].resamples
        assert lone_banks[3].reinitializations >= 1 and lone_banks[0].reinitializations >= 1
        assert bank.reinitializations == sum(b.reinitializations for b in lone_banks)
        assert bank.resamples == sum(b.resamples for b in lone_banks)


class TestRunChecks:
    STARTS = np.array([[0, 2, 4], [4, 6, 8], [8, 10, 12]])

    def bank(self):
        return ParticleBank(FilterConfig(particle_count=50), [1, 2, 3])

    def test_nonfinite_reading_names_its_row_before_any_step(self):
        bank = self.bank()
        before = bank.state()
        readings = np.full(12, 2.0)
        readings[9] = math.nan
        with pytest.raises(ValueError, match=r"^filter row 2: measurement must be finite, got nan$"):
            bank.run(readings, self.STARTS)
        for after, array in zip(bank.state(), before):
            assert np.array_equal(after, array)

    def test_a_reading_no_row_reads_is_not_checked(self):
        readings = np.append(np.full(12, 2.0), math.inf)
        assert self.bank().run(readings, self.STARTS).shape == (3, 2)

    def test_out_of_range_readings_step_as_their_clamped_values(self):
        readings = np.random.default_rng(41).uniform(-3.0, 7.0, 12)
        clamped, raw = self.bank(), self.bank()
        assert raw.run(readings, self.STARTS).tobytes() == clamped.run(
            np.clip(readings, 0.0, 4.0), self.STARTS
        ).tobytes()
        for mine, theirs in zip(raw.state(), clamped.state()):
            assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("row", [-2, -1, 3])
    def test_state_and_set_state_refuse_a_row_outside_the_bank(self, row):
        bank = self.bank()
        before = bank.state()
        for call in (lambda: bank.state(row), lambda: bank.set_state(row, weights=0.02)):
            with pytest.raises(IndexError) as refused:
                call()
            assert str(refused.value) == f"filter row {row} outside a bank of 3 rows"
        for after, array in zip(bank.state(), before):
            assert np.array_equal(after, array)

    @pytest.mark.parametrize(
        "starts, error, message",
        [
            ([[0, 2], [2, 4], [4, 40]], IndexError,
             "filter row 2: starts[2, 1] = 40 is outside 0..12"),
            ([[0, 2], [-1, 4], [4, 6]], IndexError,
             "filter row 1: starts[1, 0] = -1 is outside 0..12"),
            ([[0, 2, 4], [4, 6, 8], [8, 12, 10]], ValueError,
             "filter row 2, round 1: starts decrease from 12 to 10"),
            ([[0.0, 2.0], [2.0, 4.0], [4.0, 6.0]], ValueError,
             "starts must be integers, got dtype float64"),
            ([[False, True], [True, True], [True, True]], ValueError,
             "starts must be integers, got dtype bool"),
        ],
        ids=["past-the-end", "negative", "decreasing", "float", "bool"],
    )
    def test_run_refuses_bad_starts_before_any_step(self, starts, error, message):
        bank = self.bank()
        before = bank.state()
        with pytest.raises(error) as refused:
            bank.run(np.full(12, 2.0), starts)
        assert str(refused.value) == message
        for after, array in zip(bank.state(), before):
            assert np.array_equal(after, array)

    def test_a_row_may_end_with_the_readings(self):
        starts = [[0, 2, 4], [4, 6, 8], [8, 12, 12]]
        assert self.bank().run(np.full(12, 2.0), starts).shape == (3, 2)

    def test_callers_ufunc_buffer_size_is_restored(self):
        bank = self.bank()
        readings = np.full(12, 2.0)
        caller = np.setbufsize(4096)
        try:
            bank.run(readings, self.STARTS)
            assert np.getbufsize() == 4096
            bank.update([1.0, 2.0, 3.0])
            assert np.getbufsize() == 4096
            with pytest.raises(ValueError):
                bank.update([1.0])
            assert np.getbufsize() == 4096
            with pytest.raises(IndexError):
                bank.run(readings, [[0, 2], [2, 4], [4, 40]])
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(caller)
