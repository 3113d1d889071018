"""One-dimensional bootstrap particle filters over beacon distance.

A filter tracks a static distance in meters. There is no motion model:
particles are drawn once, uniformly over the state range, and only their
weights evolve. Each measurement multiplies every weight by a Gaussian
gain exp(-0.5 * (particle - z)^2 / noise^2); weights are renormalized and
the particle set is multinomially resampled whenever the effective
particle count 1/sum(w^2) drops below beta * N.

Measurements are distances in meters (convert RSSI with
pathloss.estimate_distance first); values outside the state range are
clamped to it before weighting, which keeps a stray spike from zeroing
every weight. If the weights still collapse to zero, or their total
overflows, the filter reinitializes uniformly and reports it.

ParticleBank is the filter API: B filters as (B, N) arrays, one numpy
Generator per row, each seeded with that filter's own child seed. One
filter is a one-row bank, and a row of a B-row bank evolves bit for bit as
the one-row bank of its seed. The experiments step every filter of a
proximity grid (all beacons of all cells), or of a distance sweep at one
particle count, as one bank, through rounds of ragged readings
(ParticleBank.run). A bank steps in place: besides `particles` and
`weights` it owns one (B, N) work buffer, which holds the gains, so a step
allocates no (B, N) temporaries.

Every step steps every row. In a sub-step of `run` that has readings for
only some rows, a row without one reads 0.0, and its gains and its weight
total are set to 1.0 after the exp and the row sum: its weights keep their
bits, it cannot collapse, and its resample flag is masked off.

A step makes eight passes over the (B, N) arrays: subtract each
row's measurement, square, multiply by the precomputed -0.5 / noise^2,
exp, multiply into the weights, row sum, multiply by the row reciprocals
1 / total, and one row dot w . w for N_eff. No pass divides: on numpy
2.4.6 at 75 x 1000 a division costs about twice a multiply (51 us against
21 us by the scalar, 55 us against 24 us by the row totals). The one
exception is a row whose total is positive but subnormal, whose
reciprocal may overflow: it divides, on a slow path taken only when some
total is subnormal, zero or not finite (a collapse). The row dots, N_eff
and the numerator of `means`, are each one einsum pass that writes no
(B, N) temporary (25 us against 38 us for square then row sum); the
normalizing total and the denominator of `means` stay pairwise row sums.
einsum gives a row of up to 8192 particles the same bits whatever rows
surround it, but sums a lone longer row in chunks; such long rows take
their dots as a product into the work buffer and a pairwise row sum.

Two passes broadcast one value per row (`particles - z[:, None]` and
`weights * (1 / total)[:, None]`). While two or more rows fit in numpy's
ufunc buffer (8192 elements by default), numpy's iterator copies the
broadcast operand into that buffer, chunk by chunk, and those passes then
cost about three times their arithmetic: 63-70 us and 66-69 us at
75 x 1000, against 20 us and 24 us with the buffer at 16 elements
(_STEP_BUFSIZE). So `run` and `update` step with that buffer size and
restore the caller's size on the way out. Elementwise IEEE results do not
depend on the chunking, and the row sums, cumsums and einsum row dots
give the same bits at either size. `run` also checks and clamps all
readings once, not once per step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# ufunc buffer size, in elements, while a bank steps (see the module docstring).
_STEP_BUFSIZE = 16

# The smallest positive normal float: a row total below it may have no finite
# reciprocal, so that row normalizes by division.
_SMALLEST_NORMAL = sys.float_info.min

# einsum takes a row of up to this many elements in one pass, whatever the rows
# around it, but sums a lone longer row in chunks of this size (numpy 2.4).
_EINSUM_ROW_MAX = 8192


@dataclass(frozen=True)
class FilterConfig:
    """Filter tuning; the defaults are the calibrated working point."""

    particle_count: int = 1000
    beta: float = 0.5
    measurement_noise_m: float = 1.2
    state_min_m: float = 0.0
    state_max_m: float = 4.0

    def __post_init__(self):
        if self.particle_count < 2:
            raise ValueError(f"need at least 2 particles, got {self.particle_count}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        try:  # ParticleBank's gain scale; noise**2 may under- or overflow
            scale = -0.5 / self.measurement_noise_m**2
        except (ZeroDivisionError, OverflowError):
            scale = math.nan
        if not (self.measurement_noise_m > 0 and math.isfinite(scale)):
            raise ValueError("measurement_noise_m must be positive, with finite -0.5 / noise**2")
        if not 0.0 < self.state_max_m - self.state_min_m < math.inf:
            raise ValueError("state_max_m - state_min_m must be positive and finite")


class ParticleBank:
    """B filters of one config, held as (B, N) `particles` and `weights`.

    Row b draws from its own Generator, seeded with seeds[b]. A step
    reweights, normalizes and measures N_eff of every row as whole-array
    operations; a row that resamples or reinitializes then
    does so alone, with its own Generator. Row-wise sums and row dots
    add each row exactly as they add a lone row, so every row evolves bit
    for bit as a one-row bank given the same seed and measurements.

    The bank owns a third (B, N) array, `_work`, free between operations.
    A step computes the gains in it and multiplies them into `weights` in
    place. Only rows longer than _EINSUM_ROW_MAX use it for the products
    of N_eff and `means`.
    """

    def __init__(self, config: FilterConfig, seeds: Sequence[int]):
        if len(seeds) == 0:
            raise ValueError("a particle bank needs at least one seed")
        self.config = config
        self._rngs = [np.random.default_rng(seed) for seed in seeds]
        self._threshold = config.beta * config.particle_count
        self._gain_scale = -0.5 / config.measurement_noise_m**2
        shape = (len(seeds), config.particle_count)
        self.particles = np.empty(shape)
        self.weights = np.empty(shape)
        self._work = np.empty(shape)
        for row in range(len(seeds)):
            self._reinitialize(row)

    def update(self, measurements_m) -> tuple[np.ndarray, np.ndarray]:
        """Reweight every row by its own measurement, then resample if degenerate.

        Takes one measurement per row; a non-finite one raises ValueError
        before any row steps. Returns two boolean arrays, one entry per
        row: which rows resampled, and which collapsed and were
        reinitialized.
        """
        z = np.asarray(measurements_m, dtype=float)
        if z.shape != (len(self._rngs),):
            raise ValueError(f"measurements of shape {z.shape} for {len(self._rngs)} filter rows")
        finite = np.isfinite(z)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"filter row {bad}: measurement must be finite, got {z[bad]}")
        bufsize = np.setbufsize(_STEP_BUFSIZE)
        try:
            return self._step(self._clamp(z), None)
        finally:
            np.setbufsize(bufsize)

    def run(self, readings, starts) -> np.ndarray:
        """Step the rows through rounds of ragged readings; return the (B, rounds) means.

        `readings` holds every row's measurements, row after row.
        starts[b, r] is the index in `readings` of row b's first reading in
        round r; the last column is one past the row's last reading.
        Sub-step k of a round steps every row; a row without a k-th
        reading in the round takes gain 1 and keeps its state. The means are
        taken after each round. A start outside `readings` raises
        IndexError, and starts that decrease ValueError, before any step.
        """
        readings = np.asarray(readings, dtype=float)
        starts = np.asarray(starts)
        if starts.ndim != 2 or starts.shape[0] != len(self._rngs):
            raise ValueError(f"starts of shape {starts.shape} for {len(self._rngs)} filter rows")
        outside = (starts < 0) | (starts > len(readings))
        if outside.any():
            b, c = np.argwhere(outside)[0].tolist()
            raise IndexError(
                f"filter row {b}: starts[{b}, {c}] = {starts[b, c]} is outside 0..{len(readings)}"
            )
        counts = np.diff(starts, axis=1)
        if (counts < 0).any():
            b, r = np.argwhere(counts < 0)[0].tolist()
            raise ValueError(
                f"filter row {b}, round {r}:"
                f" starts decrease from {starts[b, r]} to {starts[b, r + 1]}"
            )
        # Every check and clamp happens here, once; a non-finite reading is
        # an error only if some row reads it.
        for i in np.flatnonzero(~np.isfinite(readings)).tolist():
            owners = np.flatnonzero((starts[:, 0] <= i) & (i < starts[:, -1]))
            if owners.size:
                raise ValueError(
                    f"filter row {owners[0]}: measurement must be finite, got {readings[i]}"
                )
        z = np.append(self._clamp(readings), 0.0)  # z[-1] is read by rows without a reading
        means = np.empty(counts.shape)
        bufsize = np.setbufsize(_STEP_BUFSIZE)
        try:
            for r, most_r in enumerate(counts.max(axis=0).tolist()):
                for k in range(most_r):
                    reads = counts[:, r] > k
                    z_k = z[np.where(reads, starts[:, r] + k, -1)]
                    self._step(z_k, None if reads.all() else reads)
                means[:, r] = self.means()
        finally:
            np.setbufsize(bufsize)
        return means

    def effective_particles(self) -> np.ndarray:
        """1 / sum(w^2) of every row: N for uniform weights, 1 for a point mass."""
        return self._effective(self.weights, self._work)

    def maybe_resample(self, row: int) -> bool:
        """Multinomially resample one row when its N_eff falls below beta * N."""
        if not 0 <= row < len(self._rngs):
            raise IndexError(f"filter row {row} outside a bank of {len(self._rngs)} rows")
        if self._effective(self.weights[row : row + 1], self._work[:1])[0] >= self._threshold:
            return False
        self._resample(row)
        return True

    def means(self) -> np.ndarray:
        """Weighted mean particle of every row."""
        weighted = self._row_dots(self.weights, self.particles, self._work)
        return weighted / self.weights.sum(axis=1)

    def _clamp(self, z: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(z, self.config.state_min_m), self.config.state_max_m)

    def _step(self, z: np.ndarray, reads) -> tuple[np.ndarray, np.ndarray]:
        """Step finite, clamped measurements into every row, or into the rows of the mask `reads`.

        A row outside `reads` takes gain 1 and normalizer 1: its weights keep
        their bits, and it neither collapses nor resamples.
        """
        gains = np.subtract(self.particles, z[:, None], out=self._work)
        np.square(gains, out=gains)
        gains *= self._gain_scale
        np.exp(gains, out=gains)
        if reads is not None:
            gains[~reads] = 1.0
        self.weights *= gains
        with np.errstate(over="ignore"):  # a total past the largest float is a collapse
            total = self.weights.sum(axis=1)
        if reads is not None:
            total[~reads] = 1.0
        # the ufunc reductions skip the Python wrappers of total.min() and .max()
        fast = _SMALLEST_NORMAL <= np.minimum.reduce(total) and np.maximum.reduce(total) < math.inf
        if fast:
            self.weights *= (1.0 / total)[:, None]
            collapsed = np.zeros(len(total), dtype=bool)
        else:
            collapsed = self._normalize_slowly(total)
        # the gains are spent: a long row's squares may go into their buffer
        resampled = self._effective(self.weights, gains) < self._threshold
        if reads is not None:
            resampled &= reads
        if not fast:
            resampled &= ~collapsed
            for row in np.flatnonzero(collapsed).tolist():
                self._reinitialize(row)
        for row in np.flatnonzero(resampled).tolist():
            self._resample(row)
        return resampled, collapsed

    def _normalize_slowly(self, total: np.ndarray) -> np.ndarray:
        """Normalize rows that include a collapsed or subnormal total; return the collapsed."""
        collapsed = ~(np.isfinite(total) & (total > 0.0))
        # Reinitialized by the caller; uniform until then, so no row divides by zero.
        self.weights[collapsed] = 1.0
        total[collapsed] = self.config.particle_count
        # The reciprocal of a subnormal total can overflow: those rows divide.
        small = total < _SMALLEST_NORMAL
        self.weights *= (1.0 / np.where(small, 1.0, total))[:, None]
        self.weights[small] /= total[small, None]
        return collapsed

    def _effective(self, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
        """1 / sum(w^2) per row; `out` is a free buffer or `weights` itself."""
        return 1.0 / self._row_dots(weights, weights, out)

    def _row_dots(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """sum(a * b) per row, each row's bits independent of the rows around it.

        One einsum pass; a row longer than _EINSUM_ROW_MAX multiplies into
        `out` instead and sums pairwise, as a lone einsum row would not match.
        """
        if self.config.particle_count <= _EINSUM_ROW_MAX:
            return np.einsum("ij,ij->i", a, b)
        return np.multiply(a, b, out=out).sum(axis=1)

    def _resample(self, row: int) -> None:
        n = self.config.particle_count
        u = self._rngs[row].random(n)
        u.sort()
        cumulative = np.cumsum(self.weights[row])
        cumulative[-1] = 1.0  # guard the inverse-CDF lookup against rounding
        self.particles[row] = self.particles[row][np.searchsorted(cumulative, u)]
        self.weights[row] = 1.0 / n

    def _reinitialize(self, row: int) -> None:
        cfg = self.config
        self.particles[row] = self._rngs[row].uniform(
            cfg.state_min_m, cfg.state_max_m, cfg.particle_count
        )
        self.weights[row] = 1.0 / cfg.particle_count


@dataclass(frozen=True)
class DistanceEstimate:
    mean_m: float
    std_m: float
    effective_particles: float


@dataclass(frozen=True)
class UpdateOutcome:
    resampled: bool
    reinitialized: bool


class DistanceParticleFilter:
    """One filter as a one-row bank, with a weighted standard deviation.

    Nothing in beaconpark calls it: the benchmark's tracer (bench/tracing.py)
    binds it by name, and it goes, with the two records above, once the
    tracer wraps ParticleBank instead (ROADMAP item 1).
    """

    def __init__(self, config: FilterConfig, seed: int):
        self.config = config
        self.bank = ParticleBank(config, [seed])

    def update(self, measurement_m: float) -> UpdateOutcome:
        """Reweight by one measurement, then resample if degenerate."""
        resampled, reinitialized = self.bank.update([measurement_m])
        return UpdateOutcome(resampled=bool(resampled[0]), reinitialized=bool(reinitialized[0]))

    def estimate(self) -> DistanceEstimate:
        """Weighted mean and weighted standard deviation of the particles.

        The deviation is measured about the weighted mean and divides by
        (N'-1)/N' * sum(w), N' being the number of non-zero weights.
        """
        weights, particles = self.bank.weights[0], self.bank.particles[0]
        mean = float(self.bank.means()[0])
        nonzero = int(np.count_nonzero(weights))
        if nonzero < 2:
            std = 0.0
        else:
            spread = float(np.sum(weights * (particles - mean) ** 2))
            std = math.sqrt(spread / ((nonzero - 1) / nonzero * float(weights.sum())))
        effective = float(self.bank.effective_particles()[0])
        return DistanceEstimate(mean_m=mean, std_m=std, effective_particles=effective)
