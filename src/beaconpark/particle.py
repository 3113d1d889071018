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
every weight. If the weights still collapse to zero, the filter
reinitializes uniformly and reports it.

ParticleBank is the one implementation: B filters as (B, N) arrays, one
numpy Generator per row, each seeded with that filter's own child seed.
The experiments step all the filters of a proximity cell, or of a
distance sweep at one particle count, as one bank. DistanceParticleFilter
is a one-row bank; a bank row evolves bit for bit as that lone filter.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class FilterConfig:
    """Filter tuning; the defaults are the calibrated working point."""

    particle_count: int = 1000
    beta: float = 0.5
    measurement_noise_m: float = 1.2
    state_min_m: float = 0.0
    state_max_m: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if self.particle_count < 2:
            raise ValueError(f"need at least 2 particles, got {self.particle_count}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if not self.measurement_noise_m > 0:
            raise ValueError("measurement noise must be positive")
        if not self.state_min_m < self.state_max_m:
            raise ValueError("state range is empty")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class DistanceEstimate:
    mean_m: float
    std_m: float
    effective_particles: float


@dataclass(frozen=True)
class UpdateOutcome:
    resampled: bool
    reinitialized: bool


@dataclass(frozen=True)
class TraceRow:
    step: int
    measurement_m: float
    mean_m: float
    std_m: float
    neff: float
    resampled: bool


class ParticleBank:
    """B filters of one config, held as (B, N) `particles` and `weights`.

    Row b draws from its own Generator, seeded with seeds[b] (config.seed
    is not used). `update` reweights, normalizes and measures N_eff of the
    rows it reaches as whole-array operations; a row that resamples or
    reinitializes then does so alone, with its own Generator. Row-wise
    sums add each row exactly as a 1-D sum does, so every row evolves bit
    for bit as a lone filter given the same seed and measurements.
    """

    def __init__(self, config: FilterConfig, seeds: Sequence[int]):
        if len(seeds) == 0:
            raise ValueError("a particle bank needs at least one seed")
        self.config = config
        self._rngs = [np.random.default_rng(seed) for seed in seeds]
        self._threshold = config.beta * config.particle_count
        self._rows = np.arange(len(seeds))
        self.particles = np.empty((len(seeds), config.particle_count))
        self.weights = np.empty((len(seeds), config.particle_count))
        for row in range(len(seeds)):
            self._reinitialize(row)

    def update(self, measurements_m, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """Reweight each of `rows` by its measurement, then resample if degenerate.

        `rows` are increasing row indices, one per measurement; None means
        every row. Returns two boolean arrays aligned with the measurements:
        which rows resampled, and which collapsed and were reinitialized.
        """
        cfg = self.config
        z = np.asarray(measurements_m, dtype=float)
        whole = rows is None or len(rows) == len(self._rows)
        rows = self._rows if rows is None else np.asarray(rows)
        if z.shape != rows.shape:
            raise ValueError(f"{z.size} measurements for {rows.size} filter rows")
        finite = np.isfinite(z)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"filter row {rows[bad]}: measurement must be finite, got {z[bad]}")
        z = np.minimum(np.maximum(z, cfg.state_min_m), cfg.state_max_m)
        selected = slice(None) if whole else rows
        weights = self.particles[selected] - z[:, None]
        np.square(weights, out=weights)
        weights *= -0.5
        weights /= cfg.measurement_noise_m**2
        np.exp(weights, out=weights)
        weights *= self.weights[selected]
        total = weights.sum(axis=1)
        collapsed = ~(np.isfinite(total) & (total > 0.0))
        # A collapsed row divides by zero here; it is reinitialized below.
        with np.errstate(divide="ignore", invalid="ignore"):
            weights /= total[:, None]
            resampled = ~collapsed & (self._effective(weights) < self._threshold)
        if whole:
            self.weights = weights
        else:
            self.weights[rows] = weights
        for row in rows[collapsed].tolist():
            self._reinitialize(row)
        for row in rows[resampled].tolist():
            self._resample(row)
        return resampled, collapsed

    def effective_particles(self) -> np.ndarray:
        """1 / sum(w^2) of every row: N for uniform weights, 1 for a point mass."""
        return self._effective(self.weights)

    def maybe_resample(self, row: int) -> bool:
        """Multinomially resample one row when its N_eff falls below beta * N."""
        if self._effective(self.weights[row : row + 1])[0] >= self._threshold:
            return False
        self._resample(row)
        return True

    def means(self) -> np.ndarray:
        """Weighted mean particle of every row."""
        return (self.weights * self.particles).sum(axis=1) / self.weights.sum(axis=1)

    @staticmethod
    def _effective(weights: np.ndarray) -> np.ndarray:
        return 1.0 / np.square(weights).sum(axis=1)

    def _resample(self, row: int) -> None:
        n = self.config.particle_count
        u = np.sort(self._rngs[row].random(n))
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


class DistanceParticleFilter:
    """Weighted particle set estimating one beacon's distance: a one-row bank.

    `particles` and `weights` are row 0 of the bank; assigning to them
    writes into that row.
    """

    def __init__(self, config: FilterConfig):
        self.config = config
        self.bank = ParticleBank(config, [config.seed])

    @property
    def particles(self) -> np.ndarray:
        return self.bank.particles[0]

    @particles.setter
    def particles(self, values) -> None:
        self.bank.particles[0] = values

    @property
    def weights(self) -> np.ndarray:
        return self.bank.weights[0]

    @weights.setter
    def weights(self, values) -> None:
        self.bank.weights[0] = values

    def update(self, measurement_m: float) -> UpdateOutcome:
        """Reweight by one measurement, then resample if degenerate."""
        resampled, reinitialized = self.bank.update([measurement_m])
        return UpdateOutcome(resampled=bool(resampled[0]), reinitialized=bool(reinitialized[0]))

    def effective_particles(self) -> float:
        """1 / sum(w^2): N for uniform weights, 1 for a point mass."""
        return float(self.bank.effective_particles()[0])

    def maybe_resample(self) -> bool:
        """Multinomial resample when N_eff falls below beta * N."""
        return self.bank.maybe_resample(0)

    def estimate(self) -> DistanceEstimate:
        """Weighted mean and weighted standard deviation of the particles.

        The deviation is measured about the weighted mean and divides by
        (N'-1)/N' * sum(w), N' being the number of non-zero weights.
        """
        weights, particles = self.weights, self.particles
        mean = float(self.bank.means()[0])
        nonzero = int(np.count_nonzero(weights))
        if nonzero < 2:
            std = 0.0
        else:
            spread = float(np.sum(weights * (particles - mean) ** 2))
            std = math.sqrt(spread / ((nonzero - 1) / nonzero * float(weights.sum())))
        return DistanceEstimate(
            mean_m=mean, std_m=std, effective_particles=self.effective_particles()
        )


def trace_updates(
    flt: DistanceParticleFilter, measurements_m, start_step: int = 0
) -> list[TraceRow]:
    """Run a measurement sequence, recording one trace row per update."""
    rows = []
    for i, z in enumerate(measurements_m, start=start_step):
        outcome = flt.update(z)
        est = flt.estimate()
        rows.append(
            TraceRow(
                step=i,
                measurement_m=float(z),
                mean_m=est.mean_m,
                std_m=est.std_m,
                neff=est.effective_particles,
                resampled=outcome.resampled,
            )
        )
    return rows


def write_filter_trace(path, rows: list[TraceRow]) -> None:
    """CSV trace: step,measurement_m,mean_m,std_m,neff,resampled."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "measurement_m", "mean_m", "std_m", "neff", "resampled"])
        for r in rows:
            writer.writerow(
                [
                    r.step,
                    f"{r.measurement_m:.6f}",
                    f"{r.mean_m:.6f}",
                    f"{r.std_m:.6f}",
                    f"{r.neff:.6f}",
                    int(r.resampled),
                ]
            )
