"""One-dimensional bootstrap particle filter over beacon distance.

The filter tracks a static distance in meters. There is no motion model:
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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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


class DistanceParticleFilter:
    """Weighted particle set estimating one beacon's distance."""

    def __init__(self, config: FilterConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.particles = self._rng.uniform(
            config.state_min_m, config.state_max_m, config.particle_count
        )
        self.weights = np.full(config.particle_count, 1.0 / config.particle_count)

    def update(self, measurement_m: float) -> UpdateOutcome:
        """Reweight by one measurement, then resample if degenerate."""
        if not math.isfinite(measurement_m):
            raise ValueError(f"measurement must be finite, got {measurement_m}")
        cfg = self.config
        z = min(max(measurement_m, cfg.state_min_m), cfg.state_max_m)
        gain = np.exp(
            -0.5 * (self.particles - z) ** 2 / cfg.measurement_noise_m**2
        )
        weights = self.weights * gain
        total = float(weights.sum())
        if total <= 0.0 or not math.isfinite(total):
            self._reinitialize()
            return UpdateOutcome(resampled=False, reinitialized=True)
        self.weights = weights / total
        return UpdateOutcome(resampled=self.maybe_resample(), reinitialized=False)

    def effective_particles(self) -> float:
        """1 / sum(w^2): N for uniform weights, 1 for a point mass."""
        return float(1.0 / np.sum(self.weights**2))

    def maybe_resample(self) -> bool:
        """Multinomial resample when N_eff falls below beta * N."""
        n = self.config.particle_count
        if self.effective_particles() >= self.config.beta * n:
            return False
        u = np.sort(self._rng.random(n))
        cumulative = np.cumsum(self.weights)
        cumulative[-1] = 1.0  # guard the inverse-CDF lookup against rounding
        indices = np.searchsorted(cumulative, u)
        self.particles = self.particles[indices]
        self.weights = np.full(n, 1.0 / n)
        return True

    def estimate(self) -> DistanceEstimate:
        """Weighted mean and weighted standard deviation of the particles.

        The deviation is measured about the weighted mean and divides by
        (N'-1)/N' * sum(w), N' being the number of non-zero weights.
        """
        total = float(self.weights.sum())
        mean = float(np.sum(self.weights * self.particles) / total)
        nonzero = int(np.count_nonzero(self.weights))
        if nonzero < 2:
            std = 0.0
        else:
            spread = float(np.sum(self.weights * (self.particles - mean) ** 2))
            std = math.sqrt(spread / ((nonzero - 1) / nonzero * total))
        return DistanceEstimate(
            mean_m=mean, std_m=std, effective_particles=self.effective_particles()
        )

    def _reinitialize(self) -> None:
        cfg = self.config
        self.particles = self._rng.uniform(
            cfg.state_min_m, cfg.state_max_m, cfg.particle_count
        )
        self.weights = np.full(cfg.particle_count, 1.0 / cfg.particle_count)


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
