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

ParticleBank is the filter API: B filters of one config, one numpy
Generator per row, each seeded with that filter's own child seed, and a
particle count N per row (the config's unless given). One filter is a
one-row bank, and a row of a B-row bank evolves bit for bit as the one-row
bank of its N and seed. The experiments step every filter of a proximity
grid (all beacons of all cells), or of up to BANK_SLOTS particles of a
distance sweep's several particle counts (simulate.py), as one bank,
through rounds of ragged readings (ParticleBank.run).

The bank steps runs, not particles. Particles never move between
resamples, and a resample copies each chosen particle into adjacent slots,
so a row soon holds a few hundred maximal runs of equal (particle, weight)
among its N particles: sample impoverishment. The runs are 18.4% of the
particle-steps of the shipped indoor proximity grid and 26.9% of those of
its distance sweep. The runs are the bank's state between calls: values
v, weights w and counts c in three flat arrays that hold exactly the live
runs, row after row, with no gaps and no spare room, plus each row's run
count and head (its first run). A row's runs are made when it is drawn,
resampled, reinitialized or set, and never split again. `state` expands
them into read-only copies of the particles and weights, and `set_state`
sets those and splits the rows it sets into runs.

A step makes one pass over the runs of the whole bank for each of: the
readings repeated over each row's runs, subtract, square, multiply by the
precomputed -0.5 / noise^2, exp, multiply into w, c * w, the normalizers
1 / total repeated likewise, multiply into w, c * w, and times w; where
every run has count 1, c * w is w itself and is not formed. The
count-weighted row sums (the total sum(c * w), N_eff as
1 / sum((c * w) * w), and `means`' sum((c * w) * v) / sum(c * w)) are
np.add.reduceat at the rows' heads, which adds a row the same way wherever
it lies, so a row's bits depend only on that row. `effective_particles`
and `maybe_resample` take the same sums.

A resample draws and sorts the row's N uniforms, then searches each
run's cumulative mass among them: a run's count is the number of
uniforms at or below its cumulative mass, less those at or below the run
before it, which are the picks a search of each uniform in the cumulative
masses makes. The picked runs become the row's new runs.

Every change to a row is laid out before the call that made it returns.
A step's resamples and reinitializations, and those of `maybe_resample`
(which resamples every row whose N_eff is below beta * N), take one path:
each renewed row draws its new runs from its own Generator, then all of
them are laid out at once, with one np.concatenate per array of the
unchanged spans between the renewed rows and their new runs. `set_state`
lays out the one row it sets the same way; setting every row replaces the
arrays, as a fresh bank lays out every row's draws in one pass.

Rows may hold unequal N: each row's threshold beta * N, weight 1 / N and
N uniforms are its own. No pass divides: 1 / total is taken per row. The
one exception is a row whose total is positive but subnormal, whose
reciprocal may overflow: it divides, on a slow path taken only when some
total is subnormal, zero or not finite (a collapse).

Every step steps every row. In a sub-step of `run` that has readings for
only some rows, a row without one reads 0.0, and its gains and its weight
total are set to 1.0 after the exp and the row sum: its weights keep their
bits, it cannot collapse, and its resample flag is masked off. `run` also
checks and clamps all readings once, not once per step.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import Sequence

import numpy as np

# The smallest positive normal float: a row total below it may have no finite
# reciprocal, so that row normalizes by division.
_SMALLEST_NORMAL = sys.float_info.min


class FilterConfig(
    namedtuple("FilterConfig", "particle_count beta measurement_noise_m state_min_m state_max_m")
):
    """Filter tuning; the defaults are the calibrated working point."""

    __slots__ = ()

    def __new__(
        cls,
        particle_count: int = 1000,
        beta: float = 0.5,
        measurement_noise_m: float = 1.2,
        state_min_m: float = 0.0,
        state_max_m: float = 4.0,
    ):
        if particle_count < 2:
            raise ValueError(f"need at least 2 particles, got {particle_count}")
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        try:  # ParticleBank's gain scale; noise**2 may under- or overflow
            scale = -0.5 / measurement_noise_m**2
        except (ZeroDivisionError, OverflowError):
            scale = math.nan
        if not (measurement_noise_m > 0 and math.isfinite(scale)):
            raise ValueError("measurement_noise_m must be positive, with finite -0.5 / noise**2")
        if not 0.0 < state_max_m - state_min_m < math.inf:
            raise ValueError("state_max_m - state_min_m must be positive and finite")
        return super().__new__(
            cls, particle_count, beta, measurement_noise_m, state_min_m, state_max_m
        )

    @classmethod
    def _make(cls, iterable):
        """Build through __new__, so that `_replace` runs the checks too."""
        return cls(*iterable)


def _maximal(values, weights, counts, firsts):
    """Join adjacent runs of equal (value, weight) into maximal runs, rows apart.

    `values`, `weights` and `counts` hold runs of one or more rows, row
    after row; `firsts` indexes each row's first run, which never joins the
    run before it. Returns the maximal runs' values, weights and counts,
    and the index of each row's first run among them.
    """
    head = np.empty(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=head[1:])
    head[1:] |= weights[1:] != weights[:-1]
    head[firsts] = True
    if head.all():
        return values, weights, counts, firsts
    heads = np.flatnonzero(head)
    return values[heads], weights[heads], np.add.reduceat(counts, heads), heads.searchsorted(firsts)


class ParticleBank:
    """B filters of one config, held as runs of equal (particle, weight).

    Row b draws from its own Generator, seeded with seeds[b], and holds
    particle_counts[b] particles: config.particle_count unless the counts
    are given. `run` and `update` step the runs of all rows as flat arrays;
    a row that resamples or reinitializes then does so alone, with its own
    Generator and its own N. Count-weighted row sums add each row exactly
    as they add a lone row, so every row evolves bit for bit as a one-row
    bank of its N given the same seed and measurements.

    The runs are the state between calls: `_values`, `_weights` and
    `_counts` hold exactly the live runs, row after row, and row b's are
    the `_lengths[b]` runs from `_heads[b]`. A row whose runs change is laid
    out anew before the call that changed it returns. `state` expands the
    runs into read-only copies of the particles and weights, and
    `set_state` sets those, splitting the rows it sets into runs afresh.

    The counters `steps`, `resamples`, `reinitializations`,
    `particle_steps` (the bank's particles per step) and `run_steps` (the
    runs a step covers) count the bank's work since it was made.
    """

    def __init__(self, config: FilterConfig, seeds: Sequence[int], particle_counts=None):
        if len(seeds) == 0:
            raise ValueError("a particle bank needs at least one seed")
        sizes = np.asarray(
            [config.particle_count] * len(seeds) if particle_counts is None else particle_counts
        )
        if sizes.shape != (len(seeds),) or sizes.dtype.kind not in "iu" or sizes.min() < 2:
            raise ValueError(
                f"need one particle count of at least 2 per filter row, got {particle_counts!r}"
            )
        self.config = config
        self.particle_counts = tuple(sizes.tolist())
        self._sizes = sizes.astype(np.intp)
        self._particles = int(sizes.sum())
        self._rngs = [np.random.default_rng(seed) for seed in seeds]
        self._threshold = config.beta * sizes  # beta * N per row
        self._gain_scale = -0.5 / config.measurement_noise_m**2
        self.steps = self.resamples = self.reinitializations = 0
        self.particle_steps = self.run_steps = 0
        self._values, self._weights, self._counts, self._heads = self._fresh(range(len(seeds)))
        self._lengths = np.diff(self._heads, append=len(self._values))

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
        return self._step(self._clamp(z), None)

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
        if starts.dtype.kind not in "iu":
            raise ValueError(f"starts must be integers, got dtype {starts.dtype}")
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
        for r, most_r in enumerate(counts.max(axis=0).tolist()):
            for k in range(most_r):
                reads = counts[:, r] > k
                self._step(z[np.where(reads, starts[:, r] + k, -1)], None if reads.all() else reads)
            means[:, r] = self.means()
        return means

    def effective_particles(self) -> np.ndarray:
        """1 / sum(w^2) of every row: N for uniform weights, 1 for a point mass."""
        return self._rescale(np.ones(len(self._rngs)))  # times 1 keeps every weight's bits

    def maybe_resample(self) -> np.ndarray:
        """Multinomially resample every row whose N_eff is below beta * N; return which did."""
        resampled = self.effective_particles() < self._threshold
        self._renew(resampled, np.zeros_like(resampled))
        return resampled

    def means(self) -> np.ndarray:
        """Weighted mean particle of every row: sum((c * w) * v) / sum(c * w)."""
        singles = self._singles()
        masses = self._weights if singles else self._counts * self._weights
        total = np.add.reduceat(masses, self._heads)
        moments = np.multiply(masses, self._values, out=None if singles else masses)
        return np.add.reduceat(moments, self._heads) / total

    def state(self, row: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Read-only copies of the particles and weights, expanded from the runs.

        Of one row, as two 1-D arrays; or, with no row, of every row, as two
        (B, N) arrays, which takes rows of one particle count.
        """
        if row is None:
            if len(set(self.particle_counts)) > 1:
                raise ValueError("rows of unequal particle counts have no (B, N) state; name a row")
            runs, shape = (self._values, self._weights, self._counts), (len(self._rngs), -1)
        else:
            self._check_row(row)
            runs, shape = self._row(row), -1
        counts = runs[2].astype(np.intp)
        expanded = tuple(np.repeat(x, counts).reshape(shape) for x in runs[:2])
        for array in expanded:
            array.flags.writeable = False
        return expanded

    def set_state(self, row: int | None = None, particles=None, weights=None) -> None:
        """Set the particles, the weights or both, of one row or of every row.

        The values broadcast against the arrays that `state(row)` returns.
        Each row set is split into its maximal runs afresh; the other rows
        keep their runs.
        """
        new = [np.array(array) for array in self.state(row)]
        for array, value in zip(new, (particles, weights)):
            if value is not None:
                array[...] = value
        p, w = (array.ravel() for array in new)
        if row is not None:
            self._lay_out([row], [_maximal(p, w, np.ones(len(p)), [0])[:3]])
            return
        runs = _maximal(p, w, np.ones(len(p)), np.cumsum(self._sizes) - self._sizes)
        self._values, self._weights, self._counts, self._heads = runs
        self._lengths = np.diff(self._heads, append=len(self._values))

    def _check_row(self, row: int) -> None:
        if not 0 <= row < len(self._rngs):
            raise IndexError(f"filter row {row} outside a bank of {len(self._rngs)} rows")

    def _clamp(self, z: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(z, self.config.state_min_m), self.config.state_max_m)

    def _singles(self) -> bool:
        """Whether every run has count 1, so that c * w is w itself."""
        return len(self._values) == self._particles

    def _row(self, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row b's runs (values, weights, counts), as views of the bank's arrays."""
        at = self._heads[b]
        end = at + self._lengths[b]
        return self._values[at:end], self._weights[at:end], self._counts[at:end]

    def _fresh(self, rows) -> tuple:
        """Uniform draws of the rows' N particles, as maximal runs of weight 1 / N.

        Returns the runs of every row, row after row, as `_maximal` does.
        """
        cfg, sizes = self.config, self._sizes[rows]
        draws = [
            self._rngs[b].uniform(cfg.state_min_m, cfg.state_max_m, n)
            for b, n in zip(rows, sizes.tolist())
        ]
        weights, heads = np.repeat(1.0 / sizes, sizes), np.cumsum(sizes) - sizes
        return _maximal(np.concatenate(draws), weights, np.ones(len(weights)), heads)

    def _renew(self, resampled: np.ndarray, collapsed: np.ndarray) -> None:
        """Resample the rows of the mask `resampled` and redraw those of `collapsed`.

        Each row draws from its own Generator; then every renewed row's new
        runs are laid out at once.
        """
        rows = np.flatnonzero(resampled | collapsed).tolist()
        if rows:
            self.resamples += int(np.count_nonzero(resampled))
            self.reinitializations += int(np.count_nonzero(collapsed))
            new = [self._fresh([b])[:3] if collapsed[b] else self._resample(b) for b in rows]
            self._lay_out(rows, new)

    def _lay_out(self, rows, new) -> None:
        """Give each of the ascending `rows` its new runs: one np.concatenate per array.

        `new` holds each row's (values, weights, counts). Each array's parts
        are the spans of the other rows between the given ones and the given
        rows' new runs; the old array is freed before the next array is laid
        out.
        """
        heads = self._heads[rows]
        starts = [0, *(heads + self._lengths[rows]).tolist()]
        stops = [*heads.tolist(), len(self._values)]
        for i, name in enumerate(("_values", "_weights", "_counts")):
            old = getattr(self, name)
            parts = [old[: stops[0]]]
            for runs, start, stop in zip(new, starts[1:], stops[1:]):
                parts += runs[i], old[start:stop]
            setattr(self, name, np.concatenate(parts))
        self._lengths[rows] = [len(runs[0]) for runs in new]
        self._heads = np.cumsum(self._lengths) - self._lengths

    def _step(self, z: np.ndarray, reads) -> tuple[np.ndarray, np.ndarray]:
        """Step finite, clamped measurements into every row, or into the rows of the mask `reads`.

        A row outside `reads` takes gain 1 and normalizer 1: its weights keep
        their bits, and it neither collapses nor resamples.
        """
        gains = z.repeat(self._lengths)
        np.subtract(self._values, gains, out=gains)
        np.square(gains, out=gains)
        gains *= self._gain_scale
        np.exp(gains, out=gains)
        if reads is not None:
            gains[(~reads).repeat(self._lengths)] = 1.0
        self._weights *= gains
        with np.errstate(over="ignore"):  # a total past the largest float is a collapse
            masses = self._weights
            if not self._singles():
                masses = np.multiply(self._counts, masses, out=gains)
            total = np.add.reduceat(masses, self._heads)
        del gains, masses
        if reads is not None:
            total[~reads] = 1.0
        # the ufunc reductions skip the Python wrappers of total.min() and .max()
        fast = _SMALLEST_NORMAL <= np.minimum.reduce(total) and np.maximum.reduce(total) < math.inf
        if fast:
            scale, collapsed = 1.0 / total, np.zeros(len(total), dtype=bool)
        else:
            scale, collapsed = self._normalize_slowly(total)
        resampled = self._rescale(scale) < self._threshold
        if reads is not None:
            resampled &= reads
        resampled &= ~collapsed
        self.steps += 1
        self.particle_steps += self._particles
        self.run_steps += len(self._values)
        self._renew(resampled, collapsed)
        return resampled, collapsed

    def _normalize_slowly(self, total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalize rows that include a collapsed or subnormal total.

        Returns the factors that the step multiplies each row's weights by,
        and which rows collapsed; the caller reinitializes those.
        """
        collapsed = ~(np.isfinite(total) & (total > 0.0))
        self._weights[collapsed.repeat(self._lengths)] = 1.0  # uniform until reinitialized
        total[collapsed] = self._sizes[collapsed]
        # The reciprocal of a subnormal total can overflow: those rows divide.
        small = total < _SMALLEST_NORMAL
        runs = small.repeat(self._lengths)
        self._weights[runs] /= total.repeat(self._lengths)[runs]
        return 1.0 / np.where(small, 1.0, total), collapsed

    def _rescale(self, factors: np.ndarray) -> np.ndarray:
        """Multiply each row's weights by its factor; return each row's N_eff.

        N_eff is 1 / sum((c * w) * w), taken after the multiply.
        """
        products = factors.repeat(self._lengths)
        self._weights *= products
        singles = self._singles()
        np.multiply(self._weights if singles else self._counts, self._weights, out=products)
        if not singles:
            products *= self._weights
        return 1.0 / np.add.reduceat(products, self._heads)

    def _resample(self, row: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Multinomially draw the row's N particles from its runs; return them as its new runs.

        The row's N uniforms are drawn and sorted as a search of each
        uniform in the cumulative masses c * w takes them. Here each run's
        cumulative mass is searched among the uniforms instead: a run's
        count is the number of uniforms at or below its cumulative mass,
        less those at or below the run before it, which are the same picks.
        """
        values, weights, counts = self._row(row)
        n = self.particle_counts[row]
        u = self._rngs[row].random(n)
        u.sort()
        cumulative = np.cumsum(counts * weights)
        cumulative[-1] = 1.0  # guard the inverse-CDF lookup against rounding
        picks = np.searchsorted(u, cumulative, side="right")
        picks[1:] -= picks[:-1]  # numpy reads an overlapping operand before writing
        picked = picks.nonzero()[0]
        runs = values[picked], np.full(len(picked), 1.0 / n), picks[picked].astype(float)
        return _maximal(*runs, [0])[:3]


DistanceEstimate = namedtuple("DistanceEstimate", "mean_m std_m effective_particles")
UpdateOutcome = namedtuple("UpdateOutcome", "resampled reinitialized")


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
        particles, weights = self.bank.state(0)
        mean = float(self.bank.means()[0])
        nonzero = int(np.count_nonzero(weights))
        if nonzero < 2:
            std = 0.0
        else:
            spread = float(np.sum(weights * (particles - mean) ** 2))
            std = math.sqrt(spread / ((nonzero - 1) / nonzero * float(weights.sum())))
        effective = float(self.bank.effective_particles()[0])
        return DistanceEstimate(mean_m=mean, std_m=std, effective_particles=effective)
