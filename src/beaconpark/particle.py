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
among its N slots: sample impoverishment. The runs are 18.4% of the
particle-steps of the shipped indoor proximity grid and 26.9% of those of
its distance sweep. The runs are the bank's state between calls: values
v, weights w and counts c, laid out row after row, made when a row is
drawn, resampled or reinitialized and never split again. `state` expands
them into read-only copies of the particles and weights, and `set_state`
sets those and splits the rows it sets into runs. A step makes one pass
over the runs of all rows for each of: the readings repeated over each
row's runs, subtract, square, multiply by the precomputed
-0.5 / noise^2, exp, multiply into w, c * w, the normalizers 1 / total
repeated likewise, multiply into w, c * w, and times w; where every run of
a block has count 1, c * w is w itself and is not formed. The
count-weighted row sums (the total sum(c * w), N_eff as
1 / sum((c * w) * w), and `means`' sum((c * w) * v) / sum(c * w)) are
np.add.reduceat over each row's runs, which adds a row the same way
wherever it lies, so a row's bits depend only on that row. `means`,
`effective_particles` and `maybe_resample` take the same sums.

A resample draws and sorts the row's N uniforms, then searches each
run's cumulative mass among them: a run's count is the number of
uniforms at or below its cumulative mass, less those at or below the run
before it, which are the picks a search of each uniform in the cumulative
masses makes. The picked runs become the new row's runs in place. A row
never gains runs except by reinitializing, so a resample leaves count-0
gap slots before a shortened row; a step closes the gaps once they pass a
quarter of the live runs.

The runs fill three flat arrays of one slot per particle of the bank, so
every row has room to be all runs of one, as it is when drawn. Rows may
hold unequal N: each row's threshold beta * N, weight 1 / N and N uniforms
are its own. A pass takes the rows in blocks that own at most _BLOCK
slots, so its temporary arrays (the repeated readings, then the repeated
normalizers) stay small beside the bank. No pass divides: 1 / total is
taken per row. The one exception is a row whose total is positive but
subnormal, whose reciprocal may overflow: it divides, on a slow path
taken only when some total is subnormal, zero or not finite (a collapse).

Every step steps every row. In a sub-step of `run` that has readings for
only some rows, a row without one reads 0.0, and its gains and its weight
total are set to 1.0 after the exp and the row sum: its weights keep their
bits, it cannot collapse, and its resample flag is masked off. `run` also
checks and clamps all readings once, not once per step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# The smallest positive normal float: a row total below it may have no finite
# reciprocal, so that row normalizes by division.
_SMALLEST_NORMAL = sys.float_info.min

# A step compacts the runs once the gaps left by resamples exceed this share
# of the live runs.
_GAP_SHARE = 0.25

# A pass over the runs takes the rows in blocks that own at most this many
# slots, so its temporary arrays stay under 128 KB; it frees each block's
# before it makes the next block's.
_BLOCK = 16384


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


def _merge(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Join adjacent runs of equal value, all of one weight, into maximal runs."""
    same = values[1:] == values[:-1]
    if not same.any():
        return values, counts
    heads = np.flatnonzero(np.concatenate(([True], ~same)))
    return values[heads], np.add.reduceat(counts, heads)


class _Runs:
    """The rows of a bank as runs of equal (particle, weight): the bank's state.

    Row b's runs fill the slots bounds[2b]:bounds[2b + 1] of the flat
    arrays `values`, `weights` and `counts`. The arrays hold one slot per
    particle of the bank (sizes[b] for row b), so every row has room to be
    all runs of one. The rows lie in order, and row b owns the slots from
    the end of row b - 1 (or slot 0) to its own end. A resample that
    shortens a row moves its start up and leaves count-0, weight-0 gap
    slots before it until the next compaction; `live` counts the slots
    that are not gaps.
    """

    __slots__ = ("values", "weights", "counts", "bounds", "sizes", "live", "_blocks")

    def __init__(self, sizes: np.ndarray, rows):
        """Lay out rows[b] = (values, weights, counts) of every row b in order from slot 0."""
        self.sizes = sizes
        arrays = self.values, self.weights, self.counts = [np.zeros(sizes.sum()) for _ in range(3)]
        ends = [0]
        for row in rows:
            at, end = ends[-1], ends[-1] + len(row[0])
            for array, part in zip(arrays, row):
                array[at:end] = part
            ends.append(end)
        self.bounds = np.repeat(ends, 2)[1:-1]
        self.live = ends[-1]
        self._blocks = None

    @property
    def span(self) -> int:
        """Slots in use, gaps included: the end of the last row."""
        return int(self.bounds[-1])

    def row(self, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row b's runs: views of its values, weights and counts."""
        at, end = self.bounds[2 * b : 2 * b + 2].tolist()
        return self.values[at:end], self.weights[at:end], self.counts[at:end]

    def moved(self) -> None:
        """Note that `bounds` changed."""
        self._blocks = None

    def blocks(self) -> list[tuple[slice, slice, np.ndarray, np.ndarray, bool]]:
        """The rows in blocks for a pass: (rows, slots, heads, owned, singles) per block.

        A block is whole rows that own at most _BLOCK slots between them,
        or one row that owns more, so a pass needs temporary arrays of at most
        that size. `slots` is the block's slice of the flat arrays, `owned`
        the slots of each of its rows, and `heads` its rows' bounds within
        the slice, as np.add.reduceat takes them: its even segments are the
        rows' runs, the odd ones gaps. reduceat adds a segment as its first
        term plus the pairwise sum of the rest, whatever lies around it, so
        a row's sums depend only on that row. `singles` is true when every
        run of the block has count 1, so that c * w is w itself: each of its
        rows has as many runs as particles.
        """
        if self._blocks is None:
            ends = self.bounds[1::2]
            owned = ends.copy()
            owned[1:] -= ends[:-1]
            spare = np.cumsum(self.sizes - (ends - self.bounds[0::2]))  # particles less runs
            self._blocks, b0, base = [], 0, 0
            while b0 < len(ends):
                b1 = max(b0 + 1, int(np.searchsorted(ends, base + _BLOCK, side="right")))
                stop = int(ends[b1 - 1])
                heads = self.bounds[2 * b0 : 2 * b1 - 1] - base
                singles = spare[b1 - 1] == (spare[b0 - 1] if b0 else 0)
                block = (slice(b0, b1), slice(base, stop), heads, owned[b0:b1], singles)
                self._blocks.append(block)
                b0, base = b1, stop
        return self._blocks


class ParticleBank:
    """B filters of one config, held as runs of equal (particle, weight).

    Row b draws from its own Generator, seeded with seeds[b], and holds
    particle_counts[b] particles: config.particle_count unless the counts
    are given. `run` and `update` step the runs of all rows as flat arrays;
    a row that resamples or reinitializes then does so alone, with its own
    Generator and its own N. Count-weighted row sums add each row exactly
    as they add a lone row, so every row evolves bit for bit as a one-row
    bank of its N given the same seed and measurements.

    The runs are the state between calls. `state` expands them into
    read-only copies of the particles and weights, and `set_state` sets
    those, splitting the rows it sets into runs afresh.

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
        self._rngs = [np.random.default_rng(seed) for seed in seeds]
        self._threshold = config.beta * sizes  # beta * N per row
        self._gain_scale = -0.5 / config.measurement_noise_m**2
        self.steps = self.resamples = self.reinitializations = 0
        self.particle_steps = self.run_steps = 0
        self._runs = _Runs(sizes.astype(np.intp), map(self._fresh, range(len(seeds))))

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
            means[:, r] = self._means()
        return means

    def effective_particles(self) -> np.ndarray:
        """1 / sum(w^2) of every row: N for uniform weights, 1 for a point mass."""
        return self._rescale(np.ones(len(self._rngs)))  # times 1 keeps every weight's bits

    def maybe_resample(self, row: int) -> bool:
        """Multinomially resample one row when its N_eff falls below beta * N."""
        self._check_row(row)
        _, weights, counts = self._runs.row(row)
        # N_eff as a step takes it: reduceat over the row's runs
        if 1.0 / np.add.reduceat(counts * weights * weights, [0])[0] >= self._threshold[row]:
            return False
        self._resample(row)
        self.resamples += 1
        return True

    def means(self) -> np.ndarray:
        """Weighted mean particle of every row."""
        return self._means()

    def state(self, row: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Read-only copies of the particles and weights, expanded from the runs.

        Of one row, as two 1-D arrays; or, with no row, of every row, as two
        (B, N) arrays, which takes rows of one particle count.
        """
        runs = self._runs
        if row is None:
            if len(set(self.particle_counts)) > 1:
                raise ValueError("rows of unequal particle counts have no (B, N) state; name a row")
            at, end, shape = 0, runs.span, (len(self._rngs), self.particle_counts[0])
        else:
            self._check_row(row)
            (at, end), shape = runs.bounds[2 * row : 2 * row + 2].tolist(), -1
        counts = runs.counts[at:end].astype(np.intp)  # a gap slot has count 0
        expanded = tuple(
            np.repeat(x[at:end], counts).reshape(shape) for x in (runs.values, runs.weights)
        )
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
        rows = range(len(self._rngs)) if row is None else [row]
        fresh = {}  # each row set, as its maximal runs of equal (particle, weight)
        for b, p, w in zip(rows, *map(np.atleast_2d, new)):
            heads = np.flatnonzero(np.concatenate(([True], (p[1:] != p[:-1]) | (w[1:] != w[:-1]))))
            fresh[b] = p[heads], w[heads], np.diff(heads, append=len(p))
        self._replace_rows(fresh)

    def _check_row(self, row: int) -> None:
        if not 0 <= row < len(self._rngs):
            raise IndexError(f"filter row {row} outside a bank of {len(self._rngs)} rows")

    def _clamp(self, z: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(z, self.config.state_min_m), self.config.state_max_m)

    def _fresh(self, row: int) -> tuple:
        """A uniform draw of the row's N particles, as maximal runs of weight 1 / N."""
        cfg, n = self.config, self.particle_counts[row]
        values = self._rngs[row].uniform(cfg.state_min_m, cfg.state_max_m, n)
        values, counts = _merge(values, np.ones(n))
        return values, 1.0 / n, counts

    def _compact(self) -> None:
        """Close the gaps: move every row's runs down to the end of the row before it."""
        runs = self._runs
        if runs.span == runs.live:
            return
        gaps_then_runs = np.tile([False, True], len(self._rngs))
        keep = np.repeat(gaps_then_runs, np.diff(runs.bounds, prepend=0))
        end = 0
        for _, slots, _, _, _ in runs.blocks():
            kept = keep[slots]
            at, end = end, end + int(np.count_nonzero(kept))
            for array in (runs.values, runs.weights, runs.counts):
                array[at:end] = array[slots][kept]
        sizes = runs.bounds[1::2] - runs.bounds[0::2]
        runs.bounds[1::2] = np.cumsum(sizes)
        runs.bounds[0::2] = runs.bounds[1::2] - sizes
        runs.moved()

    def _replace_rows(self, fresh: dict) -> None:
        """Lay the rows out afresh: row b takes the runs fresh[b] = (values, weights,
        counts) if it is in `fresh`, and keeps its own otherwise."""
        old = self._runs
        self._runs = _Runs(old.sizes, (fresh.get(b) or old.row(b) for b in range(len(self._rngs))))

    def _step(self, z: np.ndarray, reads) -> tuple[np.ndarray, np.ndarray]:
        """Step finite, clamped measurements into every row, or into the rows of the mask `reads`.

        A row outside `reads` takes gain 1 and normalizer 1: its weights keep
        their bits, and it neither collapses nor resamples.
        """
        runs = self._runs
        total = np.empty(len(z))
        for rows, slots, heads, owned, singles in runs.blocks():
            gains = z[rows].repeat(owned)
            np.subtract(runs.values[slots], gains, out=gains)
            np.square(gains, out=gains)
            gains *= self._gain_scale
            np.exp(gains, out=gains)
            if reads is not None:
                gains[(~reads[rows]).repeat(owned)] = 1.0
            weights = runs.weights[slots]
            weights *= gains
            with np.errstate(over="ignore"):  # a total past the largest float is a collapse
                masses = weights if singles else np.multiply(runs.counts[slots], weights, out=gains)
                total[rows] = np.add.reduceat(masses, heads)[::2]
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
        self.particle_steps += len(runs.values)
        self.run_steps += runs.live
        for row in resampled.nonzero()[0].tolist():
            self._resample(row)
            self.resamples += 1
        if collapsed.any():
            reinitialized = np.flatnonzero(collapsed).tolist()
            self.reinitializations += len(reinitialized)
            self._replace_rows({b: self._fresh(b) for b in reinitialized})
        elif runs.span - runs.live > _GAP_SHARE * runs.live:
            self._compact()
        return resampled, collapsed

    def _normalize_slowly(self, total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalize rows that include a collapsed or subnormal total.

        Returns the factors that the step multiplies each row's weights by,
        and which rows collapsed; the caller reinitializes those.
        """
        runs = self._runs
        collapsed = ~(np.isfinite(total) & (total > 0.0))
        for b in np.flatnonzero(collapsed).tolist():
            runs.row(b)[1][:] = 1.0  # uniform until reinitialized
        total[collapsed] = runs.sizes[collapsed]
        # The reciprocal of a subnormal total can overflow: those rows divide.
        small = total < _SMALLEST_NORMAL
        for b in np.flatnonzero(small).tolist():
            runs.row(b)[1][:] /= total[b]
        return 1.0 / np.where(small, 1.0, total), collapsed

    def _rescale(self, factors: np.ndarray) -> np.ndarray:
        """Multiply each row's weights by its factor; return each row's N_eff.

        N_eff is 1 / sum((c * w) * w), taken after the multiply.
        """
        runs = self._runs
        squares = np.empty(len(factors))
        for rows, slots, heads, owned, singles in runs.blocks():
            products = factors[rows].repeat(owned)
            weights = runs.weights[slots]
            weights *= products
            np.multiply(weights if singles else runs.counts[slots], weights, out=products)
            if not singles:
                products *= weights
            squares[rows] = np.add.reduceat(products, heads)[::2]
            del products
        return 1.0 / squares

    def _means(self) -> np.ndarray:
        """sum((c * w) * v) / sum(c * w) per row."""
        runs = self._runs
        means = np.empty(len(self._rngs))
        for rows, slots, heads, _, singles in runs.blocks():
            weights = runs.weights[slots]
            masses = weights if singles else runs.counts[slots] * weights
            total = np.add.reduceat(masses, heads)[::2]
            moments = np.multiply(masses, runs.values[slots], out=None if singles else masses)
            means[rows] = np.add.reduceat(moments, heads)[::2] / total
            del masses, moments
        return means

    def _resample(self, row: int) -> None:
        """Resample one row in place; a shorter row leaves a gap before it."""
        runs = self._runs
        at, end = runs.bounds[2 * row : 2 * row + 2].tolist()
        values, counts = self._draw(
            row, runs.counts[at:end] * runs.weights[at:end], runs.values[at:end]
        )
        new_at = end - len(values)
        runs.values[new_at:end] = values
        runs.counts[new_at:end] = counts
        runs.weights[new_at:end] = 1.0 / self.particle_counts[row]
        runs.counts[at:new_at] = 0.0
        runs.weights[at:new_at] = 0.0
        runs.bounds[2 * row] = new_at
        runs.live -= new_at - at
        runs.moved()

    def _draw(self, row: int, masses: np.ndarray, values: np.ndarray):
        """Multinomially draw the row's N particles from runs of `values` of masses c * w.

        The row's N uniforms are drawn and sorted as a search of each
        uniform in the cumulative masses takes them. Here each run's
        cumulative mass is searched among the uniforms instead: a run's
        count is the number of uniforms at or below its cumulative mass,
        less those at or below the run before it, which are the same picks.
        Returns the new row's maximal runs as (values, counts). `masses` is
        spent.
        """
        u = self._rngs[row].random(self.particle_counts[row])
        u.sort()
        cumulative = np.cumsum(masses, out=masses)
        cumulative[-1] = 1.0  # guard the inverse-CDF lookup against rounding
        counts = np.searchsorted(u, cumulative, side="right")
        counts[1:] -= counts[:-1]  # numpy reads an overlapping operand before writing
        picked = counts.nonzero()[0]
        return _merge(values[picked], counts[picked])


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
