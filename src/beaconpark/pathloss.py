"""Log-distance path-loss model: RSSI prediction, inversion, and fitting.

The signal model is RSSI(d) = ref_rssi - 10 * exponent * log10(d / d_ref),
i.e. a line in log10-distance. Fitting is therefore ordinary least squares
on (log10 distance, mean RSSI per distance) with standard two-sided
t-intervals for the 95% confidence bounds on both coefficients.

The interval's critical value, the 0.975 quantile of Student's t with the
fit's integer degrees of freedom, is computed exactly rather than
approximated: with theta = arctan(t / sqrt(dof)), P(|T| < t) is a finite
series in sin(theta) and cos(theta) (Abramowitz & Stegun 26.7.3-26.7.4),
increasing in theta, and bisection on theta finds where it reaches 0.95.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .jsonfields import read_object

REFERENCE_DISTANCE_M = 1.0


class FitError(ValueError):
    """Calibration data cannot be fitted."""


class RankDeficientError(FitError):
    """All calibration distances coincide; the line is underdetermined."""


class PathLossModel(namedtuple("PathLossModel", "exponent ref_rssi_dbm ref_distance_m")):
    """Fitted propagation constants for one environment.

    exponent: path-loss exponent (2 in free space, larger with clutter).
    ref_rssi_dbm: mean RSSI at the reference distance.
    ref_distance_m: reference distance, fixed at 1 m.
    """

    __slots__ = ()

    def __new__(
        cls, exponent: float, ref_rssi_dbm: float, ref_distance_m: float = REFERENCE_DISTANCE_M
    ):
        if not exponent > 0:
            raise ValueError(f"path-loss exponent must be positive, got {exponent}")
        if not math.isfinite(ref_rssi_dbm):
            raise ValueError("reference RSSI must be finite")
        if ref_distance_m != REFERENCE_DISTANCE_M:
            raise ValueError(f"reference distance is fixed at {REFERENCE_DISTANCE_M} m")
        return super().__new__(cls, exponent, ref_rssi_dbm, ref_distance_m)


# Fitted constants for the two calibrated parking environments.
INDOOR_MODEL = PathLossModel(exponent=2.424, ref_rssi_dbm=-65.24)
OUTDOOR_MODEL = PathLossModel(exponent=2.049, ref_rssi_dbm=-88.78)


class CalibrationDataset(namedtuple("CalibrationDataset", "points")):
    """RSSI captures grouped by true distance, for model fitting.

    points: (distance_m, (rssi, ...)) pairs, held as floats.
    """

    __slots__ = ()

    def __new__(cls, points):
        pts = tuple((float(d), tuple(float(r) for r in samples)) for d, samples in points)
        if any(d <= 0 for d, _ in pts):
            raise ValueError("calibration distances must be positive")
        if any(len(s) == 0 for _, s in pts):
            raise ValueError("every calibration distance needs at least one sample")
        if len({d for d, _ in pts}) < 2:
            raise RankDeficientError("need samples at two or more distinct distances")
        return super().__new__(cls, pts)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "CalibrationDataset":
        """Group raw (distance, rssi) rows by distance, preserving order."""
        grouped: dict[float, list[float]] = {}
        for d, r in pairs:
            grouped.setdefault(float(d), []).append(float(r))
        return cls(tuple((d, tuple(rs)) for d, rs in grouped.items()))

    def sample_counts(self) -> dict[float, int]:
        return {d: len(s) for d, s in self.points}


# The fitted model plus 95% confidence bounds and residual spread.
FitResult = namedtuple("FitResult", "model exponent_ci95 ref_rssi_ci95 residual_std_db")


def ragged_means(samples, starts) -> np.ndarray:
    """Mean RSSI of every round of ragged rows, nan for a round with no samples.

    `samples` holds every row's readings, row after row. starts[b, r] is
    the index in `samples` of row b's first reading in round r; the last
    column is one past the row's last reading (a 1-D `starts` is one row).
    Each round is summed left to right from 0.0: the same bits on every
    Python, where `sum()` compensates since 3.12. The rounds are padded to
    the longest one and summed by one `np.add.accumulate`, a sequential
    scan; the sum is read at each round's last sample.
    """
    samples = np.asarray(samples, dtype=float)
    starts = np.asarray(starts)
    counts = np.diff(starts, axis=-1)
    offsets = np.arange(max(int(counts.max(initial=0)), 1))
    has = offsets < counts[..., None]
    padded = np.zeros(has.shape)
    padded[has] = samples[(starts[..., :-1, None] + offsets)[has]]
    running = np.add.accumulate(padded, axis=-1)
    last = np.maximum(counts - 1, 0)[..., None]
    # The scan starts from the first sample, not from 0.0; adding 0.0 turns
    # the one difference, a sum of -0.0, into the 0.0 the rule gives.
    sums = np.take_along_axis(running, last, axis=-1)[..., 0] + 0.0
    return np.divide(sums, counts, out=np.full(counts.shape, np.nan), where=counts > 0)


def average_rssi(samples: Sequence[float]) -> float:
    """Arithmetic mean of raw RSSI readings: ragged_means on one round.

    Nothing in beaconpark calls it: the benchmark's tracer (bench/tracing.py)
    binds it by name, and it goes with that wrap (ROADMAP item 1).
    """
    if len(samples) == 0:
        raise ValueError("cannot average an empty RSSI list")
    return float(ragged_means(samples, [0, len(samples)])[0])


def predict_rssi(model: PathLossModel, distance_m: float) -> float:
    """Noise-free RSSI expected at a distance."""
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    return model.ref_rssi_dbm - 10.0 * model.exponent * math.log10(
        distance_m / model.ref_distance_m
    )


def estimate_distance(model: PathLossModel, rssi_dbm):
    """Exact algebraic inverse of predict_rssi: a float of a float, an array of an array.

    10**x is libm's `pow` per element (`math.pow`), as Python's `**`
    computes it; numpy's vectorized power can differ in the last bit. An
    RSSI so low that its distance exceeds the largest float raises
    ValueError naming the first such RSSI.
    """
    rssi = np.asarray(rssi_dbm, dtype=float)
    exponents = (model.ref_rssi_dbm - rssi) / (10.0 * model.exponent)
    try:
        if exponents.ndim == 0:
            return model.ref_distance_m * math.pow(10.0, float(exponents))
        powers = np.fromiter(map(math.pow, repeat(10.0), exponents.ravel().tolist()), float)
    except OverflowError:
        for value, exponent in zip(rssi.ravel().tolist(), exponents.ravel().tolist()):
            try:
                math.pow(10.0, exponent)
            except OverflowError:
                raise ValueError(
                    f"RSSI {value} dBm inverts to a distance beyond the largest float"
                ) from None
        raise
    return model.ref_distance_m * powers.reshape(exponents.shape)


def _t_interval_mass(theta: float, dof: int) -> float:
    """P(|T| < sqrt(dof) * tan(theta)) for Student's t with integer dof >= 1."""
    cos = math.cos(theta)
    if dof % 2 == 0:
        term = total = 1.0
        for k in range(1, dof // 2):
            term *= cos * cos * (2 * k - 1) / (2 * k)
            total += term
        return math.sin(theta) * total
    term = total = cos if dof > 1 else 0.0
    for k in range(1, (dof - 1) // 2):
        term *= cos * cos * (2 * k) / (2 * k + 1)
        total += term
    return 2.0 / math.pi * (theta + math.sin(theta) * total)


def t_quantile_975(dof: int) -> float:
    """0.975 quantile of Student's t: the two-sided 95% critical value.

    Bisects theta over (0, pi/2) until the bracket is one float wide.
    """
    if dof < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {dof}")
    lo, hi = 0.0, math.pi / 2
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return math.sqrt(dof) * math.tan(mid)
        if _t_interval_mass(mid, dof) < 0.95:
            lo = mid
        else:
            hi = mid


def fit_model(data: CalibrationDataset) -> FitResult:
    """Least-squares fit of (exponent, reference RSSI) with 95% CIs.

    The regression observations are the per-distance mean RSSI values
    against log10 distance; the model line is y = ref_rssi - 10n * x.
    residual_std_db is the root-mean-square residual of those means.
    """
    x = np.array([math.log10(d / REFERENCE_DISTANCE_M) for d, _ in data.points])
    captures = [samples for _, samples in data.points]
    y = ragged_means(np.concatenate(captures), np.cumsum([0] + [len(s) for s in captures]))
    m = len(x)

    x_bar = x.mean()
    y_bar = y.mean()
    sxx = float(np.sum((x - x_bar) ** 2))
    if sxx == 0.0:
        raise RankDeficientError("all calibration distances are equal")
    slope = float(np.sum((x - x_bar) * (y - y_bar)) / sxx)
    intercept = y_bar - slope * x_bar

    resid = y - (intercept + slope * x)
    sse = float(np.sum(resid**2))
    residual_std = math.sqrt(sse / m)

    dof = m - 2
    if dof >= 1 and sse > 0.0:
        s2 = sse / dof
        se_slope = math.sqrt(s2 / sxx)
        se_intercept = math.sqrt(s2 * (1.0 / m + x_bar**2 / sxx))
        t_crit = t_quantile_975(dof)
    else:
        # Exact fit (or only two distances): degenerate zero-width intervals.
        se_slope = se_intercept = 0.0
        t_crit = 0.0

    exponent = -slope / 10.0
    if not exponent > 0:
        raise FitError(
            f"RSSI does not fall with distance: the fitted slope is {slope:+g} dB per decade,"
            f" so the path-loss exponent {exponent:g} is not positive"
        )
    half_n = t_crit * se_slope / 10.0
    half_c = t_crit * se_intercept
    model = PathLossModel(exponent=exponent, ref_rssi_dbm=intercept)
    return FitResult(
        model=model,
        exponent_ci95=(exponent - half_n, exponent + half_n),
        ref_rssi_ci95=(intercept - half_c, intercept + half_c),
        residual_std_db=residual_std,
    )


# --- file formats ---

CALIBRATION_CSV_HEADER = ["distance_m", "rssi_dbm"]


def read_calibration_csv(path) -> CalibrationDataset:
    """Read `distance_m,rssi_dbm` rows of finite numbers (one sample per row)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CALIBRATION_CSV_HEADER:
            raise ValueError(f"expected header {CALIBRATION_CSV_HEADER}, got {header}")
        pairs = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"line {lineno}: expected 2 fields, got {len(row)}")
            try:
                pair = (float(row[0]), float(row[1]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, pair)):
                raise ValueError(f"line {lineno}: values must be finite, got {row}")
            pairs.append(pair)
    if not pairs:
        raise ValueError("calibration CSV contains no samples")
    return CalibrationDataset.from_pairs(pairs)


def fit_result_to_json_dict(fit: FitResult) -> dict:
    return {
        "n": fit.model.exponent,
        "C": fit.model.ref_rssi_dbm,
        "d0": fit.model.ref_distance_m,
        "n_ci95": [fit.exponent_ci95[0], fit.exponent_ci95[1]],
        "C_ci95": [fit.ref_rssi_ci95[0], fit.ref_rssi_ci95[1]],
        "residual_std": fit.residual_std_db,
    }


def model_from_json_dict(obj) -> PathLossModel:
    """The model of a JSON object holding `n` and `C`, and optionally `d0`, and no other key."""
    fields = read_object(obj, "model", {"n": float, "C": float, "d0": float}, ("n", "C"))
    return PathLossModel(fields["n"], fields["C"], fields.get("d0", REFERENCE_DISTANCE_M))
