"""Distribution-free calibration of coverage radii from prediction errors.

Per-axis split-conformal quantiles of absolute errors at the per-axis level
gamma^(1/3), with mixing-aware subsampling of temporally correlated series.
The three per-axis statements compose into a joint confidence of gamma only
when the axis errors are independent; on dependent axes the joint coverage
can fall well below gamma (0.434 at gamma = 0.5 on an adversarial law).
The result is a :class:`CoverageSpec`, the statement the coverage update
takes.  The subsampling interval is a user choice; an autocorrelation
report helps pick it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class CoverageSpec:
    """Calibrated per-axis error radii at confidence gamma.

    Each axis is covered with probability per_axis_level(gamma); the box as
    a whole holds with probability gamma only for independent axis errors.
    An infinite radius leaves its axis open.
    """

    epsilon: np.ndarray
    gamma: float

    def __post_init__(self):
        self.epsilon = np.asarray(self.epsilon, dtype=float)
        if self.epsilon.shape != (3,) or not np.all(self.epsilon >= 0.0):
            raise ValueError("epsilon must be three non-negative radii")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")


@dataclass
class ErrorSeries:
    """Timestamped 3-axis prediction errors."""

    timestamps: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.errors = np.asarray(self.errors, dtype=float)
        if self.timestamps.ndim != 1 or self.timestamps.size < 1:
            raise ValueError("need at least one timestamped sample")
        ts = self.timestamps
        if not np.isfinite(ts).all() or np.any(np.diff(ts) <= 0.0):
            raise ValueError("timestamps must be finite and strictly increasing")
        if self.errors.shape != (self.timestamps.size, 3):
            raise ValueError("errors must have shape (len(timestamps), 3)")
        if not np.isfinite(self.errors).all():
            raise ValueError("errors must be finite")

    def __len__(self) -> int:
        return self.timestamps.size


def subsample(series: ErrorSeries, k: int) -> ErrorSeries:
    """Keep every k-th sample starting at index 0."""
    if k < 1:
        raise ValueError("subsampling interval must be >= 1")
    return ErrorSeries(series.timestamps[::k].copy(), series.errors[::k].copy())


def per_axis_level(gamma: float) -> float:
    """Per-axis confidence whose three-fold product is gamma: the joint
    confidence when the three axis errors are independent."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return gamma ** (1.0 / 3.0)


def _conformal_rank(n: int, per_axis: float) -> int:
    # finite-sample corrected order-statistic rank
    return math.ceil((n + 1) * per_axis)


def min_samples_for(gamma: float) -> int:
    """Smallest calibration size for which the conformal rank exists."""
    per_axis = per_axis_level(gamma)
    n = max(10, math.ceil(per_axis / (1.0 - per_axis)))
    while _conformal_rank(n, per_axis) > n:
        n += 1
    return n


def conformal_thresholds(series: ErrorSeries, gamma: float) -> CoverageSpec:
    """Split-conformal per-axis radii at per-axis level gamma^(1/3).

    Scores are the absolute errors per axis; each radius is the k-th
    smallest score with k = ceil((N+1) * gamma^(1/3)).  Raises when the
    series is too short for the requested confidence, naming the minimum
    usable size.
    """
    per_axis = per_axis_level(gamma)
    n = len(series)
    if n < 10:
        raise ValueError(f"need at least 10 calibration samples, got {n}")
    k = _conformal_rank(n, per_axis)
    if k > n:
        raise ValueError(
            f"insufficient calibration data: gamma={gamma} needs at least "
            f"{min_samples_for(gamma)} samples, got {n}"
        )
    scores = np.sort(np.abs(series.errors), axis=0, kind="stable")
    return CoverageSpec(scores[k - 1].copy(), gamma)


def empirical_coverage(
    series: ErrorSeries, spec: CoverageSpec
) -> tuple[float, np.ndarray]:
    """Fraction of samples inside the radii, jointly and per axis."""
    inside = np.abs(series.errors) <= spec.epsilon
    return float(inside.all(axis=1).mean()), inside.mean(axis=0)


def decorrelation_lags(
    series: ErrorSeries, threshold: float = 0.05, max_lag: int | None = None
) -> np.ndarray:
    """Per-axis lag at which |autocorrelation| first drops below threshold.

    Guidance for picking the subsampling interval; returns max_lag + 1 for
    an axis that never decorrelates within the horizon.
    """
    n = len(series)
    if max_lag is None:
        max_lag = min(n - 2, 1000)
    lags = np.empty(3, dtype=int)
    for j in range(3):
        x = series.errors[:, j] - series.errors[:, j].mean()
        denom = float(x @ x)
        if denom == 0.0:
            lags[j] = 1
            continue
        lags[j] = max_lag + 1
        for lag in range(1, max_lag + 1):
            r = float(x[:-lag] @ x[lag:]) / denom
            if abs(r) < threshold:
                lags[j] = lag
                break
    return lags
