"""Distribution-free calibration of coverage radii from prediction errors.

The input is an (n, 3) array of prediction errors, one row per sample.
Per-axis split-conformal quantiles of the absolute errors at the per-axis
level gamma^(1/3) give a :class:`CoverageSpec`, the statement the coverage
update takes.  The three per-axis statements compose into a joint
confidence of gamma only when the axis errors are independent; on
dependent axes the joint coverage can fall well below gamma.  Errors that
perturb one uniformly chosen axis with N(0, 1) and leave the other two at
0 have joint coverage 3 gamma^(1/3) - 2: 0.381 at gamma = 0.5
(``tests/test_calibration.py`` measures it held out).

Conformal coverage holds for exchangeable samples.  The campaigns of
:mod:`coverage_inekf.sim` calibrate their coverage arms on iid draws from
the noise model, which are.  A temporally correlated error stream is not;
:func:`decorrelation_lags` picks the block length for calibrating on its
block means instead.
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


def _errors(errors) -> np.ndarray:
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 2 or errors.shape[1] != 3 or errors.shape[0] < 1:
        raise ValueError("errors must be an (n, 3) array with n >= 1")
    if not np.isfinite(errors).all():
        raise ValueError("errors must be finite")
    return errors


def conformal_thresholds(errors: np.ndarray, gamma: float) -> CoverageSpec:
    """Split-conformal per-axis radii at per-axis level gamma^(1/3).

    Scores are the absolute (n, 3) errors per axis; each radius is the
    k-th smallest score with k = ceil((n+1) * gamma^(1/3)).  Raises when
    there are too few samples for the requested confidence, naming the
    minimum usable size.
    """
    need = min_samples_for(gamma)
    errors = _errors(errors)
    n = errors.shape[0]
    if n < need:
        raise ValueError(
            f"insufficient calibration data: gamma={gamma} needs at least "
            f"{need} samples, got {n}"
        )
    k = _conformal_rank(n, per_axis_level(gamma))
    scores = np.partition(np.abs(errors), k - 1, axis=0)
    return CoverageSpec(scores[k - 1].copy(), gamma)


def empirical_coverage(
    errors: np.ndarray, spec: CoverageSpec
) -> tuple[float, np.ndarray]:
    """Fraction of the (n, 3) errors inside the radii, jointly and per axis."""
    inside = np.abs(_errors(errors)) <= spec.epsilon
    return float(inside.all(axis=1).mean()), inside.mean(axis=0)


def decorrelation_lags(
    errors: np.ndarray, threshold: float = 0.05, max_lag: int | None = None
) -> np.ndarray:
    """Per-axis lag at which |autocorrelation| first drops below threshold.

    Picks the block length for calibrating on block means of a correlated
    (n, 3) error stream; returns max_lag + 1 for an axis that never
    decorrelates within the horizon, and 1 for a constant axis.  The
    threshold must lie in (0, 1).  The default horizon is
    min(n // 4, 1000), which needs at least 4 samples: beyond it too few
    pairs are left to estimate a lag's correlation (a ramp's centred lag
    products sum to 0 near lag 0.37 n).  An explicit ``max_lag`` must be an
    integer in [1, n - 1], the lags that have sample pairs.

    Known limitation: only the first lag below the threshold counts, so
    an oscillating error reads as decorrelated at its autocorrelation's
    first zero.  A period-40 sinusoid gives 10, yet the means of its
    10-sample blocks have lag-2 autocorrelation -0.996
    (``tests/test_calibration.py`` pins both).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    errors = _errors(errors)
    n = errors.shape[0]
    if max_lag is None:
        if n < 4:
            raise ValueError(f"the default horizon needs at least 4 samples, got {n}")
        max_lag = min(n // 4, 1000)
    elif not isinstance(max_lag, (int, np.integer)):
        raise ValueError(f"max_lag must be an integer, got {max_lag!r}")
    elif not 1 <= max_lag <= n - 1:
        raise ValueError(f"max_lag must lie in [1, {n - 1}] for {n} samples")
    lags = np.empty(3, dtype=int)
    for j in range(3):
        x = errors[:, j] - errors[:, j].mean()
        denom = float(x @ x)
        lags[j] = max_lag + 1
        for lag in range(1, max_lag + 1):
            r = float(x[:-lag] @ x[lag:]) / denom if denom else 0.0
            if abs(r) < threshold:
                lags[j] = lag
                break
    return lags
