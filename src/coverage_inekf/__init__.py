"""Coverage-constrained invariant Kalman filtering on SE2(3).

A state-estimation toolkit for fusing IMU strapdown propagation with
body-frame velocity pseudo-measurements whose noise is described only by a
calibrated set-coverage statement (the error lies in a box with probability
at least gamma) instead of a Gaussian likelihood.
"""

from coverage_inekf.se23 import Se23Element, exp_se23, log_se23
from coverage_inekf.filter import (
    AugmentedState,
    ProcessNoise,
    apply_correction,
    cov_from_std,
    error_transition,
    gaussian_update,
    propagate_cov,
    propagate_mean,
)
from coverage_inekf.tmvn import BoxRegion, TruncatedMoments, box_moments
from coverage_inekf.coverage import UpdateDiagnostics, coverage_update, update
from coverage_inekf.calibration import CoverageSpec, conformal_thresholds

__version__ = "0.1.0"

__all__ = [
    "Se23Element",
    "exp_se23",
    "log_se23",
    "AugmentedState",
    "cov_from_std",
    "ProcessNoise",
    "propagate_mean",
    "error_transition",
    "propagate_cov",
    "apply_correction",
    "gaussian_update",
    "BoxRegion",
    "TruncatedMoments",
    "box_moments",
    "CoverageSpec",
    "UpdateDiagnostics",
    "coverage_update",
    "update",
    "conformal_thresholds",
]
