import math

import numpy as np
import pytest

from coverage_inekf.calibration import (
    CoverageSpec,
    ErrorSeries,
    conformal_thresholds,
    decorrelation_lags,
    empirical_coverage,
    min_samples_for,
    per_axis_level,
    subsample,
)
from coverage_inekf.sim import FixedComponentMixture


def make_series(errors, dt=0.01, t0=0.0):
    errors = np.asarray(errors, dtype=float)
    return ErrorSeries(t0 + dt * np.arange(len(errors)), errors)


class TestErrorSeries:
    @pytest.mark.parametrize(
        "timestamps",
        [[0.0, 0.0, 0.1], [0.0, np.nan, 2.0], [np.nan, 1.0, 2.0], [0.0, 1.0, np.inf]],
        ids=["repeated", "nan-middle", "nan-first", "inf-last"],
    )
    def test_rejects_non_monotone_timestamps(self, timestamps):
        with pytest.raises(ValueError, match="timestamps"):
            ErrorSeries(np.array(timestamps), np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_errors(self, bad):
        errors = np.zeros((100, 3))
        errors[:10, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            ErrorSeries(np.arange(100.0), errors)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ErrorSeries(np.array([0.0, 0.1]), np.zeros((2, 2)))


class TestSubsample:
    def test_k1_is_identity(self):
        series = make_series(np.arange(30).reshape(10, 3))
        out = subsample(series, 1)
        assert np.array_equal(out.errors, series.errors)
        assert np.array_equal(out.timestamps, series.timestamps)

    def test_interval_arithmetic(self):
        series = make_series(np.zeros((2160, 3)))
        assert len(subsample(series, 20)) == math.ceil(2160 / 20) == 108

    def test_oversized_interval_keeps_first(self):
        series = make_series(np.arange(15).reshape(5, 3))
        out = subsample(series, 100)
        assert len(out) == 1
        assert np.array_equal(out.errors[0], series.errors[0])

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            subsample(make_series(np.zeros((5, 3))), 0)


class TestConformalThresholds:
    def test_constant_scores(self):
        errors = np.tile([0.3, -0.2, 0.05], (50, 1))
        bounds = conformal_thresholds(make_series(errors), 0.8)
        assert np.allclose(bounds.epsilon, [0.3, 0.2, 0.05], atol=0)

    def test_per_axis_level_values(self):
        per_axis = per_axis_level(0.8)
        assert abs(per_axis - 0.8 ** (1.0 / 3.0)) < 1e-12
        assert abs(per_axis - 0.92831776) < 1e-7
        assert abs((1.0 - per_axis) - 0.07168224) < 1e-7

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.2, math.nan])
    @pytest.mark.parametrize(
        "caller",
        [
            min_samples_for,
            lambda g: FixedComponentMixture.default_biased().epsilon_for(g),
            lambda g: conformal_thresholds(make_series(np.ones((100, 3))), g),
        ],
        ids=["min_samples_for", "epsilon_for", "conformal_thresholds"],
    )
    def test_gamma_outside_unit_interval_is_rejected(self, caller, gamma):
        """Every caller of per_axis_level refuses a gamma outside (0, 1).
        Unchecked, min_samples_for divides by zero at 1 and never returns
        at 1.2, and epsilon_for returns its bracket top or zeros."""
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\)"):
            caller(gamma)

    def test_order_statistic_rank(self):
        # 99 uniform scores at per-axis level 0.9: rank ceil(100*0.9) = 90
        rng = np.random.default_rng(1)
        scores = rng.uniform(0.0, 1.0, (99, 3))
        gamma = 0.9**3
        bounds = conformal_thresholds(make_series(scores), gamma)
        expected = np.sort(np.abs(scores), axis=0)[89]
        assert np.array_equal(bounds.epsilon, expected)
        assert bounds.gamma == gamma

    def test_held_out_coverage_in_expectation(self):
        rng = np.random.default_rng(2)
        gamma = 0.9**3
        cover = []
        for _ in range(300)            :
            cal = rng.uniform(0.0, 1.0, (99, 3))
            test = rng.uniform(0.0, 1.0, (200, 3))
            bounds = conformal_thresholds(make_series(cal), gamma)
            cover.append(np.mean(np.abs(test[:, 0]) <= bounds.epsilon[0]))
        assert np.mean(cover) >= 0.9 - 0.02

    def test_insufficient_samples_error_names_minimum(self):
        series = make_series(np.random.default_rng(3).normal(size=(12, 3)))
        with pytest.raises(ValueError, match=str(min_samples_for(0.99))):
            conformal_thresholds(series, 0.99)

    def test_minimum_sample_helper(self):
        for gamma in (0.7, 0.8, 0.95, 0.99):
            n = min_samples_for(gamma)
            k = math.ceil((n + 1) * per_axis_level(gamma))
            assert k <= n

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(4)
        series = make_series(rng.normal(size=(200, 3)))
        eps = [conformal_thresholds(series, g).epsilon for g in (0.7, 0.8, 0.9)]
        assert np.all(eps[0] <= eps[1]) and np.all(eps[1] <= eps[2])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        errors = rng.normal(size=(80, 3))
        perm = rng.permutation(80)
        a = conformal_thresholds(make_series(errors), 0.8)
        b = conformal_thresholds(make_series(errors[perm]), 0.8)
        assert np.array_equal(a.epsilon, b.epsilon)


class TestEmpiricalCoverage:
    def test_infinite_radii_cover_everything(self):
        series = make_series(np.random.default_rng(6).normal(size=(50, 3)))
        bounds = CoverageSpec(np.full(3, np.inf), 0.8)
        joint, per_axis = empirical_coverage(series, bounds)
        assert joint == 1.0 and np.all(per_axis == 1.0)

    def test_zero_radii_cover_nothing(self):
        series = make_series(np.random.default_rng(7).normal(size=(50, 3)))
        bounds = CoverageSpec(np.zeros(3), 0.8)
        joint, per_axis = empirical_coverage(series, bounds)
        assert joint == 0.0 and np.all(per_axis == 0.0)

    def test_self_coverage_at_least_rank_fraction(self):
        rng = np.random.default_rng(8)
        series = make_series(rng.normal(size=(99, 3)))
        gamma = 0.9**3
        bounds = conformal_thresholds(series, gamma)
        _, per_axis = empirical_coverage(series, bounds)
        assert np.all(per_axis >= 90 / 100.0)


class TestDecorrelationLags:
    def test_white_noise_decorrelates_immediately(self):
        rng = np.random.default_rng(9)
        series = make_series(rng.normal(size=(5000, 3)))
        assert np.all(decorrelation_lags(series) <= 3)

    def test_ar1_needs_longer_interval(self):
        rng = np.random.default_rng(10)
        n = 5000
        x = np.zeros((n, 3))
        for k in range(1, n):
            x[k] = 0.95 * x[k - 1] + rng.normal(0, 1, 3)
        lags = decorrelation_lags(make_series(x))
        assert np.all(lags > 20)
