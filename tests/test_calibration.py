import math

import numpy as np
import pytest

from coverage_inekf.calibration import (
    CoverageSpec,
    conformal_thresholds,
    decorrelation_lags,
    empirical_coverage,
    min_samples_for,
    per_axis_level,
)


class TestErrorArray:
    """Every entry point validates the (n, 3) error array the same way."""

    ENTRY_POINTS = [
        lambda e: conformal_thresholds(e, 0.5),
        lambda e: empirical_coverage(e, CoverageSpec(np.ones(3), 0.5)),
        decorrelation_lags,
    ]
    IDS = ["conformal_thresholds", "empirical_coverage", "decorrelation_lags"]

    @pytest.mark.parametrize("call", ENTRY_POINTS, ids=IDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_errors(self, call, bad):
        errors = np.zeros((100, 3))
        errors[:10, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            call(errors)

    @pytest.mark.parametrize("call", ENTRY_POINTS, ids=IDS)
    @pytest.mark.parametrize(
        "shape", [(100, 2), (300,), (0, 3), (100, 3, 1)], ids=str
    )
    def test_rejects_shape(self, call, shape):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            call(np.zeros(shape))


class TestConformalThresholds:
    def test_constant_scores(self):
        errors = np.tile([0.3, -0.2, 0.05], (50, 1))
        bounds = conformal_thresholds(errors, 0.8)
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
            lambda g: conformal_thresholds(np.ones((100, 3)), g),
        ],
        ids=["min_samples_for", "conformal_thresholds"],
    )
    def test_gamma_outside_unit_interval_is_rejected(self, caller, gamma):
        """Every caller of per_axis_level refuses a gamma outside (0, 1).
        Unchecked, min_samples_for divides by zero at 1 and never returns
        at 1.2."""
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\)"):
            caller(gamma)

    def test_order_statistic_rank(self):
        # 99 uniform scores at per-axis level 0.9: rank ceil(100*0.9) = 90
        rng = np.random.default_rng(1)
        scores = rng.uniform(0.0, 1.0, (99, 3))
        gamma = 0.9**3
        bounds = conformal_thresholds(scores, gamma)
        expected = np.sort(np.abs(scores), axis=0)[89]
        assert np.array_equal(bounds.epsilon, expected)
        assert bounds.gamma == gamma

    @pytest.mark.parametrize("n", [10, 99, 1000, 8192])
    def test_radius_is_the_sorted_kth_score_with_ties(self, n):
        """The radius is the k-th row of the stably sorted scores, bit for
        bit, also when scores tie: half of the rows are multiples of 0.1
        in [-2.5, 2.5], so that most k-th scores are tied (on up to 172
        rows at n = 8192)."""
        rng = np.random.default_rng(n)
        errors = rng.normal(size=(n, 3))
        tied = rng.random(n) < 0.5
        errors[tied] = 0.1 * rng.integers(-25, 26, size=(tied.sum(), 3))
        scores = np.sort(np.abs(errors), axis=0, kind="stable")
        for gamma in (0.5, 0.8, 0.95):
            if n < min_samples_for(gamma):
                continue
            k = math.ceil((n + 1) * per_axis_level(gamma))
            got = conformal_thresholds(errors, gamma).epsilon
            assert np.array_equal(got, scores[k - 1])

    def test_held_out_coverage_in_expectation(self):
        rng = np.random.default_rng(2)
        gamma = 0.9**3
        cover = []
        for _ in range(300):
            cal = rng.uniform(0.0, 1.0, (99, 3))
            test = rng.uniform(0.0, 1.0, (200, 3))
            bounds = conformal_thresholds(cal, gamma)
            cover.append(np.mean(np.abs(test[:, 0]) <= bounds.epsilon[0]))
        assert np.mean(cover) >= 0.9 - 0.02

    @pytest.mark.parametrize("n, gamma", [(12, 0.99), (9, 0.5)])
    def test_insufficient_samples_error_names_minimum(self, n, gamma):
        """One size check covers both short series: 9 samples are under
        the floor of 10, 12 under the rank minimum of gamma 0.99; at the
        minimum itself the radii exist."""
        need = min_samples_for(gamma)
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match=f"at least {need} samples, got {n}"):
            conformal_thresholds(rng.normal(size=(n, 3)), gamma)
        conformal_thresholds(rng.normal(size=(need, 3)), gamma)

    def test_minimum_sample_helper(self):
        for gamma in (0.7, 0.8, 0.95, 0.99):
            n = min_samples_for(gamma)
            k = math.ceil((n + 1) * per_axis_level(gamma))
            assert k <= n

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(4)
        errors = rng.normal(size=(200, 3))
        eps = [conformal_thresholds(errors, g).epsilon for g in (0.7, 0.8, 0.9)]
        assert np.all(eps[0] <= eps[1]) and np.all(eps[1] <= eps[2])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        errors = rng.normal(size=(80, 3))
        perm = rng.permutation(80)
        a = conformal_thresholds(errors, 0.8)
        b = conformal_thresholds(errors[perm], 0.8)
        assert np.array_equal(a.epsilon, b.epsilon)


class TestEmpiricalCoverage:
    def test_infinite_radii_cover_everything(self):
        errors = np.random.default_rng(6).normal(size=(50, 3))
        bounds = CoverageSpec(np.full(3, np.inf), 0.8)
        joint, per_axis = empirical_coverage(errors, bounds)
        assert joint == 1.0 and np.all(per_axis == 1.0)

    def test_zero_radii_cover_nothing(self):
        errors = np.random.default_rng(7).normal(size=(50, 3))
        bounds = CoverageSpec(np.zeros(3), 0.8)
        joint, per_axis = empirical_coverage(errors, bounds)
        assert joint == 0.0 and np.all(per_axis == 0.0)

    def test_self_coverage_at_least_rank_fraction(self):
        rng = np.random.default_rng(8)
        errors = rng.normal(size=(99, 3))
        gamma = 0.9**3
        bounds = conformal_thresholds(errors, gamma)
        _, per_axis = empirical_coverage(errors, bounds)
        assert np.all(per_axis >= 90 / 100.0)


class TestJointCoverage:
    """Held-out joint coverage of the per-axis radii: 200 repetitions of
    999 calibration and 2000 test samples.  Each axis holds with
    probability q = ceil(1000 * gamma^(1/3)) / 1000 in expectation, the
    conformal rank over n + 1."""

    N_CAL, N_TEST, REPS = 999, 2000, 200

    def rank_level(self, gamma):
        n = self.N_CAL
        return math.ceil((n + 1) * per_axis_level(gamma)) / (n + 1)

    def mean_joint_coverage(self, draw, gamma, seed):
        rng = np.random.default_rng(seed)
        joint = [
            empirical_coverage(
                draw(rng, self.N_TEST),
                conformal_thresholds(draw(rng, self.N_CAL), gamma),
            )[0]
            for _ in range(self.REPS)
        ]
        return np.mean(joint)

    @pytest.mark.parametrize("gamma", [0.5, 0.8, 0.95])
    def test_independent_axes_hold_gamma(self, gamma):
        """iid N(0, I) errors: the three axis statements multiply to q^3,
        gamma up to the rank's rounding."""
        cover = self.mean_joint_coverage(
            lambda rng, n: rng.normal(size=(n, 3)), gamma, seed=11
        )
        assert abs(cover - self.rank_level(gamma) ** 3) <= 0.01
        assert abs(cover - gamma) <= 0.01

    def test_one_axis_law_falls_below_gamma(self):
        """Errors that perturb one uniformly chosen axis with N(0, 1) and
        leave the others at 0 cover each axis at q only because two thirds
        of its samples are 0: the joint coverage is 3q - 2, near
        3 gamma^(1/3) - 2 = 0.381 at gamma = 0.5."""

        def one_axis(rng, n):
            errors = np.zeros((n, 3))
            errors[np.arange(n), rng.integers(0, 3, n)] = rng.normal(size=n)
            return errors

        cover = self.mean_joint_coverage(one_axis, 0.5, seed=12)
        assert abs(cover - (3.0 * self.rank_level(0.5) - 2.0)) <= 0.01
        assert abs(cover - (3.0 * 0.5 ** (1.0 / 3.0) - 2.0)) <= 0.01


class TestDecorrelationLags:
    def test_white_noise_decorrelates_immediately(self):
        rng = np.random.default_rng(9)
        errors = rng.normal(size=(5000, 3))
        assert np.all(decorrelation_lags(errors) <= 3)

    def test_ar1_needs_longer_interval(self):
        rng = np.random.default_rng(10)
        n = 5000
        x = np.zeros((n, 3))
        for k in range(1, n):
            x[k] = 0.95 * x[k - 1] + rng.normal(0, 1, 3)
        lags = decorrelation_lags(x)
        assert np.all(lags > 20)

    def test_explicit_max_lag_must_have_sample_pairs(self):
        """On a 6-sample ramp the lags with pairs are 1 to 5: the horizon
        5 reports the never-decorrelating ramp as 6, and a horizon outside
        [1, 5] is refused rather than read as lag -2 or lag 6."""
        errors = np.outer(np.arange(6.0), np.ones(3))
        assert np.array_equal(decorrelation_lags(errors, max_lag=5), [6, 6, 6])
        for max_lag in (-3, 0, 6, 100):
            with pytest.raises(ValueError, match="max_lag"):
                decorrelation_lags(errors, max_lag=max_lag)

    @pytest.mark.parametrize("max_lag", [2.5, 2.0, "2"])
    def test_max_lag_must_be_an_integer(self, max_lag):
        """2.5 used to fail inside ``range`` with TypeError; numpy integers
        are integers."""
        errors = np.outer(np.arange(6.0), np.ones(3))
        with pytest.raises(ValueError, match="max_lag must be an integer"):
            decorrelation_lags(errors, max_lag=max_lag)
        assert np.array_equal(decorrelation_lags(errors, max_lag=np.int64(5)), [6, 6, 6])

    def test_default_horizon_needs_four_samples(self):
        """Below 4 samples the default horizon min(n // 4, 1000) is 0: no
        lag would run, and a perfectly correlated ramp would read as lag 1
        on every axis.  It is refused, naming the minimum; 4 samples run
        at horizon 1."""
        ramp = np.outer(np.arange(4.0), np.ones(3))
        for n in (1, 2, 3):
            with pytest.raises(ValueError, match="at least 4 samples"):
                decorrelation_lags(ramp[:n])
        assert np.all(np.isin(decorrelation_lags(ramp), [1, 2]))

    @pytest.mark.parametrize("n", [4, 11, 13, 100, 2907, 4004])
    def test_ramp_never_decorrelates_at_the_default_horizon(self, n):
        """A ramp is perfectly correlated, yet its centred lag products sum
        to 0 near lag 0.37 n; the default horizon stops short of that,
        so every axis reads max_lag + 1."""
        ramp = np.outer(np.arange(float(n)), np.ones(3))
        assert np.array_equal(decorrelation_lags(ramp), [min(n // 4, 1000) + 1] * 3)

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, 0.0, 1.0, 2.0])
    def test_threshold_outside_unit_interval_is_refused(self, threshold):
        """No |r| lies below a NaN or negative threshold, so 500 white
        samples read as never decorrelating (126 on every axis); at 1 or
        above, every lag of a non-ramp reads as decorrelated."""
        errors = np.random.default_rng(13).normal(size=(500, 3))
        with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\)"):
            decorrelation_lags(errors, threshold)

    def test_constant_axis_reads_lag_one(self):
        """A constant axis has no correlation to lose: it reads 1, beside
        a ramp that never decorrelates."""
        errors = np.zeros((40, 3))
        errors[:, 1] = np.arange(40.0)
        errors[:, 2] = 5.0
        assert np.array_equal(decorrelation_lags(errors), [1, 11, 1])

    def test_oscillation_reads_as_decorrelated_at_its_first_zero(self):
        """Known limitation, pinned: only the first lag below the threshold
        counts.  A period-40 sinusoid reads as decorrelated at lag 10, its
        autocorrelation's first zero, yet the means of its 10-sample
        blocks repeat with period 4: their lag-1 autocorrelation is 0.002
        and their lag-2 one -0.996.  Calibrating on those block means
        would treat anti-correlated blocks as exchangeable."""
        t = np.arange(5000.0)
        errors = np.outer(np.sin(2.0 * np.pi * t / 40.0), np.ones(3))
        assert np.array_equal(decorrelation_lags(errors), [10, 10, 10])
        means = errors[:, 0].reshape(-1, 10).mean(axis=1)
        means -= means.mean()
        r = [means[:-lag] @ means[lag:] / (means @ means) for lag in (1, 2)]
        assert abs(r[0] - 0.002) <= 1e-3
        assert abs(r[1] + 0.996) <= 1e-3
