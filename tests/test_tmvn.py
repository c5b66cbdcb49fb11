import math

import numpy as np
import pytest
from scipy.stats import qmc

from coverage_inekf.tmvn import (
    PROB_FLOOR,
    BoxRegion,
    _base_points,
    box_moments,
    oracle_box_moments,
)


def random_problem(rng: np.random.Generator, dim: int = 3):
    """Random PD covariance plus a box with non-trivial mass."""
    a = rng.standard_normal((dim, dim))
    cov = a @ a.T + 0.3 * np.eye(dim)
    mean = rng.normal(0.0, 1.0, dim)
    sigma = np.sqrt(np.diag(cov))
    center = mean + rng.uniform(-1.5, 1.5, dim) * sigma
    half = rng.uniform(0.3, 2.0, dim) * sigma
    return mean, cov, BoxRegion(center - half, center + half)


class TestBoxRegion:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            BoxRegion([0.0, 0.0], [1.0, -1.0])

    def test_full_space(self):
        box = BoxRegion.full_space(3)
        assert np.all(np.isinf(box.lower)) and np.all(np.isinf(box.upper))

    def test_rejects_nan_bounds(self):
        with pytest.raises(ValueError):
            BoxRegion([np.nan, 0.0, 0.0], [1.0, 1.0, 1.0])


# SciPy warns that a non-power-of-two draw loses the balance properties.
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("n", [100, 128, 1000, 4096])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_base_points_match_reference_sobol(dim, n):
    """The in-module point set is SciPy's unscrambled Sobol sequence."""
    ref = qmc.Sobol(d=dim, scramble=False).random(n)
    assert np.array_equal(_base_points(n, dim), ref)


class TestBoxMoments:
    def test_full_space_is_untruncated(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        mean = rng.normal(size=3)
        tm = box_moments(
            mean, cov, BoxRegion.full_space(3), n_samples=4096, seed=1
        )
        assert tm.prob == 1.0
        assert np.allclose(tm.mean, mean, atol=0.05)
        assert np.allclose(tm.second_moment, cov + np.outer(mean, mean), atol=0.2)

    def test_1d_standard_normal_symmetric_box(self):
        # closed form: P(|Z| <= 1) = erf(1/sqrt(2))
        expected = math.erf(1.0 / math.sqrt(2.0))
        tm = box_moments(
            np.zeros(1), np.eye(1), BoxRegion([-1.0], [1.0]), n_samples=2048, seed=3
        )
        assert abs(tm.prob - 0.6826894921) < 1e-4
        assert abs(tm.prob - expected) < 1e-4
        assert abs(tm.mean[0]) < 1e-3

    def test_1d_halfline_against_closed_form(self):
        # half-normal: mass 1/2, conditional mean sigma*sqrt(2/pi)
        sigma = 1.7
        tm = box_moments(
            np.zeros(1),
            np.array([[sigma**2]]),
            BoxRegion([0.0], [np.inf]),
            n_samples=4096,
            seed=4,
        )
        assert abs(tm.prob - 0.5) < 1e-3
        assert abs(tm.mean[0] - sigma * math.sqrt(2.0 / math.pi)) < 5e-3

    def test_3d_against_rejection_oracle(self):
        rng = np.random.default_rng(11)
        mean, cov, box = random_problem(rng)
        ref = oracle_box_moments(mean, cov, box, n_samples=2_000_000, seed=5)
        tm = box_moments(mean, cov, box, n_samples=1000, seed=6)
        assert abs(tm.prob - ref.prob) < 1e-3
        assert np.linalg.norm(tm.mean - ref.mean) < 0.05
        assert np.linalg.norm(tm.second_moment - ref.second_moment) < 0.1

    def test_seed_determinism_bit_identical(self):
        rng = np.random.default_rng(12)
        mean, cov, box = random_problem(rng)
        a = box_moments(mean, cov, box, n_samples=1000, seed=42)
        b = box_moments(mean, cov, box, n_samples=1000, seed=42)
        assert a.prob == b.prob
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.second_moment, b.second_moment)
        c = box_moments(mean, cov, box, n_samples=1000, seed=43)
        assert c.prob != a.prob

    def test_conditioned_monotone_within_noise(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            mean, cov, box = random_problem(rng)
            grow = rng.uniform(0.1, 1.0, 3)
            bigger = BoxRegion(box.lower - grow, box.upper + grow)
            p_small = box_moments(mean, cov, box, n_samples=1000, seed=trial).prob
            p_big = box_moments(mean, cov, bigger, n_samples=1000, seed=trial).prob
            assert p_big >= p_small - 5e-4

    def test_degenerate_box_flagged(self):
        mean = np.zeros(3)
        cov = np.eye(3)
        far = BoxRegion(np.full(3, 50.0), np.full(3, 51.0))
        tm = box_moments(mean, cov, far, n_samples=1000, seed=8)
        assert tm.degenerate
        assert tm.prob == PROB_FLOOR
        assert np.array_equal(tm.mean, mean)

    def test_rejects_non_pd_cov(self):
        cov = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            box_moments(np.zeros(3), cov, BoxRegion.full_space(3))

    def test_rejects_more_than_three_dimensions(self):
        with pytest.raises(ValueError):
            box_moments(np.zeros(4), np.eye(4), BoxRegion.full_space(4))

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            box_moments(np.zeros(1), np.eye(1), BoxRegion([-1.0], [1.0]), n_samples=10)

    def test_second_moment_dominates_mean_outer(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            mean, cov, box = random_problem(rng)
            tm = box_moments(mean, cov, box, n_samples=1000, seed=trial)
            if tm.prob > 1e-6:
                gram = tm.second_moment - np.outer(tm.mean, tm.mean)
                assert np.linalg.eigvalsh(gram).min() >= -1e-8


class TestOracle:
    def test_full_space_prob_exactly_one(self):
        tm = oracle_box_moments(
            np.zeros(2), np.eye(2), BoxRegion.full_space(2), n_samples=100_000, seed=0
        )
        assert tm.prob == 1.0

    def test_halfline_half_normal(self):
        sigma = 2.0
        tm = oracle_box_moments(
            np.zeros(1),
            np.array([[sigma**2]]),
            BoxRegion([0.0], [np.inf]),
            n_samples=2_000_000,
            seed=1,
        )
        assert abs(tm.prob - 0.5) < 1.5e-3
        assert abs(tm.mean[0] - sigma * math.sqrt(2.0 / math.pi)) < 5e-3

    def test_zero_acceptance_raises(self):
        far = BoxRegion(np.full(2, 100.0), np.full(2, 101.0))
        with pytest.raises(ValueError):
            oracle_box_moments(np.zeros(2), np.eye(2), far, n_samples=10_000, seed=2)

    def test_cross_estimator_consistency(self):
        # large-sample agreement within a few combined standard errors
        rng = np.random.default_rng(17)
        mean, cov, box = random_problem(rng)
        n = 4_000_000
        fast = box_moments(mean, cov, box, n_samples=n, seed=9)
        slow = oracle_box_moments(mean, cov, box, n_samples=n, seed=10)
        se = math.sqrt(slow.prob * (1 - slow.prob) / n)
        assert abs(fast.prob - slow.prob) <= 4 * se
