import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from oracles import (
    _base_points,
    oracle_box_moments,
    tensor_gauss_legendre_box_moments,
    truncated_normal_1d,
)

from coverage_inekf import tmvn
from coverage_inekf.tmvn import (
    PROB_FLOOR,
    BoxRegion,
    box_mass_lower_bound,
    box_moments,
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
    """The oracle's point set is SciPy's unscrambled Sobol sequence, also
    when it is generated in chunks."""
    ref = qmc.Sobol(d=dim, scramble=False).random(n)
    assert np.array_equal(_base_points(n, dim), ref)
    half = n // 2
    assert np.array_equal(_base_points(n - half, dim, start=half), ref[half:])


class TestBoxMoments:
    def test_full_space_is_untruncated(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        mean = rng.normal(size=3)
        tm = box_moments(mean, cov, BoxRegion.full_space(3))
        assert tm.prob == 1.0
        assert np.allclose(tm.mean, mean, rtol=0.0, atol=1e-5)
        assert np.allclose(
            tm.second_moment, cov + np.outer(mean, mean), rtol=0.0, atol=1e-5
        )

    def test_1d_standard_normal_symmetric_box(self):
        # closed form: P(|Z| <= 1) = erf(1/sqrt(2))
        expected = math.erf(1.0 / math.sqrt(2.0))
        tm = box_moments(np.zeros(1), np.eye(1), BoxRegion([-1.0], [1.0]))
        assert abs(tm.prob - 0.6826894921) < 1e-8
        assert abs(tm.prob - expected) < 1e-8
        assert abs(tm.mean[0]) < 1e-8

    def test_1d_halfline_against_closed_form(self):
        # half-normal: mass 1/2, conditional mean sigma*sqrt(2/pi)
        sigma = 1.7
        tm = box_moments(
            np.zeros(1),
            np.array([[sigma**2]]),
            BoxRegion([0.0], [np.inf]),
        )
        assert abs(tm.prob - 0.5) < 1e-8
        assert abs(tm.mean[0] - sigma * math.sqrt(2.0 / math.pi)) < 1e-8

    @pytest.mark.parametrize(
        "m, s, lo, hi",
        [
            (0.3, 1.7, 0.0, np.inf),
            (-0.2, 0.5, -np.inf, -0.6),
            (0.0, 1.0, 1.0, 2.0),
            (1.0, 2.0, 6.0, 9.0),
            (0.0, 1.0, 0.3, 0.31),
        ],
    )
    def test_1d_against_truncated_normal(self, m, s, lo, hi):
        mass, mean, var = truncated_normal_1d(m, s, lo, hi)
        tm = box_moments(np.array([m]), np.array([[s * s]]), BoxRegion([lo], [hi]))
        assert abs(tm.prob - mass) <= 1e-8
        assert abs(tm.mean[0] - mean) <= 1e-8
        assert abs(tm.second_moment[0, 0] - (var + mean * mean)) <= 1e-8

    def test_diagonal_3d_is_product_of_1d(self):
        m, s = np.array([0.2, -1.0, 0.5]), np.array([0.7, 1.5, 0.3])
        lo, hi = np.array([-0.5, -np.inf, 0.6]), np.array([1.0, -0.8, np.inf])
        axes = [truncated_normal_1d(*args) for args in zip(m, s, lo, hi)]
        mass = np.prod([a[0] for a in axes])
        mean = np.array([a[1] for a in axes])
        m2 = np.diag([a[2] for a in axes]) + np.outer(mean, mean)
        tm = box_moments(m, np.diag(s * s), BoxRegion(lo, hi))
        assert abs(tm.prob - mass) <= 1e-8
        assert np.abs(tm.mean - mean).max() <= 1e-8
        assert np.abs(tm.second_moment - m2).max() <= 1e-8

    def test_3d_against_rejection_oracle(self):
        rng = np.random.default_rng(11)
        mean, cov, box = random_problem(rng)
        ref = oracle_box_moments(mean, cov, box, n_samples=2_000_000, seed=5)
        tm = box_moments(mean, cov, box)
        assert abs(tm.prob - ref.prob) < 1e-3
        assert np.linalg.norm(tm.mean - ref.mean) < 0.05
        assert np.linalg.norm(tm.second_moment - ref.second_moment) < 0.1

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_3d_against_tensor_gauss_legendre(self, seed):
        mean, cov, box = random_problem(np.random.default_rng(seed))
        ref = tensor_gauss_legendre_box_moments(mean, cov, box.lower, box.upper, 48)
        low = tensor_gauss_legendre_box_moments(mean, cov, box.lower, box.upper, 32)
        for r, q in zip(ref, low):  # the reference has converged
            assert np.abs(r - q).max() <= 1e-11
        tm = box_moments(mean, cov, box)
        assert abs(tm.prob - ref[0]) <= 1e-8
        assert np.abs(tm.mean - ref[1]).max() <= 1e-8
        assert np.abs(tm.second_moment - ref[2]).max() <= 1e-8

    @pytest.mark.parametrize("narrow_axis", [0, 1, 2])
    def test_narrow_box_unbounded_elsewhere_matches_high_order(
        self, narrow_axis, monkeypatch
    ):
        """A slab on one axis, open on the other two: the 24-node rule
        agrees with a 96-node run of itself to 1e-5 relative."""
        rng = np.random.default_rng(20 + narrow_axis)
        problems = []
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            cov = a @ a.T + 0.3 * np.eye(3)
            mean = rng.normal(size=3)
            sd = math.sqrt(cov[narrow_axis, narrow_axis])
            center = mean[narrow_axis] + rng.uniform(-2.0, 2.0) * sd
            lo, hi = np.full(3, -np.inf), np.full(3, np.inf)
            lo[narrow_axis], hi[narrow_axis] = center - 0.05 * sd, center + 0.05 * sd
            problems.append((mean, cov, BoxRegion(lo, hi)))
        got = [box_moments(*p) for p in problems]
        monkeypatch.setattr(tmvn, "_NODES", np.polynomial.legendre.leggauss(96)[0])
        monkeypatch.setattr(tmvn, "_WEIGHTS", np.polynomial.legendre.leggauss(96)[1])
        for tm, p in zip(got, problems):
            ref = box_moments(*p)
            scale = np.abs(ref.second_moment).max()
            assert abs(tm.prob - ref.prob) <= 1e-5 * ref.prob
            assert np.abs(tm.mean - ref.mean).max() <= 1e-5 * math.sqrt(scale)
            assert np.abs(tm.second_moment - ref.second_moment).max() <= 1e-5 * scale

    def test_seed_determinism_bit_identical(self):
        rng = np.random.default_rng(12)
        mean, cov, box = random_problem(rng)
        a = box_moments(mean, cov, box)
        b = box_moments(mean, cov, box)
        assert a.prob == b.prob
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.second_moment, b.second_moment)

    def test_conditioned_monotone_within_noise(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            mean, cov, box = random_problem(rng)
            grow = rng.uniform(0.1, 1.0, 3)
            bigger = BoxRegion(box.lower - grow, box.upper + grow)
            p_small = box_moments(mean, cov, box).prob
            p_big = box_moments(mean, cov, bigger).prob
            assert p_big >= p_small - 1e-12

    def test_degenerate_box_flagged(self):
        mean = np.zeros(3)
        cov = np.eye(3)
        far = BoxRegion(np.full(3, 50.0), np.full(3, 51.0))
        tm = box_moments(mean, cov, far)
        assert tm.degenerate
        assert tm.prob == PROB_FLOOR
        assert np.array_equal(tm.mean, mean)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_probability_floor_both_sides(self, factor, side):
        """A tail slab of mass factor * PROB_FLOOR, open on the other axes:
        below the floor it is flagged degenerate, above it the mass is
        resolved."""
        rng = np.random.default_rng(21)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 0.3 * np.eye(3)
        mean = rng.normal(size=3)
        sd = math.sqrt(cov[2, 2])
        offset = -ndtri(factor * PROB_FLOOR) * sd
        lo, hi = np.full(3, -np.inf), np.full(3, np.inf)
        if side == "upper":
            lo[2] = mean[2] + offset
        else:
            hi[2] = mean[2] - offset
        mass, mean_2, _ = truncated_normal_1d(mean[2], sd, lo[2], hi[2])
        tm = box_moments(mean, cov, BoxRegion(lo, hi))
        assert tm.degenerate == (factor < 1.0)
        if tm.degenerate:
            assert tm.prob == PROB_FLOOR
        else:
            assert abs(tm.prob - mass) <= 1e-6 * mass
            assert abs(tm.mean[2] - mean_2) <= 1e-6 * sd

    def test_rejects_non_pd_cov(self):
        """A negative or NaN variance raises before any arithmetic warns."""
        for bad in (-1.0, np.nan):
            cov = np.diag([1.0, bad, 1.0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(np.linalg.LinAlgError):
                    box_moments(np.zeros(3), cov, BoxRegion.full_space(3))

    def test_rejects_more_than_three_dimensions(self):
        with pytest.raises(ValueError):
            box_moments(np.zeros(4), np.eye(4), BoxRegion.full_space(4))

    def test_second_moment_dominates_mean_outer(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            mean, cov, box = random_problem(rng)
            tm = box_moments(mean, cov, box)
            if tm.prob > 1e-6:
                gram = tm.second_moment - np.outer(tm.mean, tm.mean)
                assert np.linalg.eigvalsh(gram).min() >= -1e-8


class TestBoxMassLowerBound:
    @pytest.mark.parametrize(
        "lo, hi", [(-1.0, 2.0), (0.5, 3.0), (-np.inf, 1.0), (-3.0, np.inf), (4.0, 9.0)]
    )
    def test_exact_in_one_dimension(self, lo, hi):
        """In 1-D the two tails are the whole complement, so the bound is
        the box mass."""
        mean, cov, box = np.array([0.3]), np.array([[2.0]]), BoxRegion([lo], [hi])
        assert abs(box_mass_lower_bound(mean, cov, box) - box_moments(mean, cov, box).prob) <= 4e-16

    def test_below_the_box_mass(self):
        rng = np.random.default_rng(40)
        for k in range(200):
            mean, cov, box = random_problem(rng)
            if k % 4 == 0:
                box.lower[rng.integers(3)] = -np.inf
            bound = box_mass_lower_bound(mean, cov, box)
            assert bound <= box_moments(mean, cov, box).prob + 1e-14

    def test_tails_are_taken_directly(self):
        """Faces 4-8 sigma out: the bound is within one spacing of doubles
        below 1 (2^-53) of 1 - sum of tails from ``math.erfc`` summed
        exactly.  Tails taken as one minus a slab mass each carry that
        subtraction's rounding and miss by two spacings on about 3 % of
        such boxes."""
        rng = np.random.default_rng(41)
        for _ in range(500):
            a = rng.standard_normal((3, 3))
            cov = a @ a.T + 0.3 * np.eye(3)
            mean = rng.standard_normal(3)
            sd = np.sqrt(np.diag(cov))
            box = BoxRegion(
                mean - rng.uniform(4.0, 8.0, 3) * sd, mean + rng.uniform(4.0, 8.0, 3) * sd
            )
            dist = np.concatenate([(box.lower - mean) / sd, (mean - box.upper) / sd])
            ref = 1.0 - math.fsum(0.5 * math.erfc(-t / math.sqrt(2.0)) for t in dist)
            assert abs(box_mass_lower_bound(mean, cov, box) - ref) <= 2.0**-53


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
        # large-sample agreement within a few binomial standard errors
        rng = np.random.default_rng(17)
        mean, cov, box = random_problem(rng)
        n = 4_000_000
        fast = box_moments(mean, cov, box)
        slow = oracle_box_moments(mean, cov, box, n_samples=n, seed=10)
        se = math.sqrt(slow.prob * (1 - slow.prob) / n)
        assert abs(fast.prob - slow.prob) <= 4 * se
