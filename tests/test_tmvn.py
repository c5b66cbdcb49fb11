import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from oracles import (
    box_mass_lower_bound,
    full_space,
    nested_grid_box_moments,
    oracle_box_moments,
    tensor_gauss_legendre_box_moments,
    truncated_normal_1d,
)

from coverage_inekf import tmvn
from coverage_inekf.tmvn import PROB_FLOOR, BoxRegion, box_moments


def random_problem(rng: np.random.Generator, dim: int = 3):
    """Random PD covariance plus a box with non-trivial mass."""
    a = rng.standard_normal((dim, dim))
    cov = a @ a.T + 0.3 * np.eye(dim)
    mean = rng.normal(0.0, 1.0, dim)
    sigma = np.sqrt(np.diag(cov))
    center = mean + rng.uniform(-1.5, 1.5, dim) * sigma
    half = rng.uniform(0.3, 2.0, dim) * sigma
    return mean, cov, BoxRegion(center - half, center + half)


def product_of_1d(m, s, lo, hi):
    """``box_moments`` of N(m, diag(s^2)) on the 3-D box [lo, hi], and the
    box's mass, mean and second moment as the product of its axes'
    truncated normals."""
    axes = [truncated_normal_1d(*args) for args in zip(m, s, lo, hi)]
    mass = math.prod(a[0] for a in axes)
    mean = np.array([a[1] for a in axes])
    m2 = np.diag([a[2] for a in axes]) + np.outer(mean, mean)
    tm = box_moments(np.array(m, float), np.diag(np.square(s)), BoxRegion(lo, hi))
    return tm, mass, mean, m2


# Two narrow finite slabs (m, s, lo, hi) of N(m, s^2), of masses 2.8e-3 and
# 2.0e-3, for the grid axes of a diagonal box.
NARROW_SLABS = [(0.2, 0.7, 0.1, 0.105), (-1.0, 1.5, -1.3, -1.292)]


def last_axis_case(m, s, lo, hi):
    """``product_of_1d`` with N(m, s^2) on [lo, hi] as the last axis of a
    diagonal box whose grid axes are ``NARROW_SLABS``, and the slabs'
    mass.  The axis under test is the box's widest, so the rule integrates
    it in closed form, as it does the one axis of a 1-D box."""
    slabs = [truncated_normal_1d(*slab)[0] for slab in NARROW_SLABS]
    assert max(slabs) < truncated_normal_1d(m, s, lo, hi)[0]
    m, s, lo, hi = zip(*NARROW_SLABS, (m, s, lo, hi))
    return *product_of_1d(m, s, lo, hi), math.prod(slabs)


class TestBoxRegion:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            BoxRegion([0.0, 0.0, 0.0], [1.0, -1.0, 1.0])

    def test_full_space(self):
        box = full_space()
        assert np.all(np.isinf(box.lower)) and np.all(np.isinf(box.upper))

    def test_rejects_nan_bounds(self):
        with pytest.raises(ValueError, match="NaN"):
            BoxRegion([np.nan, 0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="NaN"):
            BoxRegion([0.0, 0.0, 0.0], [1.0, np.nan, 1.0])

    def test_accepts_infinite_faces(self):
        box = BoxRegion([-np.inf, 0.0, -np.inf], [1.0, np.inf, np.inf])
        assert box.lower.shape == box.upper.shape == (3,)
        assert box.lower.dtype == float and box.upper.dtype == float

    @pytest.mark.parametrize(
        "lower, upper",
        [
            ([np.inf, 0.0, 0.0], [np.inf, 1.0, 1.0]),
            ([0.0, -np.inf, 0.0], [1.0, -np.inf, 1.0]),
        ],
        ids=["lower_plus_inf", "upper_minus_inf"],
    )
    def test_rejects_empty_infinite_faces(self, lower, upper):
        """A lower face of +inf or an upper face of -inf bounds an empty
        box; the moment rules would read the face as open (mass 0.117 for
        both under a standard normal)."""
        with pytest.raises(ValueError, match="empty"):
            BoxRegion(lower, upper)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="3-D box"):
            BoxRegion([0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="3-D box"):
            BoxRegion(np.zeros((3, 3)), np.ones((3, 3)))


class TestBoxMoments:
    def test_full_space_is_untruncated(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        mean = rng.normal(size=3)
        tm = box_moments(mean, cov, full_space())
        assert tm.prob == 1.0
        assert np.allclose(tm.mean, mean, rtol=0.0, atol=1e-5)
        assert np.allclose(
            tm.second_moment, cov + np.outer(mean, mean), rtol=0.0, atol=1e-5
        )

    def test_1d_standard_normal_symmetric_box(self):
        # closed form: P(|Z| <= 1) = erf(1/sqrt(2)), times the slabs' mass
        expected = math.erf(1.0 / math.sqrt(2.0))
        tm, _, _, _, slabs = last_axis_case(0.0, 1.0, -1.0, 1.0)
        assert abs(tm.prob - 0.6826894921 * slabs) < 1e-8 * slabs
        assert abs(tm.prob - expected * slabs) < 1e-8 * slabs
        assert abs(tm.mean[2]) < 1e-8

    def test_1d_halfline_against_closed_form(self):
        # half-normal: mass 1/2, conditional mean sigma*sqrt(2/pi)
        sigma = 1.7
        tm, _, _, _, slabs = last_axis_case(0.0, sigma, 0.0, np.inf)
        assert abs(tm.prob - 0.5 * slabs) < 1e-8 * slabs
        assert abs(tm.mean[2] - sigma * math.sqrt(2.0 / math.pi)) < 1e-8

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
        """The closed-form axis against the 1-D truncated normal: the mass
        within 1e-8 of the axis's mass, times the slabs' mass, and every
        moment within 1e-8."""
        tm, mass, mean, m2, slabs = last_axis_case(m, s, lo, hi)
        assert abs(tm.prob - mass) <= 1e-8 * slabs
        assert np.abs(tm.mean - mean).max() <= 1e-8
        assert np.abs(tm.second_moment - m2).max() <= 1e-8

    def test_diagonal_3d_is_product_of_1d(self):
        tm, mass, mean, m2 = product_of_1d(
            [0.2, -1.0, 0.5], [0.7, 1.5, 0.3], [-0.5, -np.inf, 0.6], [1.0, -0.8, np.inf]
        )
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

    @pytest.mark.parametrize("seed", [11, 12, 13, 17])
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
                    box_moments(np.zeros(3), cov, full_space())

    def test_rejects_indefinite_cov(self):
        """A positive diagonal with an indefinite, singular or NaN
        off-diagonal fails at the Cholesky pivot."""
        for bad in (2.0, 1.0, np.nan):
            cov = np.array([[1.0, bad, 0.0], [bad, 1.0, 0.0], [0.0, 0.0, 1.0]])
            with pytest.raises(np.linalg.LinAlgError):
                box_moments(np.zeros(3), cov, full_space())

    @pytest.mark.parametrize("dim", [0, 1, 2])
    def test_rejects_a_box_that_is_not_3d(self, dim):
        """The rule is written for the 3-D box of the coverage update:
        ``BoxRegion`` itself refuses a box of lower dimension before any
        arithmetic warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="3-D box"):
                full_space(dim)

    def test_rejects_more_than_three_dimensions(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="3-D box"):
                full_space(4)

    @pytest.mark.parametrize(
        "mean, cov, box, match",
        [
            (np.zeros(3), np.eye(2), full_space(), "shapes"),
            (np.zeros(3), np.ones(3), full_space(), "shapes"),
            (np.array([0.0, np.nan, 0.0]), np.eye(3), BoxRegion([-1] * 3, [1] * 3), "mean"),
            (np.array([np.inf, 0.0, 0.0]), np.eye(3), BoxRegion([-1] * 3, [1] * 3), "mean"),
            (np.zeros(3), np.diag([1.0, np.inf, 1.0]), BoxRegion([-1] * 3, [1] * 3),
             "variance"),
            (np.zeros(3), [[1, 5, 0], [0, 1, 0], [0, 0, 1]], BoxRegion([-1] * 3, [1] * 3),
             "symmetric"),
            (np.zeros(3), [[1, 5, 0], [0, 1, 0], [0, 0, 1]], BoxRegion([30] * 3, [31] * 3),
             "symmetric"),
            (np.zeros(3), [[1, 0, np.nan], [0, 1, 0], [0, 0, 1]], full_space(),
             "symmetric"),
        ],
        ids=["cov-too-small", "cov-1d", "nan-mean", "inf-mean", "inf-variance",
             "asymmetric-cov", "asymmetric-cov-degenerate", "upper-nan-cov"],
    )
    def test_rejects_malformed_priors(self, mean, cov, box, match):
        """Input the rule cannot read raises ValueError before any
        arithmetic warns, never an IndexError or a silent NaN."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                box_moments(mean, cov, box)

    def test_second_moment_dominates_mean_outer(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            mean, cov, box = random_problem(rng)
            tm = box_moments(mean, cov, box)
            if tm.prob > 1e-6:
                gram = tm.second_moment - np.outer(tm.mean, tm.mean)
                assert np.linalg.eigvalsh(gram).min() >= -1e-8


class TestCholesky:
    """tmvn.cholesky, the one factorization of 3x3 SPD matrices."""

    @pytest.mark.parametrize("dim", [3])
    def test_matches_numpy_in_every_order(self, dim):
        """Seeded SPD matrices with cond up to 1e6 and scale 1e-4 to 1e4:
        in every order, each row of the factor is numpy's factor of the
        reordered matrix within cond eps of the row's scale (measured
        worst: 0.35 cond eps), each diagonal entry is the root of its
        pivot, and only the lower triangle is read."""
        rng = np.random.default_rng(40 + dim)
        eps = np.finfo(float).eps
        for _ in range(100):
            u = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            vals = 10.0 ** (rng.uniform(-4, 4) - rng.uniform(0, 6, dim))
            c = (u * vals) @ u.T
            c = 0.5 * (c + c.T)
            tol = np.linalg.cond(c) * eps
            for order in itertools.permutations(range(dim)):
                cp = c[np.ix_(order, order)]
                chol, pivots = tmvn.cholesky(c.tolist(), order)
                err = np.abs(np.array(chol) - np.linalg.cholesky(cp))
                assert np.all(err <= tol * np.sqrt(np.diag(cp))[:, None])
                assert [chol[i][i] for i in range(dim)] == list(map(math.sqrt, pivots))
            lower = np.where(np.tri(dim) > 0, c, np.nan)
            assert tmvn.cholesky(lower.tolist()) == tmvn.cholesky(c.tolist())

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("dim, k", [(3, 0), (3, 1), (3, 2)])
    def test_rejects_a_pivot_that_is_not_positive(self, dim, k, value):
        """A zero, negative or NaN pivot, first, middle or last, stops the
        factorization before any arithmetic warns.  The dense matrix has
        l_j0 = 1/2 and l_21 = 0 exactly, so pivot k is c_kk - 1/4 for
        k > 0."""
        c = np.full((dim, dim), 0.25)
        c[0] = c[:, 0] = 0.5
        np.fill_diagonal(c, 1.0)
        c[k, k] = value + (0.25 if k else 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="not positive"):
                tmvn.cholesky(c.tolist())


def random_equivalence_problem(rng: np.random.Generator, dim: int):
    """A prior at covariance scale 1e-3 to 1e3 with correlations up to 0.95,
    and a box that may be open on either side of any axis, far out in a
    tail, or of zero width on one axis."""
    while True:
        corr = np.eye(dim)
        corr[np.triu_indices(dim, 1)] = rng.uniform(-0.95, 0.95, dim * (dim - 1) // 2)
        corr = np.triu(corr) + np.triu(corr, 1).T
        if np.linalg.eigvalsh(corr).min() > 1e-3:
            break
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    sd = math.sqrt(scale) * rng.uniform(0.5, 2.0, dim)
    cov = corr * np.outer(sd, sd)
    mean = math.sqrt(scale) * rng.normal(0.0, 1.0, dim)
    center = mean + rng.uniform(-3.0, 3.0, dim) * sd
    if rng.random() < 0.05:  # far out: below PROB_FLOOR or just above it
        j = rng.integers(dim)
        center[j] += rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 9.0) * sd[j]
    half = rng.uniform(0.05, 3.0, dim) * sd
    if rng.random() < 0.03:
        half[rng.integers(dim)] = 0.0
    lower, upper = center - half, center + half
    for j in range(dim):
        kind = rng.random()
        if kind < 0.15:
            lower[j] = -np.inf
        elif kind < 0.3:
            upper[j] = np.inf
        elif kind < 0.4:
            lower[j], upper[j] = -np.inf, np.inf
    return scale, mean, cov, BoxRegion(lower, upper)


def test_lean_kernel_matches_the_nested_grid():
    """box_moments evaluates the same rule as the nested-grid reference,
    only with fewer array operations, so the two agree at roundoff."""
    rng = np.random.default_rng(2603)
    degenerate = 0
    for _ in range(3000):
        scale, mean, cov, box = random_equivalence_problem(rng, 3)
        got = box_moments(mean, cov, box)
        ref = nested_grid_box_moments(mean, cov, box)
        assert got.degenerate == ref.degenerate
        degenerate += got.degenerate
        assert abs(got.prob - ref.prob) <= 1e-15
        assert np.abs(got.mean - ref.mean).max() <= 1e-12 * math.sqrt(scale)
        assert np.abs(got.second_moment - ref.second_moment).max() <= 1e-12 * scale
    assert 0 < degenerate < 300


class TestBoxMassLowerBound:
    @pytest.mark.parametrize(
        "lo, hi", [(-1.0, 2.0), (0.5, 3.0), (-np.inf, 1.0), (-3.0, np.inf), (4.0, 9.0)]
    )
    def test_exact_in_one_dimension(self, lo, hi):
        """A box finite on one axis and open on the other two: its
        complement is the two disjoint half-spaces beyond its faces, so
        the bound is the box mass."""
        mean = np.array([0.3, -0.2, 0.1])
        cov = np.array([[2.0, 0.6, -0.4], [0.6, 1.0, 0.3], [-0.4, 0.3, 0.5]])
        box = BoxRegion([lo, -np.inf, -np.inf], [hi, np.inf, np.inf])
        assert abs(box_mass_lower_bound(mean, cov, box) - box_moments(mean, cov, box).prob) <= 4e-16

    def test_below_the_box_mass(self):
        rng = np.random.default_rng(40)
        for k in range(200):
            mean, cov, box = random_problem(rng)
            if k % 4 == 0:
                box.lower[rng.integers(3)] = -np.inf
            bound = box_mass_lower_bound(mean, cov, box)
            assert bound <= box_moments(mean, cov, box).prob + 1e-14

    def test_matches_the_array_form(self):
        """Bit for bit the vectorized formula: each axis's two tails added,
        then the axes summed left to right."""
        rng = np.random.default_rng(42)
        for _ in range(3000):
            scale, mean, cov, box = random_equivalence_problem(rng, 3)
            sd = np.sqrt(np.diag(cov))
            tails = ndtr((box.lower - mean) / sd) + ndtr((mean - box.upper) / sd)
            assert box_mass_lower_bound(mean, cov, box) == 1.0 - float(tails.sum())

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
            np.zeros(3), np.eye(3), full_space(), n_samples=100_000, seed=0
        )
        assert tm.prob == 1.0

    def test_halfline_half_normal(self):
        sigma = 2.0
        tm = oracle_box_moments(
            np.zeros(3),
            np.diag([sigma**2, 1.0, 1.0]),
            BoxRegion([0.0, -np.inf, -np.inf], [np.inf, np.inf, np.inf]),
            n_samples=2_000_000,
            seed=1,
        )
        assert abs(tm.prob - 0.5) < 1.5e-3
        assert abs(tm.mean[0] - sigma * math.sqrt(2.0 / math.pi)) < 5e-3

    def test_zero_acceptance_raises(self):
        far = BoxRegion(np.full(3, 100.0), np.full(3, 101.0))
        with pytest.raises(ValueError):
            oracle_box_moments(np.zeros(3), np.eye(3), far, n_samples=10_000, seed=2)

    def test_cross_estimator_consistency(self):
        # large-sample agreement within a few binomial standard errors
        rng = np.random.default_rng(17)
        mean, cov, box = random_problem(rng)
        n = 4_000_000
        fast = box_moments(mean, cov, box)
        slow = oracle_box_moments(mean, cov, box, n_samples=n, seed=10)
        se = math.sqrt(slow.prob * (1 - slow.prob) / n)
        assert abs(fast.prob - slow.prob) <= 4 * se
